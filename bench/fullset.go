package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// manifest is the part of BENCHMARK.json the benchmark reads back: the
// bound of every end-to-end metric for -selfcheck, and the declared names
// and units for the test that holds them against what the program emits.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// summary is the JSON a full set leaves in the output directory. Claim is
// its last member: this benchmark defines the baseline and claims no gain.
type summary struct {
	Seed      int64     `json:"seed"`
	EndToEnd  []*result `json:"end_to_end"`
	PerLayer  []*result `json:"per_layer,omitempty"`
	AllPassed bool      `json:"all_passed"`
	Claim     *string   `json:"claim"`
}

// fullSet runs every workload on one seed, untraced and — when traced is
// set — traced, prints every metric with its unit, and writes summary.json.
// It reports whether every operation of every run succeeded.
func (b *bench) fullSet(seed int64, traced bool) (map[string]*result, bool) {
	sum := summary{Seed: seed, AllPassed: true}
	byName := map[string]*result{}
	for i := range workloads {
		w := &workloads[i]
		res, err := b.run(w, seed, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			sum.AllPassed = false
			continue
		}
		b.report(res)
		sum.EndToEnd = append(sum.EndToEnd, res)
		byName[w.name] = res
		sum.AllPassed = sum.AllPassed && res.Failed == 0
		if !traced {
			continue
		}
		tres, err := b.run(w, seed, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			sum.AllPassed = false
			continue
		}
		b.report(tres)
		sum.PerLayer = append(sum.PerLayer, tres)
		sum.AllPassed = sum.AllPassed && tres.Failed == 0
	}
	enc, err := json.MarshalIndent(sum, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(b.out, "summary.json"), append(enc, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing summary:", err)
		return byName, false
	}
	if traced {
		fmt.Println(string(enc))
	}
	return byName, sum.AllPassed
}

// selfcheck is the repeatability check: the full untraced set twice on one
// seed — every (metric, workload) pair must agree within the metric's bound
// in BENCHMARK.json — and once on a second seed, shown beside them so that
// nothing can be tuned to the first.
func (b *bench) selfcheck(seed int64) bool {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck needs the bounds in BENCHMARK.json:", err)
		return false
	}
	bound := map[string]float64{}
	for _, e := range man.EndToEnd {
		bound[e.Name] = e.Bound
	}
	first, ok1 := b.fullSet(seed, false)
	second, ok2 := b.fullSet(seed, false)
	other, ok3 := b.fullSet(secondSeed, false)
	ok := ok1 && ok2 && ok3
	fmt.Printf("| workload | metric | unit | run 1 (seed %d) | run 2 (seed %d) | rel. diff | bound | seed %d |\n|---|---|---|---|---|---|---|---|\n", seed, seed, secondSeed)
	for _, w := range workloads {
		a, c, o := first[w.name], second[w.name], other[w.name]
		if a == nil || c == nil || o == nil {
			ok = false
			continue
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name], c.Metrics[d.name]
			diff := math.Abs(x-y) / math.Min(x, y)
			mark := ""
			if !(diff <= bound[d.name]) {
				mark, ok = " **over**", false
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.1f%%%s | %.0f%% | %.4g |\n",
				w.name, d.name, d.unit, x, y, 100*diff, mark, 100*bound[d.name], o.Metrics[d.name])
		}
		fmt.Printf("| %s | failed_share | ratio | %d/%d | %d/%d | | must be 0 | %d/%d |\n",
			w.name, a.Failed, a.Attempted, c.Failed, c.Attempted, o.Failed, o.Attempted)
	}
	return ok
}
