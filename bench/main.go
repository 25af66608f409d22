// Command bench is the repository's benchmark: seven wire-level workloads
// against an in-process tossd (or tossrouter + 3 nodes) on loopback, ten
// end-to-end metrics per workload, and a per-layer ladder measured from
// outside by timing calls into each layer's exported functions. See
// README.md in this directory.
//
//	go run ./bench                       every workload, untraced then traced, one seed
//	go run ./bench -workload W -trace 0  one workload, end-to-end metrics
//	go run ./bench -workload W -trace 1  one workload, per-layer metrics
//	go run ./bench -selfcheck            the full set twice plus a second seed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/xmldb"
)

// endToEnd lists the end-to-end metrics with their units, in report order.
// failed_share, the tenth, is reported from the attempted and failed counts:
// it must be 0, so it has no relative bound and no entry in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"first_result_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of standard output of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); empty runs the full set")
	seed := flag.Int64("seed", defaultSeed, "workload seed: corpus, request pool and send order derive from it")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end window")
	selfcheck := flag.Bool("selfcheck", false, "run the full set twice on one seed and once on a second, and compare against the bounds")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for traces, summaries and the mixed_rw WAL")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{seconds: *seconds, out: *out, papers: corpusPapers}
	switch {
	case *selfcheck:
		if !b.selfcheck(*seed) {
			os.Exit(1)
		}
	case *workloadName == "":
		if _, ok := b.fullSet(*seed, true); !ok {
			os.Exit(1)
		}
	default:
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workloadName, strings.Join(workloadNames(), ", ")))
		}
		res, err := b.run(w, *seed, *trace != 0)
		if err != nil {
			fatal(err)
		}
		b.report(res)
		defs := endToEnd
		if res.Trace {
			defs = perLayer
		}
		line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
		for _, d := range defs {
			line.Metrics[d.name] = metricValue{Value: res.Metrics[d.name], Unit: d.unit}
		}
		enc, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(enc))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// bench carries what every run of one invocation shares.
type bench struct {
	seconds float64
	out     string
	papers  int
}

func (b *bench) run(w *workload, seed int64, traced bool) (*result, error) {
	cfg := runConfig{w: w, seed: seed, seconds: b.seconds, papers: b.papers, workdir: b.out, setUps: setUpsPerRun}
	var res *result
	var err error
	if traced {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", w.name, name)
		}
	}
	res.Info["env"] = environment(cfg)
	return res, nil
}

// environment is emitted with every result: what the numbers depend on
// besides the code.
func environment(cfg runConfig) map[string]any {
	sc := serverConfig()
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       cfg.seed,
		"papers":     cfg.papers,
		"window_s":   cfg.seconds,
		"slice_s":    cfg.slice().Seconds(),
		"warmup_s":   cfg.slice().Seconds(),
		"slices":     windowSlices,
		"set_ups":    cfg.setUps,
		"clients":    cfg.w.readers,
		"loop":       "closed",
		"server": map[string]any{
			"shards": runtime.GOMAXPROCS(0), "max_inflight": sc.MaxInFlight, "max_queue": sc.MaxQueue,
			"cache_size": sc.CacheSize, "timeout_s": sc.DefaultTimeout.Seconds(), "adaptive": true,
			"measure": "name-rule", "eps": epsilon, "wal_sync": xmldb.SyncInterval.String(), "wal_max_bytes": 4 << 20,
		},
	}
}

// commit names the code measured, from the VCS stamp `go build` leaves in
// the binary; a checkout that is not a git repository has none.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// report prints one run for a person: every metric by name with its unit,
// on standard error so the driver's line stays the last of standard output.
func (b *bench) report(res *result) {
	kind := "end-to-end"
	defs := endToEnd
	if res.Trace {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(os.Stderr, "== %s  seed %d  %s\n", res.Workload, res.Seed, kind)
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	fmt.Fprintf(os.Stderr, "  %-34s %14.4f ratio  (%d failed of %d attempted)\n", "failed_share",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		if k != "env" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  . %s = %v\n", k, res.Info[k])
	}
}
