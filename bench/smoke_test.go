package main

import (
	"math"
	"testing"
)

func TestManifestDeclaresWhatTheBenchmarkEmits(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the benchmark runs %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(man.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest lists %d end-to-end metrics, the benchmark emits %d", len(man.EndToEnd), len(endToEnd))
	}
	for i, e := range man.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: manifest %s [%s], benchmark %s [%s]", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Bound > man.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v above setup_s's, which must be the largest", e.Name, e.Bound)
		}
	}
	if man.EndToEnd[0].Name != "setup_s" {
		t.Errorf("first end-to-end metric is %q, want setup_s", man.EndToEnd[0].Name)
	}
	if len(man.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d per-layer metrics, the benchmark emits %d", len(man.PerLayer), len(perLayer))
	}
	for i, p := range man.PerLayer {
		if p.Name != perLayer[i].name || p.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: manifest %s [%s], benchmark %s [%s]", i, p.Name, p.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload end to end and traced on a small corpus with
// a 300 ms window: every declared metric must come out finite and no
// operation may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs every workload")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{w: w, seed: defaultSeed, seconds: 0.3, papers: 300, workdir: t.TempDir(), setUps: 1, traceN: 6}
			for _, traced := range []bool{false, true} {
				run, defs := runEndToEnd, endToEnd
				if traced {
					run, defs = runTraced, perLayer
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: %d failed of %d attempted: %v", traced, res.Failed, res.Attempted, res.Info["errors"])
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("traced=%v: metric %s = %v (emitted: %v)", traced, d.name, v, ok)
					}
					if !traced && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.name, v)
					}
				}
			}
		})
	}
}
