package main

import (
	"bytes"
	"testing"

	"repro/internal/datagen"
)

func requestList(w *workload, seed int64, n int) [][]byte {
	gen := datagen.DefaultConfig(300)
	gen.Seed = seed
	p := newPool(w, datagen.Generate(gen), seed)
	out := make([][]byte, n)
	for i := range out {
		_, out[i] = p.at(i)
	}
	return out
}

func TestRequestPoolIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := requestList(w, 11, 500), requestList(w, 11, 500), requestList(w, 12, 500)
		same := 0
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two pools of seed 11:\n%s\n%s", w.name, i, a[i], b[i])
			}
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if len(a) != len(c) {
			t.Fatalf("%s: list sizes differ across seeds", w.name)
		}
		// One-class workloads (scan_select, stream_first, join_sim) send the
		// same pattern whatever the seed; their inputs differ by corpus.
		oneClass := len(newPool(w, corpusForTest(11), 11).classes) == 1
		if !oneClass && same == len(a) {
			t.Errorf("%s: seeds 11 and 12 give the same request list", w.name)
		}
	}
}

func corpusForTest(seed int64) *datagen.Corpus {
	gen := datagen.DefaultConfig(300)
	gen.Seed = seed
	return datagen.Generate(gen)
}

func TestPoolSizesDoNotDependOnSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := newPool(w, corpusForTest(11), 11), newPool(w, corpusForTest(12), 12)
		// Typo literals of two authors can coincide, so the similarity pools
		// may lose a handful of classes to de-duplication.
		if d := len(a.classes) - len(b.classes); d > 8 || d < -8 {
			t.Errorf("%s: %d classes on seed 11, %d on seed 12", w.name, len(a.classes), len(b.classes))
		}
		if len(a.order) != len(a.classes) {
			t.Errorf("%s: order covers %d of %d classes", w.name, len(a.order), len(a.classes))
		}
	}
}

func TestRepeatedRequestsStayBackToBack(t *testing.T) {
	w := workloadByName("mixed_rw")
	p := newPool(w, corpusForTest(11), 11)
	for g := 0; g < 50; g++ {
		_, first := p.at(g * w.repeat)
		for k := 1; k < w.repeat; k++ {
			if _, b := p.at(g*w.repeat + k); !bytes.Equal(first, b) {
				t.Fatalf("group %d: send %d differs from the group's first", g, k)
			}
		}
		if _, next := p.at((g + 1) * w.repeat); bytes.Equal(first, next) {
			t.Fatalf("group %d and %d send the same request", g, g+1)
		}
	}
}

func TestEveryRequestOfAMissWorkloadIsDistinct(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.repeat != 1 {
			continue
		}
		seen := map[string]bool{}
		for _, b := range requestList(w, 11, 2000) {
			if seen[string(b)] {
				t.Fatalf("%s: request sent twice: %s", w.name, b)
			}
			seen[string(b)] = true
		}
	}
}
