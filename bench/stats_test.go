package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	cases := []struct{ p, want float64 }{
		{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10}, {99, 10}, {51, 6},
	}
	for _, c := range cases {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2, 6, 5}); got != 3.5 {
		t.Errorf("median of six = %v, want 3.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func at(endMS, latencyMS float64) sample {
	return sample{
		end:     time.Duration(endMS * float64(time.Millisecond)),
		latency: time.Duration(latencyMS * float64(time.Millisecond)),
		first:   time.Duration(latencyMS / 2 * float64(time.Millisecond)),
	}
}

func TestSlicesBinByCompletion(t *testing.T) {
	in := []sample{at(0, 1), at(99.9, 1), at(100, 1), at(250, 1), at(299.9, 1), at(300, 1), at(-1, 1)}
	sl := slices(in, 3, 100*time.Millisecond)
	if got := []int{len(sl[0]), len(sl[1]), len(sl[2])}; got[0] != 2 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("slice sizes %v, want [2 1 2] (the sample at the window's end and the one before its start are dropped)", got)
	}
}

// A stall that ruins one slice must move the reported figure by at most one
// rank of the per-slice values, which is the point of reporting the median
// over slices.
func TestMedianOfSlicesShrugsOffOneBadSlice(t *testing.T) {
	var in []sample
	for s := 0; s < 6; s++ {
		for k := 0; k < 10; k++ {
			lat := 1.0 + float64(s)/10 // slice medians 1.0, 1.1, … 1.5
			if s == 3 {
				lat = 500 // the stalled slice
			}
			in = append(in, at(float64(s)*100+float64(k), lat))
		}
	}
	sl := slices(in, 6, 100*time.Millisecond)
	got := medianOfSlices(sl, latencyPct(50))
	// Per-slice p50: 1.0 1.1 1.2 500 1.4 1.5 → median (1.2+1.4)/2.
	if math.Abs(got-1.3) > 1e-9 {
		t.Errorf("median of slice medians = %v, want 1.3", got)
	}
	if pooled := latencyPct(50)(in); pooled == got {
		t.Errorf("pooled p50 %v should differ from the slice median", pooled)
	}
	if got := medianOfSlices(sl, firstPct(50)); math.Abs(got-0.65) > 1e-9 {
		t.Errorf("first-byte median of slices = %v, want 0.65", got)
	}
}

func TestSliceRatesCreditBoundaryCrossersProportionally(t *testing.T) {
	// Back-to-back 40 ms operations from t=-20 ms on: every 100 ms slice
	// holds 2.5 operations' worth of work however the boundaries fall.
	var in []sample
	for k := 0; k < 12; k++ {
		in = append(in, at(-20+40*float64(k+1), 40))
	}
	got := sliceRates(in, 3, 100*time.Millisecond)
	for i, r := range got {
		if math.Abs(r-25) > 1e-9 {
			t.Errorf("slice %d: %v ops/s, want 25", i, r)
		}
	}
	// Whole operations inside one slice count whole.
	got = sliceRates([]sample{at(10, 5), at(20, 5), at(150, 5)}, 2, 100*time.Millisecond)
	if math.Abs(got[0]-20) > 1e-9 || math.Abs(got[1]-10) > 1e-9 {
		t.Errorf("rates %v, want [20 10]", got)
	}
}

func TestMedianOfSlicesSkipsEmptySlices(t *testing.T) {
	sl := slices([]sample{at(10, 2), at(20, 4)}, 6, 100*time.Millisecond)
	if got := medianOfSlices(sl, latencyPct(50)); got != 2 {
		t.Errorf("got %v, want 2 (five empty slices contribute nothing)", got)
	}
}

// One slow slice must not own the p95: with thin slices a pooled p95 would
// sit inside the slow slice's samples, the median of slice p95s does not.
func TestP95IsTheMedianOfSliceP95s(t *testing.T) {
	var in []sample
	for s := 0; s < 6; s++ {
		for k := 0; k < 20; k++ {
			lat := 50 + float64(k) // 50..69 in every slice: p95 = 68
			if s == 0 {
				lat += 40 // the slice right after warm-up runs slow
			}
			in = append(in, at(float64(s)*100+float64(k), lat))
		}
	}
	sl := slices(in, 6, 100*time.Millisecond)
	if got := medianOfSlices(sl, latencyPct(95)); got != 68 {
		t.Errorf("median of slice p95 = %v, want 68", got)
	}
	if pooled := latencyPct(95)(in); pooled <= 90 {
		t.Errorf("pooled p95 = %v; the test no longer shows what pooling would do", pooled)
	}
	if n := minSliceSamples(sl); n != 20 {
		t.Errorf("smallest slice has %d samples, want 20", n)
	}
	if n := minSliceSamples(slices(in[:30], 6, 100*time.Millisecond)); n != 10 {
		t.Errorf("smallest non-empty slice has %d samples, want 10", n)
	}
}
