package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of vals by the
// nearest-rank rule on a sorted copy: the smallest value with at least p% of
// the sample at or below it. An empty sample yields 0.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile with the even-count midpoint rule (mean of
// the two central values), so the median of six slices is well defined.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one completed operation inside the measured window.
type sample struct {
	end     time.Duration // completion time, relative to the window start
	latency time.Duration // send → last body byte
	first   time.Duration // send → first body byte
}

// slices cuts the window [0, n·slice) into n consecutive slices and bins the
// samples by completion time; samples outside the window are dropped.
func slices(samples []sample, n int, slice time.Duration) [][]sample {
	out := make([][]sample, n)
	for _, s := range samples {
		if s.end < 0 {
			continue
		}
		i := int(s.end / slice)
		if i < n {
			out[i] = append(out[i], s)
		}
	}
	return out
}

// sliceRates returns the completion rate of every slice in operations per
// second. An operation that runs across a slice boundary is credited to each
// slice in proportion to the part of its duration spent there, so a slice
// holding two dozen 55 ms requests does not report its rate in steps of one
// whole request.
func sliceRates(samples []sample, n int, slice time.Duration) []float64 {
	credit := make([]float64, n)
	for _, s := range samples {
		start, end := s.end-s.latency, s.end
		if s.latency <= 0 {
			continue
		}
		for i := 0; i < n; i++ {
			lo, hi := time.Duration(i)*slice, time.Duration(i+1)*slice
			if start > lo {
				lo = start
			}
			if end < hi {
				hi = end
			}
			if hi > lo {
				credit[i] += float64(hi-lo) / float64(s.latency)
			}
		}
	}
	for i := range credit {
		credit[i] /= slice.Seconds()
	}
	return credit
}

// medianOfSlices applies stat to every non-empty slice and returns the median
// of the per-slice values: one stalled slice moves one of n inputs to the
// median, not the result.
func medianOfSlices(sl [][]sample, stat func([]sample) float64) float64 {
	var per []float64
	for _, s := range sl {
		if len(s) > 0 {
			per = append(per, stat(s))
		}
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func latencyPct(p float64) func([]sample) float64 {
	return func(s []sample) float64 {
		v := make([]float64, len(s))
		for i := range s {
			v[i] = ms(s[i].latency)
		}
		return percentile(v, p)
	}
}

func firstPct(p float64) func([]sample) float64 {
	return func(s []sample) float64 {
		v := make([]float64, len(s))
		for i := range s {
			v[i] = ms(s[i].first)
		}
		return percentile(v, p)
	}
}

// minSlicePct is the per-slice sample count a 95th percentile wants (ten
// samples beyond it). Slower workloads have thinner slices; their p95 is
// still the median of the slice p95s — a pooled p95 would let one slow slice
// own every sample above the 95th — and the smallest slice's count is
// reported beside it.
const minSlicePct = 200

// minSliceSamples returns the size of the smallest non-empty slice.
func minSliceSamples(sl [][]sample) int {
	minN := 0
	for _, s := range sl {
		if len(s) > 0 && (minN == 0 || len(s) < minN) {
			minN = len(s)
		}
	}
	return minN
}
