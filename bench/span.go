package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test carries no tracing of its own yet). Spans of
// one request share Req; Parent is the index of the span whose work this one
// is part of, -1 for the request's root. The children of a span are replays
// of its parts run after it on the same System, so their intervals lie
// outside the parent's: self time subtracts how long the children ran, not
// where.
type span struct {
	Name    string             `json:"name"`
	Req     int                `json:"req"`
	Parent  int                `json:"parent"`
	StartUS float64            `json:"start_us"`
	EndUS   float64            `json:"end_us"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

// tracer keeps spans in memory; the traced run writes them out at exit.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record times fn as a span and returns the span's index.
func (t *tracer) record(name string, req, parent int, fn func()) int {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, StartUS: us(start), EndUS: us(end)})
	return len(t.spans) - 1
}

// add records a span whose duration was measured elsewhere (a sum of
// several calls, or a difference of two), starting now.
func (t *tracer) add(name string, req, parent int, durUS float64) int {
	start := us(time.Since(t.t0))
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, StartUS: start, EndUS: start + durUS})
	return len(t.spans) - 1
}

func (t *tracer) count(id int, key string, v float64) {
	if t.spans[id].Counts == nil {
		t.spans[id].Counts = map[string]float64{}
	}
	t.spans[id].Counts[key] = v
}

// selfTimes returns, per span, its duration minus the time its direct
// children cover. Overlapping children are counted once (the union of their
// intervals), so concurrent children cannot drive a parent's self time
// below what sequential ones would.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartUS, s.EndUS})
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - unionLength(kids[i])
	}
	return out
}

func unionLength(iv [][2]float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := 0.0
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// layerMedians groups span durations and self times by name and returns the
// median of each across requests.
func layerMedians(spans []span) (dur, self map[string]float64) {
	selfs := selfTimes(spans)
	durs := map[string][]float64{}
	sf := map[string][]float64{}
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.dur())
		sf[s.Name] = append(sf[s.Name], selfs[i])
	}
	dur, self = map[string]float64{}, map[string]float64{}
	for name, v := range durs {
		dur[name] = median(v)
		self[name] = median(sf[name])
	}
	return dur, self
}

// countMedians returns the median of every count key recorded on spans of
// the given name.
func countMedians(spans []span, name string) map[string]float64 {
	vals := map[string][]float64{}
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		for k, v := range s.Counts {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}
