package main

import (
	"math"
	"testing"
)

func sp(name string, parent int, start, end float64) span {
	return span{Name: name, Parent: parent, StartUS: start, EndUS: end}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		sp("root", -1, 0, 100),
		sp("a", 0, 200, 230), // replays run after the parent: only their length counts
		sp("b", 0, 230, 250),
		sp("a.1", 1, 300, 310),
	}
	got := selfTimes(spans)
	want := []float64{50, 20, 20, 10}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		sp("root", -1, 0, 100),
		sp("a", 0, 10, 50),
		sp("b", 0, 30, 70), // overlaps a by 20
		sp("c", 0, 80, 90), // disjoint
		sp("d", 0, 35, 40), // inside both
	}
	// Union: [10,70] ∪ [80,90] = 70, not 40+40+10+5.
	if got := selfTimes(spans)[0]; math.Abs(got-30) > 1e-9 {
		t.Errorf("self of root = %v, want 30", got)
	}
}

func TestSelfTimeCanGoNegative(t *testing.T) {
	// A replay slower than the work it stands for is reported, not clamped.
	spans := []span{sp("root", -1, 0, 10), sp("slow replay", 0, 20, 45)}
	if got := selfTimes(spans)[0]; got != -15 {
		t.Errorf("self = %v, want -15", got)
	}
}

func TestLayerMediansAcrossRequests(t *testing.T) {
	var spans []span
	for req, d := range []float64{10, 30, 20} {
		root := len(spans)
		s := sp("q", -1, 0, d)
		s.Req = req
		spans = append(spans, s)
		c := sp("q.child", root, 100, 100+d/2)
		c.Req = req
		c.Counts = map[string]float64{"docs": d}
		spans = append(spans, c)
	}
	dur, self := layerMedians(spans)
	if dur["q"] != 20 || dur["q.child"] != 10 || self["q"] != 10 || self["q.child"] != 10 {
		t.Errorf("dur %v self %v", dur, self)
	}
	if got := countMedians(spans, "q.child")["docs"]; got != 20 {
		t.Errorf("median count = %v, want 20", got)
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.record("root", 7, -1, func() {})
	kid := tr.add("kid", 7, root, 12.5)
	tr.count(kid, "n", 3)
	if len(tr.spans) != 2 || tr.spans[kid].Parent != root || tr.spans[kid].Req != 7 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if d := tr.spans[kid].dur(); math.Abs(d-12.5) > 1e-9 {
		t.Errorf("added span lasts %v, want 12.5", d)
	}
	if tr.spans[root].EndUS < tr.spans[root].StartUS {
		t.Error("recorded span ends before it starts")
	}
}
