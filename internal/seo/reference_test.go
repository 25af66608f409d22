package seo

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ontology"
	"repro/internal/similarity"
)

// refEnhance is SEA as a direct transcription of Definition 8: the
// similarity scan measures every node pair and then applies the order
// compatibility filter, and the order lift first records a verdict for every
// ordered cluster pair with some member below some member, then applies the
// verdicts in canonical order. Enhance must produce the same SEO, error and
// dropped edges.
func refEnhance(h *ontology.Hierarchy, d similarity.Measure, eps float64, opts Options) (*SEO, error) {
	nodes := h.Nodes()
	adj := make([]map[int]bool, len(nodes))
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if !nodeWithin(d, opts.nodeStrings(nodes[i]), opts.nodeStrings(nodes[j]), eps, opts.DisableLemma1) {
				continue
			}
			if opts.CompatibilityFilter && !refOrderCompatible(h, nodes[i], nodes[j]) {
				continue
			}
			adj[i][j] = true
			adj[j][i] = true
		}
	}
	var cliques [][]string
	for _, cl := range refMaximalCliques(adj) {
		ms := make([]string, len(cl))
		for k, i := range cl {
			ms[k] = nodes[i]
		}
		sort.Strings(ms)
		cliques = append(cliques, ms)
	}
	sort.Slice(cliques, func(i, j int) bool {
		a, b := cliques[i], cliques[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})

	s := &SEO{
		Hierarchy:   ontology.NewHierarchy(),
		Clusters:    map[string][]string{},
		Mu:          map[string][]string{},
		Epsilon:     eps,
		MeasureName: d.Name(),
	}
	names := make([]string, len(cliques))
	used := map[string]int{}
	for ci, ms := range cliques {
		name := ms[0]
		if n := used[name]; n > 0 {
			name = fmt.Sprintf("%s#%d", ms[0], n)
		}
		used[ms[0]]++
		names[ci] = name
		s.Clusters[name] = ms
		s.Hierarchy.AddNode(name)
		for _, m := range ms {
			s.Mu[m] = append(s.Mu[m], name)
		}
	}
	for _, v := range s.Mu {
		sort.Strings(v)
	}
	type verdict struct {
		ok     bool
		wa, wb string
	}
	lift := map[[2]int]verdict{}
	for i := range cliques {
		for j := range cliques {
			if i == j || !refExistsLeq(h, cliques[i], cliques[j]) {
				continue
			}
			v := verdict{ok: true}
			if a, b, ok := allLeq(h, cliques[i], cliques[j]); !ok {
				v = verdict{wa: a, wb: b}
			}
			lift[[2]int{i, j}] = v
		}
	}
	for i := range cliques {
		for j := range cliques {
			v, ok := lift[[2]int{i, j}]
			if !ok {
				continue
			}
			if !v.ok {
				if !opts.Relaxed {
					return nil, &InconsistencyError{Reason: fmt.Sprintf(
						"edge %s -> %s requires %s <= %s in the base hierarchy, which does not hold",
						names[i], names[j], v.wa, v.wb)}
				}
				s.Dropped = append(s.Dropped, DroppedEdge{From: names[i], To: names[j], WitnessA: v.wa, WitnessB: v.wb})
				continue
			}
			if err := s.Hierarchy.AddEdge(names[i], names[j]); err != nil {
				if !opts.Relaxed {
					return nil, &InconsistencyError{Reason: fmt.Sprintf("enhanced hierarchy is cyclic: %v", err)}
				}
				s.Dropped = append(s.Dropped, DroppedEdge{From: names[i], To: names[j]})
			}
		}
	}
	s.Hierarchy.TransitiveReduction()
	return s, nil
}

func refExistsLeq(h *ontology.Hierarchy, as, bs []string) bool {
	for _, a := range as {
		for _, b := range bs {
			if a != b && h.Leq(a, b) {
				return true
			}
		}
	}
	return false
}

// refOrderCompatible compares Above and Below sets, ignoring a and b.
func refOrderCompatible(h *ontology.Hierarchy, a, b string) bool {
	without := func(s []string) []string {
		var out []string
		for _, v := range s {
			if v != a && v != b {
				out = append(out, v)
			}
		}
		return out
	}
	return reflect.DeepEqual(without(h.Above(a)), without(h.Above(b))) &&
		reflect.DeepEqual(without(h.Below(a)), without(h.Below(b)))
}

// refMaximalCliques is plain Bron–Kerbosch without pivoting over the whole
// graph.
func refMaximalCliques(adj []map[int]bool) [][]int {
	var out [][]int
	var bk func(r, p, x []int)
	bk = func(r, p, x []int) {
		if len(p) == 0 && len(x) == 0 {
			out = append(out, append([]int(nil), r...))
			return
		}
		for len(p) > 0 {
			v := p[0]
			var p2, x2 []int
			for _, u := range p {
				if adj[v][u] {
					p2 = append(p2, u)
				}
			}
			for _, u := range x {
				if adj[v][u] {
					x2 = append(x2, u)
				}
			}
			bk(append(r, v), p2, x2)
			p = p[1:]
			x = append(x, v)
		}
	}
	all := make([]int, len(adj))
	for i := range all {
		all[i] = i
	}
	bk(nil, all, nil)
	return out
}

// referenceTerms mixes person names (initials, dropped middles,
// concatenations, near-miss surnames) with short terms that edit-distance
// measures cluster.
var referenceTerms = []string{
	"John Smith", "J. Smith", "John D. Smith", "Jon Smith", "John Smyth",
	"John SmithJr", "John Smith Jr", "Mary Jones", "M. Jones", "Mary Jone",
	"José Müller", "Jose Muller", "model", "models", "modal", "relation",
	"relational", "date", "name", "ab", "abc", "ca", "ac",
}

// randomReferenceCase draws a hierarchy over up to 14 distinct terms (some
// nodes holding several strings), a measure and an epsilon.
func randomReferenceCase(r *rand.Rand) (*ontology.Hierarchy, similarity.Measure, float64, map[string][]string) {
	h := ontology.NewHierarchy()
	perm := r.Perm(len(referenceTerms))
	nodes := perm[:2+r.Intn(13)]
	for _, i := range nodes {
		h.AddNode(referenceTerms[i])
	}
	for e := r.Intn(2 * len(nodes)); e > 0; e-- {
		_ = h.AddEdge(referenceTerms[nodes[r.Intn(len(nodes))]], referenceTerms[nodes[r.Intn(len(nodes))]])
	}
	strs := map[string][]string{}
	for _, i := range nodes {
		if r.Intn(4) == 0 {
			n := referenceTerms[i]
			strs[n] = []string{n, referenceTerms[r.Intn(len(referenceTerms))]}
		}
	}
	measures := []similarity.Measure{
		similarity.Levenshtein{},
		similarity.Damerau{},
		similarity.NameRule{Fallback: similarity.Damerau{}},
		similarity.ByName("jaro"),
	}
	return h, measures[r.Intn(len(measures))], float64(r.Intn(7)) / 2, strs
}

// TestEnhanceMatchesReference: signature blocking and the candidate-driven
// lift change no SEO, no dropped edge and no error, in strict and relaxed
// mode, with and without the compatibility filter.
func TestEnhanceMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h, d, eps, strs := randomReferenceCase(r)
		for _, opts := range []Options{
			{}, {Relaxed: true}, {CompatibilityFilter: true}, {CompatibilityFilter: true, Relaxed: true},
		} {
			opts.Strings = strs
			want, wantErr := refEnhance(h, d, eps, opts)
			got, gotErr := Enhance(h, d, eps, opts)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Logf("seed %d %s eps %g %+v: error %v, reference %v", seed, d.Name(), eps, opts, gotErr, wantErr)
				return false
			}
			if wantErr != nil {
				continue
			}
			if got.String() != want.String() || !reflect.DeepEqual(got.Dropped, want.Dropped) {
				t.Logf("seed %d %s eps %g %+v:\ngot\n%s%v\nreference\n%s%v", seed, d.Name(), eps, opts, got, got.Dropped, want, want.Dropped)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
