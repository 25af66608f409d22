// Package seo implements similarity enhanced ontologies (Section 4.3 of the
// paper): the node similarity measure d over sets of strings (with the
// Lemma 1 shortcut for strong measures), the SEA algorithm of Figure 12 that
// clusters ε-similar hierarchy nodes into SEO nodes while preserving the
// partial order, similarity-consistency checking (Definition 9), and the
// structural-equivalence test behind Theorem 1.
package seo

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/ontology"
	"repro/internal/similarity"
)

// SEO is a similarity enhancement (H', μ) of a hierarchy H. Its nodes are
// clusters of H-nodes (each cluster a maximal set of pairwise ε-similar
// nodes, per conditions (2)–(4) of Definition 8); its hierarchy lifts H's
// partial order to clusters (condition (1)).
type SEO struct {
	// Hierarchy is H', a DAG over cluster names.
	Hierarchy *ontology.Hierarchy
	// Clusters maps a cluster name to the sorted H-node names it contains
	// (= μ⁻¹ of the cluster).
	Clusters map[string][]string
	// Mu maps each H-node to the sorted cluster names containing it (μ).
	Mu map[string][]string
	// Epsilon and MeasureName record the parameters the SEO was built with.
	Epsilon     float64
	MeasureName string
	// Dropped lists order edges that relaxed construction removed because
	// the converse of condition (1) failed; empty for strict construction.
	Dropped []DroppedEdge
}

// DroppedEdge records an H'-edge removed in relaxed mode, with one witness
// pair of H-nodes whose order the edge would have fabricated.
type DroppedEdge struct {
	From, To           string
	WitnessA, WitnessB string
}

// InconsistencyError reports similarity inconsistency (Definition 9): no
// similarity enhancement of H exists for the given measure and ε.
type InconsistencyError struct {
	Reason string
}

func (e *InconsistencyError) Error() string {
	return "seo: similarity inconsistent: " + e.Reason
}

// Options configures Enhance.
type Options struct {
	// Strings gives the set of strings contained in each H-node (fused
	// nodes merge several source terms). Nil means every node contains
	// exactly its own name.
	Strings map[string][]string
	// Relaxed makes construction drop (and record) H'-edges that violate
	// the converse of condition (1) instead of failing. The paper's strict
	// definition corresponds to Relaxed=false.
	Relaxed bool
	// CompatibilityFilter restricts clustering to order-compatible node
	// pairs: A and B may share a cluster only when their ancestor sets and
	// descendant sets in H coincide (ignoring one another). Under this
	// filter a similarity enhancement always exists — every H'-edge's
	// all-pairs order requirement holds by construction and no cycles can
	// arise — so inconsistency failures disappear. Formally this evaluates
	// SEA under the order-aware measure d'(A,B) = d(A,B) when A,B are
	// order-compatible and ∞ otherwise; it is how the production TOSS
	// pipeline avoids Definition 9 inconsistencies on real vocabularies
	// (e.g. Levenshtein("date","name") = 3 must not merge a temporal and a
	// naming concept).
	CompatibilityFilter bool
	// DisableLemma1 forces the full min-over-pairs node distance even for
	// strong measures; used by the Lemma 1 ablation benchmark.
	DisableLemma1 bool
}

// NodeDistance computes d(A, B) = min over cross pairs of contained strings
// (Definition 7's node measure). For strong measures over single-string
// nodes this is a single string comparison (Lemma 1).
func NodeDistance(d similarity.Measure, sa, sb []string) float64 {
	if len(sa) == 0 || len(sb) == 0 {
		return math.Inf(1)
	}
	if d.Strong() && len(sa) == 1 && len(sb) == 1 {
		return d.Distance(sa[0], sb[0])
	}
	best := math.Inf(1)
	for _, x := range sa {
		for _, y := range sb {
			if v := d.Distance(x, y); v < best {
				best = v
			}
		}
	}
	return best
}

// nodeWithin reports d(A,B) ≤ eps with lower-bound pruning.
func nodeWithin(d similarity.Measure, sa, sb []string, eps float64, noLemma1 bool) bool {
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if !noLemma1 && d.Strong() && len(sa) == 1 && len(sb) == 1 {
		return similarity.Within(d, sa[0], sb[0], eps)
	}
	for _, x := range sa {
		for _, y := range sb {
			if similarity.Within(d, x, y, eps) {
				return true
			}
		}
	}
	return false
}

// Enhance runs the SEA algorithm on hierarchy h with measure d and threshold
// eps. It returns the unique (up to renaming, Theorem 1) similarity
// enhancement, or an *InconsistencyError when none exists and opts.Relaxed
// is false.
func Enhance(h *ontology.Hierarchy, d similarity.Measure, eps float64, opts Options) (*SEO, error) {
	ord := newOrderSets(h)
	nodes := ord.nodes

	// Similarity graph: undirected edge A—B iff d(A,B) ≤ eps, measured only
	// on the pairs the compatibility filter (if on) lets through.
	adj := make([]map[int]bool, len(nodes))
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	var cand []int
	for i := range nodes {
		si := opts.nodeStrings(nodes[i])
		cand = ord.candidates(i, opts.CompatibilityFilter, cand[:0])
		for _, j := range cand {
			if j > i && nodeWithin(d, si, opts.nodeStrings(nodes[j]), eps, opts.DisableLemma1) {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}

	// S'' = maximal cliques of the similarity graph (conditions (2)–(4)):
	// every member pair is ≤ eps apart (2); every ≤-eps pair co-occurs in
	// some clique (3); maximality rules out redundant subsets (4).
	members := maximalCliques(nodes, adj)
	sortClusterLists(members)
	return assemble(h, ord, members, d, eps, opts)
}

// nodeStrings returns the strings H-node n contains.
func (o Options) nodeStrings(n string) []string {
	if s := o.Strings[n]; len(s) > 0 {
		return s
	}
	return []string{n}
}

// sortClusterLists orders member lists lexicographically (each list already
// sorted), making cluster naming and edge processing independent of clique
// enumeration order — the invariant that lets the incremental Recluster
// reproduce a from-scratch Enhance byte for byte.
func sortClusterLists(ms [][]string) {
	slices.SortFunc(ms, slices.Compare[[]string])
}

// assemble builds the SEO for a fixed, canonically sorted cluster set:
// naming, order lifting with the converse-of-(1)/acyclicity checks, and
// transitive reduction. ord holds h's order sets.
func assemble(h *ontology.Hierarchy, ord *orderSets, cliques [][]string, d similarity.Measure, eps float64, opts Options) (*SEO, error) {
	s := &SEO{
		Hierarchy:   ontology.NewHierarchy(),
		Clusters:    map[string][]string{},
		Mu:          map[string][]string{},
		Epsilon:     eps,
		MeasureName: d.Name(),
	}
	names := make([]string, len(cliques))
	of := make([][]int, len(ord.nodes)) // H-node → clusters containing it, ascending
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
			of[ord.idx[m]] = append(of[ord.idx[m]], ci)
		}
	}
	for _, v := range s.Mu {
		sort.Strings(v)
	}

	// Order lifting (condition (1) forward direction): cluster C1 precedes
	// C2 whenever some member of C1 lies strictly below some member of C2
	// in H, so C2 contains a strict ancestor of a C1 member. Candidates come
	// in ascending order, which fixes the order of the acyclicity checks and
	// of Dropped.
	seen := make([]int, len(cliques)) // seen[j] == i+1: j is already a candidate of i
	var cand []int
	for i, ms := range cliques {
		cand = cand[:0]
		for _, m := range ms {
			for _, b := range ord.above[ord.idx[m]] {
				for _, j := range of[b] {
					if j != i && seen[j] != i+1 {
						seen[j] = i + 1
						cand = append(cand, j)
					}
				}
			}
		}
		sort.Ints(cand)
		for _, j := range cand {
			// Converse of condition (1): every member pair must be ordered.
			if wa, wb, ok := allLeq(h, ms, cliques[j]); !ok {
				if !opts.Relaxed {
					return nil, &InconsistencyError{Reason: fmt.Sprintf(
						"edge %s -> %s requires %s <= %s in the base hierarchy, which does not hold",
						names[i], names[j], wa, wb)}
				}
				s.Dropped = append(s.Dropped, DroppedEdge{From: names[i], To: names[j], WitnessA: wa, WitnessB: wb})
				continue
			}
			if err := s.Hierarchy.AddEdge(names[i], names[j]); err != nil {
				if !opts.Relaxed {
					return nil, &InconsistencyError{Reason: fmt.Sprintf(
						"enhanced hierarchy is cyclic: %v", err)}
				}
				s.Dropped = append(s.Dropped, DroppedEdge{From: names[i], To: names[j]})
			}
		}
	}
	s.Hierarchy.TransitiveReduction()
	return s, nil
}

// allLeq checks a ≤ b for every pair; on failure it returns the witness pair.
func allLeq(h *ontology.Hierarchy, as, bs []string) (string, string, bool) {
	for _, a := range as {
		for _, b := range bs {
			if !h.Leq(a, b) {
				return a, b, false
			}
		}
	}
	return "", "", true
}

// Similar reports whether H-nodes a and b are deemed similar by this SEO:
// per Definition 8 condition (3)/(2), iff some cluster contains both.
func (s *SEO) Similar(a, b string) bool {
	if a == b {
		return len(s.Mu[a]) > 0
	}
	ca, cb := s.Mu[a], s.Mu[b]
	// Both lists are sorted; intersect.
	i, j := 0, 0
	for i < len(ca) && j < len(cb) {
		switch {
		case ca[i] == cb[j]:
			return true
		case ca[i] < cb[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// SimilarTo returns the sorted set of H-nodes sharing a cluster with a
// (including a itself when present).
func (s *SEO) SimilarTo(a string) []string {
	set := map[string]bool{}
	for _, c := range s.Mu[a] {
		for _, m := range s.Clusters[c] {
			set[m] = true
		}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Leq lifts the base order through the SEO: a ≤' b iff some cluster of a
// reaches some cluster of b in H' (length ≥ 0). This is the reachability the
// TOSS isa/below conditions consult.
func (s *SEO) Leq(a, b string) bool {
	for _, ca := range s.Mu[a] {
		for _, cb := range s.Mu[b] {
			if s.Hierarchy.Leq(ca, cb) {
				return true
			}
		}
	}
	return false
}

// NodeCount returns the number of SEO clusters.
func (s *SEO) NodeCount() int { return len(s.Clusters) }

// String renders cluster memberships and the lifted order.
func (s *SEO) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Clusters))
	for n := range s.Clusters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s = {%s}\n", n, strings.Join(s.Clusters[n], ", "))
	}
	b.WriteString(s.Hierarchy.String())
	return b.String()
}

// maximalCliques enumerates all maximal cliques of the undirected graph
// given by adj over vertices 0..len-1, returning each as the sorted list of
// its vertices' names. It runs Bron–Kerbosch with pivoting on one connected
// component at a time, so no scan spans the whole graph.
func maximalCliques(names []string, adj []map[int]bool) [][]string {
	var out [][]string
	neighboursIn := func(v int, s []int) []int {
		var in []int
		for _, u := range s {
			if adj[v][u] {
				in = append(in, u)
			}
		}
		return in
	}
	var bk func(r, p, x []int)
	bk = func(r, p, x []int) {
		if len(p) == 0 && len(x) == 0 {
			ms := make([]string, len(r))
			for k, i := range r {
				ms[k] = names[i]
			}
			sort.Strings(ms)
			out = append(out, ms)
			return
		}
		// Pivot: vertex of P ∪ X with most neighbours in P.
		pivot, best := -1, -1
		for _, v := range slices.Concat(p, x) {
			n := 0
			for _, u := range p {
				if adj[v][u] {
					n++
				}
			}
			if n > best {
				best, pivot = n, v
			}
		}
		var cand []int
		for _, v := range p {
			if !adj[pivot][v] {
				cand = append(cand, v)
			}
		}
		for _, v := range cand {
			bk(append(r, v), neighboursIn(v, p), neighboursIn(v, x))
			p = slices.DeleteFunc(p, func(u int) bool { return u == v })
			x = append(x, v)
		}
	}
	seen := make([]bool, len(adj))
	for v := range adj {
		if seen[v] {
			continue
		}
		seen[v] = true
		comp := []int{v}
		for k := 0; k < len(comp); k++ {
			for u := range adj[comp[k]] {
				if !seen[u] {
					seen[u] = true
					comp = append(comp, u)
				}
			}
		}
		slices.Sort(comp)
		bk(nil, comp, nil)
	}
	return out
}

// orderSets is H's partial order as node indices, computed once per
// Enhance, Recluster or Verify: for each node (in Nodes() order) its strict
// ancestors and strict descendants, ascending, and its order signature
// group — the nodes with the same strict ancestors and strict descendants.
type orderSets struct {
	nodes        []string
	idx          map[string]int
	above, below [][]int
	group        []int   // group[i] indexes groups
	groups       [][]int // each ascending
}

func newOrderSets(h *ontology.Hierarchy) *orderSets {
	nodes := h.Nodes()
	o := &orderSets{
		nodes: nodes,
		idx:   make(map[string]int, len(nodes)),
		above: make([][]int, len(nodes)),
		below: make([][]int, len(nodes)),
		group: make([]int, len(nodes)),
	}
	for i, n := range nodes {
		o.idx[n] = i
	}
	for i, n := range nodes {
		for _, a := range h.Above(n) { // sorted like nodes, so indices ascend
			if a != n {
				o.above[i] = append(o.above[i], o.idx[a])
			}
		}
	}
	for i := range nodes {
		for _, a := range o.above[i] {
			o.below[a] = append(o.below[a], i)
		}
	}
	// Signature groups are the runs of equal (above, below) pairs in a
	// stable sort, so each group stays ascending.
	sig := func(i, j int) int {
		if c := slices.Compare(o.above[i], o.above[j]); c != 0 {
			return c
		}
		return slices.Compare(o.below[i], o.below[j])
	}
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, sig)
	for k, i := range order {
		if k == 0 || sig(order[k-1], i) != 0 {
			o.groups = append(o.groups, nil)
		}
		o.group[i] = len(o.groups) - 1
		o.groups[o.group[i]] = append(o.groups[o.group[i]], i)
	}
	return o
}

// compatible reports whether nodes i and j occupy the same position in H's
// partial order: their ancestor sets and descendant sets agree once i and j
// themselves are ignored. Clusters of pairwise order-compatible nodes can
// never fabricate or lose order, which is what makes CompatibilityFilter
// enhancement always consistent.
func (o *orderSets) compatible(i, j int) bool {
	return equalIgnoring(o.above[i], o.above[j], i, j) && equalIgnoring(o.below[i], o.below[j], i, j)
}

// candidates appends to buf the nodes j ≠ i whose similarity to i SEA must
// measure: all of them without the compatibility filter, only the
// order-compatible ones with it. Unordered nodes are compatible exactly when
// they share an order signature. An ordered compatible pair has nothing
// between its nodes, so it is a direct edge whose lower node has one more
// strict ancestor and one fewer strict descendant than its upper node.
func (o *orderSets) candidates(i int, filter bool, buf []int) []int {
	if !filter {
		for j := range o.nodes {
			if j != i {
				buf = append(buf, j)
			}
		}
		return buf
	}
	for _, j := range o.groups[o.group[i]] {
		if j != i {
			buf = append(buf, j)
		}
	}
	edge := func(lo, hi int) bool {
		return len(o.above[lo]) == len(o.above[hi])+1 && len(o.below[hi]) == len(o.below[lo])+1 && o.compatible(lo, hi)
	}
	for _, j := range o.above[i] {
		if edge(i, j) {
			buf = append(buf, j)
		}
	}
	for _, j := range o.below[i] {
		if edge(j, i) {
			buf = append(buf, j)
		}
	}
	return buf
}

// equalIgnoring compares two ascending index lists for equality after
// removing x and y from both.
func equalIgnoring(s1, s2 []int, x, y int) bool {
	i, j := 0, 0
	for {
		for i < len(s1) && (s1[i] == x || s1[i] == y) {
			i++
		}
		for j < len(s2) && (s2[j] == x || s2[j] == y) {
			j++
		}
		if i == len(s1) || j == len(s2) {
			return i == len(s1) && j == len(s2)
		}
		if s1[i] != s2[j] {
			return false
		}
		i++
		j++
	}
}
