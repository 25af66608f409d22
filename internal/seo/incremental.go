// Incremental SEA: re-cluster only the part of the hierarchy a mutation
// touched. The similarity graph of Definition 8 decomposes the SEO into
// connected components; an edge addition/retraction or a node merge can only
// change similarity edges or order-compatibility for nodes in the component
// reachable from the mutation's dirty set, so the cliques (clusters) outside
// that component are reused verbatim; the order lift is redone over all
// clusters. Recluster is proven equivalent to a from-scratch Enhance by
// testing/quick in incremental_test.go.
package seo

import (
	"sort"

	"repro/internal/ontology"
	"repro/internal/similarity"
)

// Delta names what a hierarchy mutation touched, in hierarchy-node terms.
type Delta struct {
	// Dirty lists nodes whose similarity or order neighbourhood may have
	// changed. The caller must include every node whose contained-string set
	// changed and every node whose ancestor or descendant set changed: for an
	// edge mutation x ≤ y that is Below(x) ∪ Above(y) — taken in the
	// post-mutation hierarchy for additions and the pre-mutation hierarchy
	// for retractions; for a merge, Below ∪ Above of the merged node.
	// Unknown names are ignored, so passing supersets is safe.
	Dirty []string
	// Removed lists nodes deleted from the hierarchy (merges contract
	// several nodes into one); their old clusters are dissolved and the
	// surviving co-members re-clustered.
	Removed []string
}

// ReclusterStats quantifies how much work an incremental update did — the
// counters the component-bound acceptance tests and the toss_ontology_*
// metrics read.
type ReclusterStats struct {
	// DirtyNodes and ComponentNodes are the seed set size and the size of
	// the affected similarity component actually re-clustered; TotalNodes is
	// the hierarchy size for comparison.
	DirtyNodes     int
	ComponentNodes int
	TotalNodes     int
	// ReusedClusters were copied from the previous SEO untouched;
	// RebuiltClusters came out of the component's clique enumeration.
	ReusedClusters  int
	RebuiltClusters int
	// SimChecks counts node pairs re-measured for similarity.
	SimChecks int
}

// Recluster incrementally updates prev — a similarity enhancement of some
// earlier version of h — to the current h, re-clustering only the similarity
// component touched by delta. The result is byte-identical (clusters, names,
// Mu, hierarchy, dropped edges) to Enhance(h, d, eps, opts); d, eps and opts
// must be the ones prev was built with. A nil prev falls back to Enhance.
func Recluster(prev *SEO, h *ontology.Hierarchy, d similarity.Measure, eps float64, opts Options, delta Delta) (*SEO, *ReclusterStats, error) {
	if prev == nil {
		s, err := Enhance(h, d, eps, opts)
		if err != nil {
			return nil, nil, err
		}
		n := h.NodeCount()
		return s, &ReclusterStats{TotalNodes: n, ComponentNodes: n, RebuiltClusters: len(s.Clusters)}, nil
	}

	ord := newOrderSets(h)
	nodes := ord.nodes
	st := &ReclusterStats{TotalNodes: len(nodes)}
	live := func(n string) bool {
		_, ok := ord.idx[n]
		return ok
	}

	dirty := map[string]bool{}
	for _, n := range delta.Dirty {
		if live(n) {
			dirty[n] = true
		}
	}
	st.DirtyNodes = len(dirty)

	// Fresh similarity edges incident to dirty nodes: only these can differ
	// from the previous graph — a clean–clean pair has unchanged strings and
	// unchanged ancestor/descendant sets, so its edge is exactly its old
	// co-cluster adjacency. Under the compatibility filter a dirty node is
	// measured only against its signature group, parents and children.
	adjNew := map[string]map[string]bool{}
	link := func(a, b string) {
		if adjNew[a] == nil {
			adjNew[a] = map[string]bool{}
		}
		adjNew[a][b] = true
	}
	var cand []int
	for a := range dirty {
		sa := opts.nodeStrings(a)
		cand = ord.candidates(ord.idx[a], opts.CompatibilityFilter, cand[:0])
		for _, j := range cand {
			b := nodes[j]
			st.SimChecks++
			if nodeWithin(d, sa, opts.nodeStrings(b), eps, opts.DisableLemma1) {
				link(a, b)
				link(b, a)
			}
		}
	}

	// Old adjacency of a surviving node: its co-members in any prev cluster.
	oldCo := func(n string) []string {
		var out []string
		for _, c := range prev.Mu[n] {
			for _, m := range prev.Clusters[c] {
				if m != n && live(m) {
					out = append(out, m)
				}
			}
		}
		return out
	}

	// The affected component: BFS from the dirty nodes (plus survivors of
	// clusters that lost a removed member) over the union of old and new
	// adjacency. Every old or new similarity edge incident to the component
	// stays inside it, so cliques decompose across its boundary.
	comp := map[string]bool{}
	var queue []string
	push := func(n string) {
		if live(n) && !comp[n] {
			comp[n] = true
			queue = append(queue, n)
		}
	}
	for n := range dirty {
		push(n)
	}
	for _, r := range delta.Removed {
		for _, c := range prev.Mu[r] {
			for _, m := range prev.Clusters[c] {
				push(m)
			}
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for b := range adjNew[n] {
			push(b)
		}
		for _, b := range oldCo(n) {
			push(b)
		}
	}
	st.ComponentNodes = len(comp)

	// Clique enumeration restricted to the component. Clean–clean adjacency
	// inside it is the (unchanged) old co-membership; pairs with a dirty
	// endpoint were just recomputed.
	compNodes := make([]string, 0, len(comp))
	for n := range comp {
		compNodes = append(compNodes, n)
	}
	sort.Strings(compNodes)
	adj := make([]map[int]bool, len(compNodes))
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	for i, a := range compNodes {
		for j := i + 1; j < len(compNodes); j++ {
			b := compNodes[j]
			var edge bool
			if dirty[a] || dirty[b] {
				edge = adjNew[a][b]
			} else {
				edge = prev.Similar(a, b)
			}
			if edge {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	rebuilt := maximalCliques(compNodes, adj)

	// Final cluster set: prev clusters disjoint from the component (and free
	// of removed nodes) plus the component's fresh cliques, canonically
	// ordered so naming matches a from-scratch Enhance.
	var all [][]string
	for _, ms := range prev.Clusters {
		touched := false
		for _, m := range ms {
			if comp[m] || !live(m) {
				touched = true
				break
			}
		}
		if touched {
			continue
		}
		all = append(all, ms)
		st.ReusedClusters++
	}
	all = append(all, rebuilt...)
	st.RebuiltClusters = len(rebuilt)
	sortClusterLists(all)

	s, err := assemble(h, ord, all, d, eps, opts)
	if err != nil {
		return nil, nil, err
	}
	return s, st, nil
}
