package seo

import (
	"fmt"

	"repro/internal/ontology"
	"repro/internal/similarity"
)

// Verify checks that s is a similarity enhancement of h w.r.t. measure d and
// threshold eps, per Definition 8 of the paper:
//
//	(1) order preservation in both directions (for SEOs built with the
//	    compatibility filter or strict SEA; relaxed SEOs may legitimately
//	    fail the forward direction on their Dropped edges, which Verify
//	    tolerates when they are recorded);
//	(2) all cluster members pairwise within eps;
//	(3) every within-eps pair shares a cluster;
//	(4) no cluster is a subset of another.
//
// strings gives each H-node's contained strings (nil ⇒ the node name). A nil
// return means the SEO verifies.
func Verify(h *ontology.Hierarchy, d similarity.Measure, eps float64, s *SEO, strings map[string][]string) error {
	strs := Options{Strings: strings}.nodeStrings
	ord := newOrderSets(h)
	nodes := ord.nodes

	// Every base node appears in μ.
	for _, n := range nodes {
		if len(s.Mu[n]) == 0 {
			return fmt.Errorf("seo: node %q missing from mu", n)
		}
	}
	// (2) cluster members pairwise within eps.
	for name, members := range s.Clusters {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if got := NodeDistance(d, strs(members[i]), strs(members[j])); got > eps {
					return fmt.Errorf("seo: cluster %q holds %q and %q at distance %g > eps %g",
						name, members[i], members[j], got, eps)
				}
			}
		}
	}
	// (3) within-eps pairs share a cluster — modulo the order-compatibility
	// filter, whose exclusions are semantic, not accidental: only flag a
	// violation when the pair is order-compatible. All pairs are checked,
	// independently of the signature blocking SEA uses.
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i], nodes[j]
			if ord.compatible(i, j) && NodeDistance(d, strs(a), strs(b)) <= eps && !s.Similar(a, b) {
				return fmt.Errorf("seo: %q and %q are within eps but share no cluster", a, b)
			}
		}
	}
	// (4) no cluster subsumes another.
	memberSets := map[string]map[string]bool{}
	for name, members := range s.Clusters {
		set := map[string]bool{}
		for _, m := range members {
			set[m] = true
		}
		memberSets[name] = set
	}
	for a, sa := range memberSets {
		for b, sb := range memberSets {
			if a == b {
				continue
			}
			if subsetOf(sa, sb) {
				return fmt.Errorf("seo: cluster %q is a subset of %q", a, b)
			}
		}
	}
	// (1) forward: base order implies lifted order (except via recorded
	// dropped edges in relaxed mode).
	dropped := map[[2]string]bool{}
	for _, e := range s.Dropped {
		dropped[[2]string{e.From, e.To}] = true
	}
	for i, u := range nodes {
		for _, j := range ord.above[i] {
			if v := nodes[j]; !s.Leq(u, v) && !droppedBetween(s, dropped, u, v) {
				return fmt.Errorf("seo: lost base order %q <= %q", u, v)
			}
		}
	}
	return nil
}

func subsetOf(a, b map[string]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// droppedBetween reports whether a recorded dropped edge could explain the
// missing lifted order between u and v.
func droppedBetween(s *SEO, dropped map[[2]string]bool, u, v string) bool {
	if len(dropped) == 0 {
		return false
	}
	for _, cu := range s.Mu[u] {
		for _, cv := range s.Mu[v] {
			if dropped[[2]string{cu, cv}] {
				return true
			}
		}
	}
	// Longer paths through dropped edges are approximated permissively:
	// any dropped edge touching one of u's or v's clusters counts.
	for key := range dropped {
		for _, cu := range s.Mu[u] {
			if key[0] == cu {
				return true
			}
		}
		for _, cv := range s.Mu[v] {
			if key[1] == cv {
				return true
			}
		}
	}
	return false
}
