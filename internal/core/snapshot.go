package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ontology"
	"repro/internal/seo"
	"repro/internal/similarity"
)

// OntologySnapshot is one immutable version of the system's ontology state:
// the fused hierarchies, the similarity enhancement, the measure/ε they were
// built with, and the Ontology Maker byproducts queries consult. A snapshot
// is never mutated after installation — mutations build a successor with
// Version+1 and swap the atomic pointer, so any reader that pinned version N
// (System.Query pins at entry) keeps a consistent view while N+1 serves new
// arrivals. Caches embed Version in their keys, making invalidation a matter
// of key construction, exactly like collection generations.
type OntologySnapshot struct {
	// Version counts installs, starting at 1 for the first Build/Enhance.
	Version uint64

	FusedIsa  *ontology.Fusion
	FusedPart *ontology.Fusion
	SEO       *seo.SEO
	Measure   similarity.Measure
	Epsilon   float64

	// valueTags / valueTruncated are the Ontology Maker byproducts that used
	// to live as racily re-assigned System fields: per-tag "content values
	// were ontologized" marks (they make XPath similarity pre-filters sound)
	// and the MaxValueTerms truncation flag.
	valueTags      map[string]bool
	valueTruncated bool
}

// ValueTagged reports whether the Ontology Maker ontologized the content
// values of tag (which makes similarity pre-filters on that tag sound).
func (o *OntologySnapshot) ValueTagged(tag string) bool { return o.valueTags[tag] }

// ValueTruncated reports whether MaxValueTerms capped value ontologization.
func (o *OntologySnapshot) ValueTruncated() bool { return o.valueTruncated }

// ontoState is the shared, mutable cell behind a System's snapshot lineage.
// It lives behind a pointer so shallow System copies (query pinning,
// NoPlanner, server variants) all observe the same lineage; the atomic
// pointer itself must not be copied.
type ontoState struct {
	mu  sync.Mutex // serialises mutations; installs happen under it
	cur atomic.Pointer[OntologySnapshot]

	mutations        atomic.Uint64
	reclusterNanos   atomic.Int64
	reclusteredNodes atomic.Uint64
	lastComponent    atomic.Uint64
	lastDirty        atomic.Uint64
}

// OntologyCounters aggregates the live-mutation activity of a System, for
// /metrics and /v1/ontology.
type OntologyCounters struct {
	Mutations        uint64
	ReclusterSeconds float64
	ReclusteredNodes uint64
	LastComponent    uint64
	LastDirty        uint64
}

// Ontology returns the ontology snapshot this System view reads: the pinned
// snapshot inside a running query, otherwise the latest installed one. Nil
// before the first successful Build/Enhance.
func (s *System) Ontology() *OntologySnapshot {
	if s.pinned != nil {
		return s.pinned
	}
	if s.onto == nil {
		return nil
	}
	return s.onto.cur.Load()
}

// OntologyVersion returns the version of the snapshot this view reads, 0
// before the first Build.
func (s *System) OntologyVersion() uint64 {
	if snap := s.Ontology(); snap != nil {
		return snap.Version
	}
	return 0
}

// OntologyCounters returns cumulative live-mutation counters.
func (s *System) OntologyCounters() OntologyCounters {
	if s.onto == nil {
		return OntologyCounters{}
	}
	return OntologyCounters{
		Mutations:        s.onto.mutations.Load(),
		ReclusterSeconds: time.Duration(s.onto.reclusterNanos.Load()).Seconds(),
		ReclusteredNodes: s.onto.reclusteredNodes.Load(),
		LastComponent:    s.onto.lastComponent.Load(),
		LastDirty:        s.onto.lastDirty.Load(),
	}
}

// WithSnapshot returns a System view pinned to snap: Ontology() and the
// deprecated mirror fields read snap regardless of later installs. The view
// shares every other structure (database, planner, instances) with s. Query
// uses it to pin at entry; the server uses it for per-request measure/ε
// overlay variants.
func (s *System) WithSnapshot(snap *OntologySnapshot) *System {
	if snap == nil {
		return s
	}
	// Field-by-field rather than *s: the mirror fields of a live System are
	// rewritten by installs, so a whole-struct copy would race with them.
	return &System{
		DB:                s.DB,
		Types:             s.Types,
		Lexicon:           s.Lexicon,
		Instances:         s.Instances,
		ExtraConstraints:  s.ExtraConstraints,
		SEAOptions:        s.SEAOptions,
		MakerConfig:       s.MakerConfig,
		Parallelism:       s.Parallelism,
		Planner:           s.Planner,
		AdaptiveDisabled:  s.AdaptiveDisabled,
		DynamicSimilarity: s.DynamicSimilarity,
		onto:              s.onto,
		pinned:            snap,
		FusedIsa:          snap.FusedIsa,
		FusedPart:         snap.FusedPart,
		SEO:               snap.SEO,
		Measure:           snap.Measure,
		Epsilon:           snap.Epsilon,
		valueTags:         snap.valueTags,
		valueTruncated:    snap.valueTruncated,
	}
}

// installSnapshot publishes snap as the live state and syncs the deprecated
// mirror fields. Callers either hold s.onto.mu (live mutations) or are in
// the single-threaded build phase (Build/Enhance); concurrent queries never
// read the live System's mirror fields — they pin first.
func (s *System) installSnapshot(snap *OntologySnapshot) {
	if s.onto == nil {
		s.onto = &ontoState{}
	}
	s.onto.cur.Store(snap)
	s.FusedIsa = snap.FusedIsa
	s.FusedPart = snap.FusedPart
	s.SEO = snap.SEO
	s.Measure = snap.Measure
	s.Epsilon = snap.Epsilon
	s.valueTags = snap.valueTags
	s.valueTruncated = snap.valueTruncated
}

// SnapshotVariant re-enhances snap's fused isa hierarchy under a different
// measure/ε, returning a derived snapshot that keeps snap's version and
// fusions. Nothing is installed — variants are per-request overlays (the
// server caches them keyed by (Version, measure, ε), so a version bump
// invalidates them by key construction).
func (s *System) SnapshotVariant(snap *OntologySnapshot, m similarity.Measure, eps float64) (*OntologySnapshot, error) {
	if snap == nil || snap.FusedIsa == nil {
		return nil, fmt.Errorf("core: no fused ontology; run Build first")
	}
	opts := s.SEAOptions
	opts.Strings = fusedStringsOf(snap.FusedIsa)
	opts.CompatibilityFilter = true
	enhanced, err := seo.Enhance(snap.FusedIsa.Hierarchy, m, eps, opts)
	if err != nil {
		return nil, fmt.Errorf("core: similarity enhancement: %w", err)
	}
	v := *snap
	v.SEO = enhanced
	v.Measure = m
	v.Epsilon = eps
	return &v, nil
}

// MutationResult reports what one live ontology mutation did: the version it
// installed and the incremental-recluster work it took.
type MutationResult struct {
	// Version is the snapshot version after the mutation (unchanged when
	// Changed is false).
	Version uint64
	// Relation and Op echo the mutation ("isa"/"part-of"; "add-edge",
	// "retract-edge", "merge", "constraint").
	Relation string
	Op       string
	// Changed is false for no-op mutations (e.g. adding an existing edge).
	Changed bool
	// Recluster work (isa mutations only; part-of changes skip the SEA).
	DirtyNodes      int
	ComponentNodes  int
	TotalNodes      int
	ReusedClusters  int
	RebuiltClusters int
	SimChecks       int
	// SEONodes is the cluster count of the new snapshot's SEO.
	SEONodes int
	Duration time.Duration
}

// AddEdge adds child ≤ parent to the named relation's fused hierarchy at
// runtime. Unknown terms enter the hierarchy as fresh runtime terms. For the
// isa relation the SEO is incrementally re-clustered (only the affected
// similarity component is re-examined); part-of edges update the fused
// part-of DAG only. A cycle-creating edge is an error and installs nothing.
func (s *System) AddEdge(relation, child, parent string) (*MutationResult, error) {
	return s.mutateOntology(relation, "add-edge", func(f *ontology.Fusion) (seo.Delta, bool, error) {
		nc, np, changed, err := f.AddTermEdge(child, parent, ontology.RuntimeSource)
		if err != nil || !changed {
			return seo.Delta{}, false, err
		}
		// Reachability changed only for pairs (u, v) with u ≤ nc, np ≤ v —
		// both endpoints inside Below(nc) ∪ Above(np) of the new hierarchy.
		dirty := append(f.Hierarchy.Below(nc), f.Hierarchy.Above(np)...)
		return seo.Delta{Dirty: dirty}, true, nil
	})
}

// RetractEdge removes the direct edge child ≤ parent from the named
// relation's fused hierarchy. Only Hasse edges can be retracted; an order
// that holds through intermediate terms keeps holding.
func (s *System) RetractEdge(relation, child, parent string) (*MutationResult, error) {
	return s.mutateOntology(relation, "retract-edge", func(f *ontology.Fusion) (seo.Delta, bool, error) {
		// The dirty set must cover pairs that LOSE reachability, so it is
		// computed on the pre-retraction hierarchy.
		nc, ok, err := resolveTerm(f, child)
		if err != nil || !ok {
			if err == nil {
				err = fmt.Errorf("core: unknown term %q", child)
			}
			return seo.Delta{}, false, err
		}
		np, ok, err := resolveTerm(f, parent)
		if err != nil || !ok {
			if err == nil {
				err = fmt.Errorf("core: unknown term %q", parent)
			}
			return seo.Delta{}, false, err
		}
		dirty := append(f.Hierarchy.Below(nc), f.Hierarchy.Above(np)...)
		if _, _, err := f.RetractTermEdge(child, parent); err != nil {
			return seo.Delta{}, false, err
		}
		return seo.Delta{Dirty: dirty}, true, nil
	})
}

// AddConstraintLive applies one interoperation constraint to the live fused
// ontology: x ≤ y adds an edge, x = y merges the two fused nodes (with every
// node between them, as a re-Fuse would), and x ≠ y verifies the current
// fusion satisfies it (it changes nothing; a violated ≠ is an error). Unlike
// AddConstraint — which stages DBA constraints for the next full Build —
// this takes effect immediately on the snapshot lineage; a later full Build
// re-derives state from the documents and staged constraints only.
func (s *System) AddConstraintLive(relation string, c ontology.Constraint) (*MutationResult, error) {
	op := "constraint"
	return s.mutateOntology(relation, op, func(f *ontology.Fusion) (seo.Delta, bool, error) {
		switch {
		case c.Neq:
			nx, okx, err := resolveTerm(f, c.X.Term)
			if err != nil {
				return seo.Delta{}, false, err
			}
			ny, oky, err := resolveTerm(f, c.Y.Term)
			if err != nil {
				return seo.Delta{}, false, err
			}
			if okx && oky && nx == ny {
				return seo.Delta{}, false, fmt.Errorf("core: constraint %v violated: both terms sit in fused node %q", c, nx)
			}
			return seo.Delta{}, false, nil
		case c.Eq:
			merged, removed, err := f.MergeTerms(c.X.Term, c.Y.Term)
			if err != nil {
				return seo.Delta{}, false, err
			}
			// Any node whose ancestor/descendant name set changed is ordered
			// against the merged node (contraction only adds order).
			dirty := append(f.Hierarchy.Below(merged), f.Hierarchy.Above(merged)...)
			return seo.Delta{Dirty: dirty, Removed: removed}, true, nil
		default:
			src := c.X.Source
			if src < 0 {
				src = ontology.RuntimeSource
			}
			nc, np, changed, err := f.AddTermEdge(c.X.Term, c.Y.Term, src)
			if err != nil || !changed {
				return seo.Delta{}, false, err
			}
			dirty := append(f.Hierarchy.Below(nc), f.Hierarchy.Above(np)...)
			return seo.Delta{Dirty: dirty}, true, nil
		}
	})
}

func resolveTerm(f *ontology.Fusion, term string) (string, bool, error) {
	ns := f.NodesOf(term)
	switch len(ns) {
	case 0:
		return "", false, nil
	case 1:
		return ns[0], true, nil
	}
	return "", false, fmt.Errorf("core: term %q is ambiguous across fused nodes", term)
}

// mutateOntology is the shared live-mutation path: clone the relation's
// fusion, apply the change, incrementally re-cluster (isa only), and install
// the successor snapshot — all under the mutation lock, so concurrent
// mutations serialise while queries keep reading their pinned snapshots.
func (s *System) mutateOntology(relation, op string, apply func(*ontology.Fusion) (seo.Delta, bool, error)) (*MutationResult, error) {
	if s.pinned != nil {
		return nil, fmt.Errorf("core: cannot mutate a pinned snapshot view")
	}
	if relation != ontology.RelIsa && relation != ontology.RelPartOf {
		return nil, fmt.Errorf("core: unknown relation %q (want %q or %q)", relation, ontology.RelIsa, ontology.RelPartOf)
	}
	if s.onto == nil {
		return nil, fmt.Errorf("core: system not built (run Build first)")
	}
	s.onto.mu.Lock()
	defer s.onto.mu.Unlock()
	snap := s.onto.cur.Load()
	if snap == nil || snap.SEO == nil {
		return nil, fmt.Errorf("core: system not built (run Build first)")
	}
	t0 := time.Now()

	base := snap.FusedIsa
	if relation == ontology.RelPartOf {
		base = snap.FusedPart
	}
	f := base.Clone()
	delta, changed, err := apply(f)
	if err != nil {
		return nil, err
	}
	res := &MutationResult{
		Version:  snap.Version,
		Relation: relation,
		Op:       op,
		Changed:  changed,
		SEONodes: snap.SEO.NodeCount(),
	}
	if !changed {
		res.Duration = time.Since(t0)
		return res, nil
	}

	next := *snap
	next.Version = snap.Version + 1
	if relation == ontology.RelPartOf {
		// part-of does not feed the SEA; the fused DAG swap is the whole change.
		next.FusedPart = f
	} else {
		next.FusedIsa = f
		opts := s.SEAOptions
		opts.Strings = fusedStringsOf(f)
		opts.CompatibilityFilter = true
		enhanced, rst, err := seo.Recluster(snap.SEO, f.Hierarchy, snap.Measure, snap.Epsilon, opts, delta)
		if err != nil {
			return nil, fmt.Errorf("core: incremental similarity enhancement: %w", err)
		}
		next.SEO = enhanced
		res.DirtyNodes = rst.DirtyNodes
		res.ComponentNodes = rst.ComponentNodes
		res.TotalNodes = rst.TotalNodes
		res.ReusedClusters = rst.ReusedClusters
		res.RebuiltClusters = rst.RebuiltClusters
		res.SimChecks = rst.SimChecks
		res.SEONodes = enhanced.NodeCount()
		s.onto.reclusteredNodes.Add(uint64(rst.ComponentNodes))
		s.onto.lastComponent.Store(uint64(rst.ComponentNodes))
		s.onto.lastDirty.Store(uint64(rst.DirtyNodes))
	}
	s.installSnapshot(&next)
	res.Version = next.Version
	res.Duration = time.Since(t0)
	s.onto.mutations.Add(1)
	s.onto.reclusterNanos.Add(int64(res.Duration))
	return res, nil
}

// fusedStringsOf maps every fused node to the distinct bare terms it merged —
// the "set of strings contained in a node" of Definition 7.
func fusedStringsOf(f *ontology.Fusion) map[string][]string {
	out := make(map[string][]string, len(f.Members))
	for name, members := range f.Members {
		seen := map[string]bool{}
		for _, q := range members {
			if !seen[q.Term] {
				seen[q.Term] = true
				out[name] = append(out[name], q.Term)
			}
		}
	}
	return out
}
