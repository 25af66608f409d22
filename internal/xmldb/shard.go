package xmldb

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/similarity"
	"repro/internal/simindex"
	"repro/internal/tree"
)

// docEntry is one stored document together with its global insertion sequence
// number. The seq is assigned once, at first insert, and survives replacement,
// so ordering entries by seq reproduces the collection-wide insertion order no
// matter how documents hash across shards.
type docEntry struct {
	key  string
	seq  uint64
	tree *tree.Tree
	size int // XML bytes, for the collection-wide size cap
}

// shard is one hash partition of a Collection: its own documents, inverted
// indexes, statistics snapshot, generation counter and query counters, all
// behind a private RWMutex so queries against different shards never contend
// on a lock.
type shard struct {
	mu      sync.RWMutex
	docs    map[string]*docEntry
	entries []*docEntry              // ascending seq (shard-local insertion order)
	byRoot  map[*tree.Node]*docEntry // document root → entry, for posting-list grouping

	tagIndex  map[string][]*tree.Node
	termIndex map[string][]*tree.Node
	// valueIndex maps tag + "\x00" + exact content to nodes, accelerating
	// the [.='v'] equality predicates the TOSS rewriter emits. It is only
	// consulted for tags in which every node's XPath string value equals its
	// own content (mixedValueTag is false): a content-less interior node's
	// string value joins its descendants' text and is not in the index.
	valueIndex    map[string][]*tree.Node
	mixedValueTag map[string]bool
	// simIdx is the similarity candidate index over the shard's distinct
	// content values (internal/simindex): n-gram and phonetic filters that
	// propose candidate terms for `~` probes without scanning documents. It
	// shares the tag/term/value index lifecycle: built lazily by
	// buildIndexesLocked, maintained incrementally on insert/delete,
	// invalidated wholesale with the others.
	simIdx *simindex.Index

	bytes      int // XML bytes stored in this shard
	generation atomic.Uint64

	// statsCache holds this shard's statistics snapshot for the generation it
	// was built at; statsMu guards it separately from mu so a stats read never
	// contends with query traffic.
	statsMu    sync.Mutex
	statsCache *Stats

	// Cumulative per-shard query counters (surfaced through ShardInfos and
	// the server's toss_shard_* metrics). The collection-wide counters live on
	// Collection and are maintained independently.
	nQueries      atomic.Uint64
	nDocsWalked   atomic.Uint64
	nNodesTested  atomic.Uint64
	nNodesMatched atomic.Uint64
}

func newShard() *shard {
	return &shard{
		docs:   map[string]*docEntry{},
		byRoot: map[*tree.Node]*docEntry{},
	}
}

func (sh *shard) resetCounters() {
	sh.nQueries.Store(0)
	sh.nDocsWalked.Store(0)
	sh.nNodesTested.Store(0)
	sh.nNodesMatched.Store(0)
}

// ---- per-shard index maintenance ----

func (sh *shard) invalidateIndexes() {
	sh.tagIndex = nil
	sh.termIndex = nil
	sh.valueIndex = nil
	sh.simIdx = nil
}

func (sh *shard) buildIndexesLocked() {
	if sh.tagIndex != nil && sh.simIdx != nil {
		return
	}
	tagIdx := map[string][]*tree.Node{}
	termIdx := map[string][]*tree.Node{}
	valIdx := map[string][]*tree.Node{}
	mixed := map[string]bool{}
	simIdx := simindex.New()
	for _, e := range sh.entries {
		e.tree.Walk(func(n *tree.Node) bool {
			tagIdx[n.Tag] = append(tagIdx[n.Tag], n)
			if n.Content != "" {
				for _, tok := range similarity.Tokenize(n.Content) {
					tok = strings.Clone(tok) // keys outlive n.Content once its document is deleted
					termIdx[tok] = append(termIdx[tok], n)
				}
				valIdx[valueKey(n.Tag, n.Content)] = append(valIdx[valueKey(n.Tag, n.Content)], n)
				simIdx.Add(n.Content)
			} else if subtreeHasContent(n) {
				// XPath string value differs from (empty) own content:
				// exclude the tag from value-index routing.
				mixed[n.Tag] = true
			}
			return true
		})
	}
	sh.tagIndex = tagIdx
	sh.termIndex = termIdx
	sh.valueIndex = valIdx
	sh.mixedValueTag = mixed
	sh.simIdx = simIdx
}

// indexTreeLocked folds a newly inserted tree (appended at the end of the
// shard's insertion order) into existing indexes. A no-op when the indexes are
// not built: the next query rebuilds them from scratch anyway.
func (sh *shard) indexTreeLocked(t *tree.Tree) {
	if sh.tagIndex == nil {
		return
	}
	t.Walk(func(n *tree.Node) bool {
		sh.tagIndex[n.Tag] = append(sh.tagIndex[n.Tag], n)
		if n.Content != "" {
			for _, tok := range similarity.Tokenize(n.Content) {
				tok = strings.Clone(tok) // keys outlive n.Content once its document is deleted
				sh.termIndex[tok] = append(sh.termIndex[tok], n)
			}
			sh.valueIndex[valueKey(n.Tag, n.Content)] = append(sh.valueIndex[valueKey(n.Tag, n.Content)], n)
			sh.simIdx.Add(n.Content)
		} else if subtreeHasContent(n) {
			sh.mixedValueTag[n.Tag] = true
		}
		return true
	})
}

// unindexTreeLocked removes a deleted tree's nodes from the indexes, touching
// only the posting lists the tree contributed to. mixedValueTag is left as-is:
// a deletion can only make a "mixed" verdict stale in the conservative
// direction (value-index routing stays disabled for the tag), never unsound.
func (sh *shard) unindexTreeLocked(t *tree.Tree) {
	if sh.tagIndex == nil {
		return
	}
	gone := map[*tree.Node]bool{}
	tags := map[string]bool{}
	terms := map[string]bool{}
	vals := map[string]bool{}
	t.Walk(func(n *tree.Node) bool {
		gone[n] = true
		tags[n.Tag] = true
		if n.Content != "" {
			for _, tok := range similarity.Tokenize(n.Content) {
				terms[tok] = true
			}
			vals[valueKey(n.Tag, n.Content)] = true
			// One Remove per node occurrence: the simindex refcount mirrors
			// the number of live nodes carrying the value, so a value used by
			// surviving documents stays live.
			sh.simIdx.Remove(n.Content)
		}
		return true
	})
	prune := func(idx map[string][]*tree.Node, key string) {
		kept := idx[key][:0]
		for _, n := range idx[key] {
			if !gone[n] {
				kept = append(kept, n)
			}
		}
		if len(kept) == 0 {
			delete(idx, key)
		} else {
			idx[key] = kept
		}
	}
	for tag := range tags {
		prune(sh.tagIndex, tag)
	}
	for term := range terms {
		prune(sh.termIndex, term)
	}
	for val := range vals {
		prune(sh.valueIndex, val)
	}
}

// withIndexes runs f under the shard's read lock with the inverted indexes
// present, escalating to the exclusive lock only to (re)build them. The loop
// re-checks because a writer may invalidate the indexes between the two lock
// acquisitions.
func (sh *shard) withIndexes(f func()) {
	sh.mu.RLock()
	for sh.tagIndex == nil || sh.simIdx == nil {
		sh.mu.RUnlock()
		sh.mu.Lock()
		sh.buildIndexesLocked()
		sh.mu.Unlock()
		sh.mu.RLock()
	}
	f()
	sh.mu.RUnlock()
}

// ---- gather: order-stable cross-shard merge ----

// seqGroup is a run of nodes from one document, tagged with the document's
// insertion seq — the unit of the order-stable cross-shard merge.
type seqGroup struct {
	seq   uint64
	nodes []*tree.Node
}

// groupPostingsLocked copies a posting list into per-document groups. Posting
// lists are maintained in (shard insertion order, preorder) order, so
// consecutive nodes of the same document form a contiguous run; each group's
// node slice is a fresh copy, safe to filter and merge outside the lock.
func (sh *shard) groupPostingsLocked(postings []*tree.Node) []seqGroup {
	var out []seqGroup
	var curRoot *tree.Node
	for _, n := range postings {
		r := n.Root()
		if len(out) == 0 || r != curRoot {
			curRoot = r
			var seq uint64
			if e := sh.byRoot[r]; e != nil {
				seq = e.seq
			}
			out = append(out, seqGroup{seq: seq})
		}
		g := &out[len(out)-1]
		g.nodes = append(g.nodes, n)
	}
	return out
}

// mergeGroups flattens per-shard group lists into one node list ordered by
// document insertion seq — exactly the order a single-shard collection
// produces. Within a document the shard already yields preorder.
func mergeGroups(lists [][]seqGroup) []*tree.Node {
	var all []seqGroup
	total := 0
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, g := range all {
		total += len(g.nodes)
	}
	if total == 0 {
		return nil
	}
	out := make([]*tree.Node, 0, total)
	for _, g := range all {
		out = append(out, g.nodes...)
	}
	return out
}
