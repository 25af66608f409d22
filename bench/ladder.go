package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/simindex"
	"repro/internal/tree"
	"repro/internal/xmldb"
	"repro/internal/xpath"
)

// ladder is the traced phase: one client, and after each request the
// benchmark itself calls the layers the request went through.
type ladder struct {
	h      *harness
	tr     *tracer
	cl     *client
	res    *result
	simIdx *simindex.Index // built from the corpus terms, for the isolated n-gram filter timing

	nodeClients []*client // routed_select: one per node
	requests    int       // traced so far
	rejected    int       // of them, answered 429
}

// request traces one request: the real round trip first, then a replay of
// every layer under it. Each replay gets its own nonce so none of them is
// served from the result cache.
func (l *ladder) request(r int) error {
	classID := l.h.pool.order[r%len(l.h.pool.order)]
	cls := l.h.pool.classes[classID]
	nonce := traceNonceBase + r*4

	var rep reply
	var err error
	root := l.tr.record(spanHTTP, r, -1, func() { rep, err = l.cl.do(cls.body(nonce)) })
	l.requests++
	l.res.Attempted++
	if err == nil {
		if rep.status == http.StatusTooManyRequests {
			l.rejected++
		}
		_, err = l.h.check(classID, rep)
	}
	if err != nil {
		l.res.Failed++
		logErr(l.res, err)
	}
	if l.h.cfg.w.routed {
		return l.routed(r, root, cls, nonce+1, rep)
	}

	node := l.h.sut.node
	body := cls.body(nonce + 1)
	hid := l.tr.record(spanHandler, r, root, func() {
		rec := httptest.NewRecorder()
		node.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("in-process handler answered %d", rec.Code)
		}
	})
	if err != nil {
		return err
	}

	text := strings.Replace(cls.req.Pattern, nonceMark, "v"+strconv.Itoa(nonce+2), 1)
	var pat *pattern.Tree
	l.tr.record(spanParse, r, hid, func() { pat, err = pattern.Parse(text) })
	if err != nil {
		return err
	}
	view, err := l.h.oracle.view(&cls.req)
	if err != nil {
		return err
	}
	answers, st, qid, err := l.query(r, hid, view, &cls.req, pat)
	if err != nil {
		return err
	}
	if cls.req.Right != "" {
		l.joinLayers(r, qid, view, &cls.req, pat, st)
	} else {
		l.selectLayers(r, qid, view, &cls.req, pat, st)
	}
	l.encode(r, hid, &cls.req, answers, view.OntologyVersion())
	return nil
}

// answer is one result of core.Query in either shape.
type answer struct {
	tree  *tree.Tree
	score *float64
}

// query runs System.Query exactly as the server's handler does — traced,
// streamed requests pulled to their end — and records the ExecStats counts
// on the span.
func (l *ladder) query(r, parent int, view *core.System, req *server.QueryRequest, pat *pattern.Tree) ([]answer, *core.ExecStats, int, error) {
	qreq := core.QueryRequest{
		Pattern: pat, Instance: req.Instance, Right: req.Right, Adorn: req.SL,
		Limit: req.Limit, Ranked: req.Ranked, Stream: req.Stream, Trace: true,
	}
	var answers []answer
	var st *core.ExecStats
	var err error
	ctx := context.Background()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	qid := l.tr.record(spanQuery, r, parent, func() {
		var res *core.QueryResult
		if res, err = view.Query(ctx, qreq); err != nil {
			return
		}
		st = res.Stats
		for _, t := range res.Answers {
			answers = append(answers, answer{tree: t})
		}
		for i := range res.Ranked {
			answers = append(answers, answer{tree: res.Ranked[i].Tree, score: &res.Ranked[i].Score})
		}
		if res.Stream != nil {
			defer res.Stream.Close()
			for {
				t, nerr := res.Stream.Next(ctx)
				if nerr == io.EOF {
					return
				}
				if nerr != nil {
					err = nerr
					return
				}
				answers = append(answers, answer{tree: t})
			}
		}
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, 0, err
	}
	if st == nil {
		return nil, nil, 0, fmt.Errorf("traced query returned no ExecStats")
	}
	l.tr.count(qid, "allocs", float64(m1.Mallocs-m0.Mallocs))
	l.tr.count(qid, "docs_evaluated", float64(st.DocsEvaluated))
	l.tr.count(qid, "docs_scanned", float64(st.DocsScanned))
	l.tr.count(qid, "answers", float64(len(answers)))
	l.tr.count(qid, "candidates", float64(st.CandidateDocs))
	l.tr.count(qid, "rows_per_result", ratio(float64(st.DocsEvaluated), float64(len(answers))))
	l.tr.count(qid, "stats_rewrite_us", us(st.RewriteTime))
	l.tr.count(qid, "stats_prefilter_us", us(st.PrefilterTime))
	l.tr.count(qid, "stats_eval_us", us(st.EvalTime))
	if st.Join != nil {
		l.tr.count(qid, "join_pairs", float64(st.DocsEvaluated))
	}
	return answers, st, qid, nil
}

// selectLayers replays the stages of a selection under its core.query span:
// rewrite, plan, candidate documents (index paths or similarity probe) and
// the embedding search over the candidates.
func (l *ladder) selectLayers(r, qid int, view *core.System, req *server.QueryRequest, pat *pattern.Tree, st *core.ExecStats) {
	col := view.Instance(req.Instance).Col
	var paths []*xpath.Path
	l.tr.record(spanRewrite, r, qid, func() { paths = view.RewritePattern(pat) })
	var cands []*tree.Tree
	switch {
	case st.Sim != nil:
		cands = l.simCandidates(r, qid, view, col, paths, st)
	case st.ScanMode == core.ScanModeStream:
		// Limit pushdown: no candidate set is built; the pipeline pulled
		// DocsScanned documents off the shard cursors, ran every rewritten
		// path over each, and evaluated the survivors up to the limit.
		docs := col.Docs()
		if st.DocsScanned < len(docs) {
			docs = docs[:st.DocsScanned]
		}
		l.tr.record(spanXPath, r, qid, func() { cands = matchingAll(docs, paths) })
	default:
		if len(paths) > 0 {
			l.tr.record(spanPlan, r, qid, func() { view.Planner.PlanSelectAdaptive(col, view.OntologyVersion(), paths) })
		}
		cid := l.tr.record(spanCandidates, r, qid, func() { cands = view.CandidateDocs(col, paths) })
		l.queryPaths(r, cid, col, paths, st)
	}
	if req.Limit > 0 && st.LimitHit && len(cands) > st.DocsEvaluated {
		cands = cands[:st.DocsEvaluated] // the real evaluation stopped at the limit
	}
	l.eval(r, qid, len(cands), func() error {
		_, err := view.SelectTrees(cands, pat, req.SL)
		return err
	})
}

// queryPaths times, under the candidates span, the path queries the plan
// actually sent to the collection: the steps the trace marks "restricted"
// were evaluated on the surviving documents only and are part of the
// intersection's own time.
func (l *ladder) queryPaths(r, parent int, col *xmldb.Collection, paths []*xpath.Path, st *core.ExecStats) {
	byText := map[string]*xpath.Path{}
	for _, p := range paths {
		byText[p.String()] = p
	}
	var total time.Duration
	tested := 0
	for _, plan := range st.Plans {
		for _, step := range plan.Steps {
			p := byText[step.XPath]
			if p == nil || step.Access == planner.AccessRestricted {
				continue
			}
			t0 := time.Now()
			_, qs := col.QueryPathForced(p, step.Access == planner.AccessScan)
			total += time.Since(t0)
			tested += qs.Candidates
		}
	}
	id := l.tr.add(spanQueryPath, r, parent, us(total))
	l.tr.count(id, "nodes_tested", float64(tested))
}

// simCandidates replays a similarity-index probe the way core plans it: the
// SEO cluster of the literal as exact terms, the n-gram channel at ⌊ε⌋ edits,
// the evaluator as verifier, then the remaining rewritten paths per document.
// The SEO lookup and the n-gram filter are also timed on their own (the
// filter on one index over all corpus terms rather than one per shard);
// those two spans stand outside the request's tree.
func (l *ladder) simCandidates(r, qid int, view *core.System, col *xmldb.Collection, paths []*xpath.Path, st *core.ExecStats) []*tree.Tree {
	lit := st.Sim.Literal
	maxEdit := int(math.Floor(view.Ontology().Epsilon))
	var cluster []string
	l.tr.record(spanSimilarTo, r, -1, func() { cluster = view.SimilarStrings(lit) })
	sort.Strings(cluster)
	l.tr.record(spanEditFilter, r, -1, func() { l.simIdx.CandidatesEdit(lit, maxEdit, simindex.GramsPerEdit) })
	ev := view.Evaluator()
	probe := xmldb.SimProbe{
		Tag: st.Sim.Tag, Literal: lit, ExactTerms: cluster,
		MaxEdit: maxEdit, GramsPerEdit: simindex.GramsPerEdit,
		Verify: func(term string) bool { return ev.Similar(term, lit) },
	}
	var cands []*tree.Tree
	var ps xmldb.SimProbeStats
	var probeUS float64
	cid := l.tr.record(spanCandidates, r, qid, func() {
		t0 := time.Now()
		docs, stats := col.SimCandidateDocs(probe)
		ps, probeUS = stats, us(time.Since(t0))
		cands = matchingAll(docs, paths)
	})
	pid := l.tr.add(spanSimProbe, r, cid, probeUS)
	l.tr.count(pid, "candidate_terms", float64(ps.CandidateTerms))
	l.tr.count(pid, "verify_ratio", ratio(float64(ps.VerifiedTerms), float64(ps.CandidateTerms)))
	l.tr.count(pid, "docs_scored", float64(st.DocsEvaluated))
	return cands
}

// matchingAll keeps the documents every path matches, in order.
func matchingAll(docs []*tree.Tree, paths []*xpath.Path) []*tree.Tree {
	var out []*tree.Tree
	for _, d := range docs {
		keep := true
		for _, p := range paths {
			if len(p.Eval(d.Root)) == 0 {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, d)
		}
	}
	return out
}

// eval records the embedding search over n candidate documents.
func (l *ladder) eval(r, qid, n int, fn func() error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := l.tr.record(spanEval, r, qid, func() {
		if err := fn(); err != nil {
			logErr(l.res, fmt.Errorf("replaying evaluation: %w", err))
		}
	})
	runtime.ReadMemStats(&m1)
	if n > 0 {
		l.tr.count(id, "us_per_doc", l.tr.spans[id].dur()/float64(n))
		l.tr.count(id, "allocs_per_doc", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
}

// joinLayers replays a condition join: both sides rewritten and pre-filtered,
// then pairing and pair evaluation.
func (l *ladder) joinLayers(r, qid int, view *core.System, req *server.QueryRequest, pat *pattern.Tree, st *core.ExecStats) {
	lcol, rcol := view.Instance(req.Instance).Col, view.Instance(req.Right).Col
	ldocs, rdocs := lcol.Docs(), rcol.Docs()
	lp, rp, ok := core.SplitJoinPattern(pat)
	if ok {
		var lpaths, rpaths []*xpath.Path
		l.tr.record(spanRewrite, r, qid, func() { lpaths, rpaths = view.RewritePattern(lp), view.RewritePattern(rp) })
		l.tr.record(spanPlan, r, qid, func() {
			view.Planner.PlanSelectAdaptive(lcol, view.OntologyVersion(), lpaths)
			view.Planner.PlanSelectAdaptive(rcol, view.OntologyVersion(), rpaths)
		})
		cid := l.tr.record(spanCandidates, r, qid, func() {
			ldocs, rdocs = view.CandidateDocs(lcol, lpaths), view.CandidateDocs(rcol, rpaths)
		})
		var total time.Duration
		tested := 0
		for side, paths := range [][]*xpath.Path{lpaths, rpaths} {
			col := []*xmldb.Collection{lcol, rcol}[side]
			for _, p := range paths {
				t0 := time.Now()
				_, qs := col.QueryPathTraced(p)
				total += time.Since(t0)
				tested += qs.Candidates
			}
		}
		id := l.tr.add(spanQueryPath, r, cid, us(total))
		l.tr.count(id, "nodes_tested", float64(tested))
	}
	l.eval(r, qid, st.DocsEvaluated, func() error {
		_, err := view.JoinTrees(ldocs, rdocs, pat, req.SL)
		return err
	})
}

// encode replays result encoding: XMLString of every answer plus the JSON
// the handler writes around them.
func (l *ladder) encode(r, parent int, req *server.QueryRequest, answers []answer, version uint64) {
	n := 0
	id := l.tr.record(spanEncode, r, parent, func() {
		out := make([]server.Answer, len(answers))
		for i, a := range answers {
			out[i] = server.Answer{XML: a.tree.XMLString(), Score: a.score}
		}
		// Strings, floats and integers always marshal: no error to handle.
		var b []byte
		if req.Stream {
			b, _ = wireBytes(out, true, version)
		} else {
			b, _ = json.Marshal(server.QueryResponse{Op: "select", Instance: req.Instance, Count: len(out), OntologyVersion: version, Answers: out})
		}
		n = len(b)
	})
	l.tr.count(id, "bytes", float64(n))
}

// routed traces what the router adds: the same request sent to each node
// directly (streamed with sequences, as the router sends it), the slowest of
// which is the floor under the routed latency.
func (l *ladder) routed(r, root int, cls class, nonce int, rep reply) error {
	up := cls
	up.req.Stream, up.req.Seqs = true, true
	body := up.body(nonce)
	var slowest time.Duration
	for _, c := range l.nodeClients {
		nr, err := c.do(body)
		if err != nil {
			return err
		}
		if nr.status != http.StatusOK {
			return fmt.Errorf("node answered %d", nr.status)
		}
		if nr.latency > slowest {
			slowest = nr.latency
		}
	}
	l.tr.add(spanNode, r, root, us(slowest))
	configured, _ := strconv.Atoi(rep.header.Get("X-Toss-Nodes-Configured"))
	targeted, _ := strconv.Atoi(rep.header.Get("X-Toss-Nodes-Targeted"))
	l.tr.count(root, "nodes_contacted", float64(targeted))
	l.tr.count(root, "nodes_skipped", float64(configured-targeted))
	return nil
}
