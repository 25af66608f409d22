package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/simindex"
	"repro/internal/tree"
	"repro/internal/xmldb"
)

// perLayer lists the per-layer metrics of the traced run, named
// <module>.<metric>. A metric that does not apply to a workload (the router's
// on a single node, the WAL's without a journal) reads 0 there.
var perLayer = []metricDef{
	{"client.http_us", "us"}, {"client.p99_ms", "ms"},
	{"wire.self_us", "us"},
	{"server.handler_us", "us"}, {"server.self_us", "us"},
	{"server.cache_hit_ratio", "ratio"}, {"server.rejected_429", "count"},
	{"server.ingest_docs_per_s", "1/s"}, {"server.write_loaded_p50_ms", "ms"},
	{"pattern.parse_us", "us"},
	{"core.query_us", "us"}, {"core.self_us", "us"}, {"core.query_allocs", "count"},
	{"core.rewrite_us", "us"},
	{"core.candidates_us", "us"}, {"core.candidates", "count"},
	{"core.docs_evaluated", "count"}, {"core.docs_scanned", "count"},
	{"core.answers", "count"}, {"core.rows_per_result", "ratio"},
	{"core.reopt_events", "count"},
	{"planner.plan_us", "us"}, {"planner.plan_cache_hit_ratio", "ratio"}, {"planner.est_err_p50", "ratio"},
	{"xmldb.querypath_us", "us"}, {"xmldb.nodes_tested", "count"},
	{"xmldb.sim_probe_us", "us"},
	{"simindex.candidates_edit_us", "us"}, {"simindex.candidate_terms", "count"},
	{"simindex.docs_scored", "count"}, {"simindex.verify_ratio", "ratio"},
	{"seo.similar_to_us", "us"}, {"similarity.distance_ns", "ns"},
	{"tax.eval_us", "us"}, {"tax.eval_us_per_doc", "us"}, {"tax.eval_allocs_per_doc", "count"},
	{"xpath.eval_us_per_doc", "us"},
	{"tree.encode_us", "us"}, {"tree.encode_bytes", "bytes"},
	{"tree.parse_us_per_doc", "us"},
	{"xmldb.put_us", "us"}, {"xmldb.wal_append_us", "us"}, {"xmldb.wal_bytes_per_doc_byte", "ratio"},
	{"xmldb.wal_fsyncs", "count"}, {"xmldb.wal_compactions", "count"}, {"xmldb.index_rebuilds", "count"},
	{"core.join_pairs_tested", "count"}, {"core.join_pairs_per_result", "ratio"},
	{"router.overhead_us", "us"}, {"router.nodes_contacted", "count"}, {"router.nodes_skipped", "count"},
	{"router.ingest_docs_per_s", "1/s"},
	{"setup.load_s", "s"}, {"setup.build_s", "s"}, {"setup.index_s", "s"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"ladder.coverage", "ratio"}, {"ladder.execstats_gap", "ratio"},
	{"ladder.execstats_gap_rewrite", "ratio"}, {"ladder.execstats_gap_prefilter", "ratio"},
	{"ladder.execstats_gap_eval", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// sampleDocs is how many corpus documents the per-document layer timings
// (parse, put, XPath evaluation) run over.
const sampleDocs = 256

// Span names. A request's spans form the tree
//
//	client.http
//	└ server.handler
//	  ├ pattern.parse
//	  ├ core.query
//	  │ ├ core.rewrite
//	  │ ├ planner.plan
//	  │ ├ core.candidates ─ xmldb.querypath | xmldb.sim_probe
//	  │ ├ xpath.eval            (streaming scan only)
//	  │ └ tax.eval
//	  └ tree.encode
//
// and, on routed_select, client.http ─ router.slowest_node.
const (
	spanHTTP       = "client.http"
	spanHandler    = "server.handler"
	spanParse      = "pattern.parse"
	spanQuery      = "core.query"
	spanRewrite    = "core.rewrite"
	spanPlan       = "planner.plan"
	spanCandidates = "core.candidates"
	spanQueryPath  = "xmldb.querypath"
	spanSimProbe   = "xmldb.sim_probe"
	spanXPath      = "xpath.eval"
	spanEval       = "tax.eval"
	spanEncode     = "tree.encode"
	spanNode       = "router.slowest_node"
	spanSimilarTo  = "seo.similar_to"
	spanEditFilter = "simindex.candidates_edit"
)

// runTraced is the per-layer run: one set-up, warm-up, a half-length untraced
// window for the reference figures, then the traced requests.
func runTraced(cfg runConfig) (*result, error) {
	cfg.setUps = 1
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	defer h.close()
	res := &result{Workload: cfg.w.name, Seed: cfg.seed, Trace: true, Metrics: map[string]float64{}, Info: map[string]any{}}
	m := res.Metrics
	for _, d := range perLayer {
		m[d.name] = 0 // a layer the workload does not pass through reads 0
	}
	m["setup.load_s"], m["setup.build_s"], m["setup.index_s"] = h.sut.loadS, h.sut.buildS, h.sut.indexS
	if cfg.w.routed {
		m["router.ingest_docs_per_s"] = ratio(float64(len(h.sut.docs)), h.sut.loadS)
	}
	if err := staticLayers(h, m); err != nil {
		return nil, err
	}

	var wr *writerRun
	if cfg.w.writer {
		wr = startWriter(h.sut.url)
	}
	w := h.measure(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	ref := &result{Metrics: map[string]float64{}, Info: map[string]any{}}
	hitRatio := h.fill(ref, w)
	res.Attempted, res.Failed = ref.Attempted, ref.Failed
	if errs, ok := ref.Info["errors"]; ok {
		res.Info["errors"] = errs
	}
	var lat []float64
	rejected := 0
	for _, o := range w.ops {
		if o.admit {
			rejected++
		}
		if o.err == nil {
			lat = append(lat, ms(o.total))
		}
	}
	m["client.p99_ms"] = percentile(lat, 99)
	m["server.cache_hit_ratio"] = hitRatio
	m["runtime.gc_cycles"] = float64(w.shut.mem.NumGC - w.open.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(w.shut.mem.PauseTotalNs-w.open.mem.PauseTotalNs) / 1e6
	pc0, pc1 := w.open.planner, w.shut.planner
	m["planner.plan_cache_hit_ratio"] = ratio(float64(pc1.CacheHits-pc0.CacheHits),
		float64(pc1.CacheHits-pc0.CacheHits+pc1.CacheMisses-pc0.CacheMisses))
	m["planner.est_err_p50"] = pc1.ErrP50
	m["core.reopt_events"] = float64(pc1.ReoptMaterialize + pc1.ReoptBuildSide - pc0.ReoptMaterialize - pc0.ReoptBuildSide)
	m["xmldb.wal_fsyncs"] = float64(w.shut.wal.Fsyncs - w.open.wal.Fsyncs)
	m["xmldb.wal_compactions"] = float64(w.shut.wal.Compactions - w.open.wal.Compactions)
	res.Info["untraced_p50_ms"] = ref.Metrics["p50_ms"]
	res.Info["untraced_ops"] = len(lat)
	res.Info["server_cache_hits"] = w.shut.hits - w.open.hits
	res.Info["server_cache_misses"] = w.shut.misses - w.open.misses

	l := &ladder{h: h, tr: newTracer(), cl: newClient(h.sut.url), res: res}
	defer l.cl.close()
	for _, n := range h.sut.nodes {
		c := newClient(n.url)
		defer c.close()
		l.nodeClients = append(l.nodeClients, c)
	}
	if !cfg.w.routed {
		l.simIdx = simindex.New()
		for _, d := range h.sut.node.sys.Instance(mainInstance).Col.Docs() {
			d.Walk(func(n *tree.Node) bool {
				if n.Content != "" {
					l.simIdx.Add(n.Content)
				}
				return true
			})
		}
	}
	if cfg.traceN == 0 {
		cfg.traceN = cfg.w.traceN
	}
	for r := 0; r < cfg.traceN; r++ {
		if err := l.request(r); err != nil {
			return nil, fmt.Errorf("traced request %d: %w", r, err)
		}
	}
	if wr != nil {
		if err := wr.finish(&w); err != nil {
			return nil, err
		}
		wr.w.close()
		m["server.write_loaded_p50_ms"] = h.loadedWrites(res, w)
		// Each acknowledged replacement costs the next query one shard index
		// rebuild; fresh puts and deletes are folded in incrementally.
		m["xmldb.index_rebuilds"] = float64(wr.w.replaced)
	}
	m["server.rejected_429"] = float64(rejected + l.rejected)
	l.summarize(ref.Metrics["p50_ms"])
	return res, l.write(filepath.Join(cfg.workdir, "trace-"+cfg.w.name+".json"))
}

// staticLayers times the layers a query does not pass through — document
// parsing, the store's put path with and without a journal, bulk ingestion —
// on scratch structures fed with the first corpus documents.
func staticLayers(h *harness, m map[string]float64) error {
	docs := h.sut.docs
	if len(docs) > sampleDocs {
		docs = docs[:sampleDocs]
	}
	var parse []float64
	for _, d := range docs {
		t0 := time.Now()
		if _, err := tree.NewCollection().ParseXML(strings.NewReader(d.xml)); err != nil {
			return err
		}
		parse = append(parse, us(time.Since(t0)))
	}
	m["tree.parse_us_per_doc"] = median(parse)

	newCol := func() *xmldb.Collection {
		db := xmldb.New()
		db.SetDefaultShards(runtime.GOMAXPROCS(0))
		return db.CreateCollection("scratch")
	}
	dir, err := os.MkdirTemp(h.cfg.workdir, "scratch-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	plain, journaled := newCol(), newCol()
	if err := journaled.OpenWAL(dir, xmldb.WALOptions{MaxBytes: -1}); err != nil {
		return err
	}
	// Each document goes into both collections back to back, so the append
	// cost is a median of paired differences and not a difference of medians
	// taken at different moments.
	var puts, appends []float64
	docBytes := 0
	for _, d := range docs {
		t0 := time.Now()
		_, err := plain.PutXML(d.key, strings.NewReader(d.xml))
		t1 := time.Now()
		if err == nil {
			_, err = journaled.PutXML(d.key, strings.NewReader(d.xml))
		}
		t2 := time.Now()
		if err != nil {
			journaled.CloseWAL()
			return err
		}
		puts = append(puts, us(t1.Sub(t0)))
		appends = append(appends, us(t2.Sub(t1))-us(t1.Sub(t0)))
		docBytes += len(d.xml)
	}
	m["xmldb.put_us"] = median(puts)
	m["xmldb.wal_append_us"] = median(appends)
	m["xmldb.wal_bytes_per_doc_byte"] = ratio(float64(journaled.WALStats().Bytes), float64(docBytes))
	if err := journaled.CloseWAL(); err != nil {
		return err
	}

	// One 1000-line /v1/docs POST into an empty instance of a scratch server.
	sys := newTossdSystem()
	if _, err := sys.AddInstance("scratch"); err != nil {
		return err
	}
	var tmp sut
	n, err := startNode(sys, &tmp)
	if err != nil {
		return err
	}
	tmp.node = n
	defer tmp.close()
	bulk := h.sut.docs
	if len(bulk) > 1000 {
		bulk = bulk[:1000]
	}
	t0 := time.Now()
	if err := postDocs(http.DefaultClient, n.url, "scratch", bulk); err != nil {
		return err
	}
	m["server.ingest_docs_per_s"] = ratio(float64(len(bulk)), time.Since(t0).Seconds())
	http.DefaultClient.CloseIdleConnections()
	return nil
}

// summarize reduces the spans to the per-layer metrics: medians across the
// traced requests of each layer's time, self time and counts.
func (l *ladder) summarize(untracedP50ms float64) {
	m := l.res.Metrics
	dur, self := layerMedians(l.tr.spans)
	m["client.http_us"] = dur[spanHTTP]
	m["server.handler_us"] = dur[spanHandler]
	m["pattern.parse_us"] = dur[spanParse]
	m["core.query_us"] = dur[spanQuery]
	m["core.rewrite_us"] = dur[spanRewrite]
	m["planner.plan_us"] = dur[spanPlan]
	m["xmldb.querypath_us"] = dur[spanQueryPath]
	m["xmldb.sim_probe_us"] = dur[spanSimProbe]
	m["tax.eval_us"] = dur[spanEval]
	m["tree.encode_us"] = dur[spanEncode]
	m["seo.similar_to_us"] = dur[spanSimilarTo]
	m["simindex.candidates_edit_us"] = dur[spanEditFilter]
	m["core.candidates_us"] = self[spanCandidates]
	m["core.self_us"] = self[spanQuery]
	m["server.self_us"] = self[spanHandler]
	if l.h.cfg.w.routed {
		m["router.overhead_us"] = self[spanHTTP]
	} else {
		m["wire.self_us"] = self[spanHTTP]
	}

	q := countMedians(l.tr.spans, spanQuery)
	m["core.query_allocs"] = q["allocs"]
	m["core.candidates"] = q["candidates"]
	m["core.docs_evaluated"] = q["docs_evaluated"]
	m["core.docs_scanned"] = q["docs_scanned"]
	m["core.answers"] = q["answers"]
	m["core.rows_per_result"] = q["rows_per_result"]
	m["core.join_pairs_tested"] = q["join_pairs"]
	m["core.join_pairs_per_result"] = ratio(q["join_pairs"], q["answers"])
	m["xmldb.nodes_tested"] = countMedians(l.tr.spans, spanQueryPath)["nodes_tested"]
	sp := countMedians(l.tr.spans, spanSimProbe)
	m["simindex.candidate_terms"] = sp["candidate_terms"]
	m["simindex.verify_ratio"] = sp["verify_ratio"]
	m["simindex.docs_scored"] = sp["docs_scored"]
	ev := countMedians(l.tr.spans, spanEval)
	m["tax.eval_us_per_doc"] = ev["us_per_doc"]
	m["tax.eval_allocs_per_doc"] = ev["allocs_per_doc"]
	m["tree.encode_bytes"] = countMedians(l.tr.spans, spanEncode)["bytes"]
	rt := countMedians(l.tr.spans, spanHTTP)
	m["router.nodes_contacted"] = rt["nodes_contacted"]
	m["router.nodes_skipped"] = rt["nodes_skipped"]

	// The ladder closes when the self times of every layer under the round
	// trip add up to the round trip. Each term is a median over requests,
	// so the sum is not 1 by construction: replays that run slower or
	// faster than the work they stand for show up here.
	sum := 0.0
	for _, name := range []string{spanHTTP, spanHandler, spanParse, spanQuery, spanRewrite, spanPlan,
		spanCandidates, spanQueryPath, spanSimProbe, spanXPath, spanEval, spanEncode, spanNode} {
		sum += self[name]
	}
	m["ladder.coverage"] = ratio(sum, dur[spanHTTP])
	m["trace.overhead_ratio"] = ratio(dur[spanHTTP]/1000, untracedP50ms)

	// Bench-timed stages against the same stages as ExecStats timed them
	// inside the traced query.
	cand := dur[spanCandidates]
	m["ladder.execstats_gap_rewrite"] = ratio(dur[spanRewrite], q["stats_rewrite_us"])
	m["ladder.execstats_gap_prefilter"] = ratio(cand, q["stats_prefilter_us"])
	m["ladder.execstats_gap_eval"] = ratio(dur[spanEval]+dur[spanXPath], q["stats_eval_us"])
	m["ladder.execstats_gap"] = ratio(dur[spanRewrite]+cand+dur[spanEval]+dur[spanXPath],
		q["stats_rewrite_us"]+q["stats_prefilter_us"]+q["stats_eval_us"])
	l.xpathAndDistance()
}

// xpathAndDistance times the two innermost loops on their own: one rewritten
// path evaluated against document roots, and the measure on term pairs.
func (l *ladder) xpathAndDistance() {
	if l.h.cfg.w.routed {
		return
	}
	m := l.res.Metrics
	cls := l.h.pool.classes[l.h.pool.order[0]]
	view, err := l.h.oracle.view(&cls.req)
	if err != nil {
		return
	}
	pat, err := pattern.Parse(strings.Replace(cls.req.Pattern, nonceMark, "v0", 1))
	if err != nil {
		return
	}
	target := pat
	if lp, _, ok := core.SplitJoinPattern(pat); ok {
		target = lp
	}
	docs := view.Instance(cls.req.Instance).Col.Docs()
	if len(docs) > sampleDocs {
		docs = docs[:sampleDocs]
	}
	if paths := view.RewritePattern(target); len(paths) > 0 && len(docs) > 0 {
		t0 := time.Now()
		for _, d := range docs {
			paths[0].Eval(d.Root)
		}
		m["xpath.eval_us_per_doc"] = us(time.Since(t0)) / float64(len(docs))
	}
	measure := view.Ontology().Measure
	lits := authorTypos(l.h.sut.corpus, [][2]int{{1, 2}})
	if len(lits) > 16 {
		lits = lits[:16]
	}
	var terms []string
	for _, p := range l.h.sut.corpus.Papers {
		terms = append(terms, p.DBLPAuthors...)
		if len(terms) >= sampleDocs {
			break
		}
	}
	t0 := time.Now()
	for _, a := range lits {
		for _, b := range terms {
			measure.Distance(a, b)
		}
	}
	m["similarity.distance_ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(len(lits)*len(terms)))
}

// write dumps the spans and the medians drawn from them.
func (l *ladder) write(path string) error {
	out := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Requests int                `json:"requests"`
		Metrics  map[string]float64 `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{l.res.Workload, l.res.Seed, l.requests, l.res.Metrics, l.tr.spans}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	l.res.Info["trace_file"] = path
	return os.WriteFile(path, b, 0o644)
}
