package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/xmldb"
)

// The run shape: a warm-up of one slice, then a window of six slices. The
// window length comes from -seconds; its default is the run_seconds of
// BENCHMARK.json, the longest window that lets the driver's 158 runs, each
// with three set-ups of about 3 s, finish inside its time cap.
const (
	windowSlices    = 6
	setUpsPerRun    = 3 // setup_s is the median of this many complete set-ups
	defaultSeconds  = 5
	defaultSeed     = 11
	secondSeed      = 12
	traceNonceBase  = 1 << 24 // the traced run's nonces never collide with a window's
	primeRequest    = 1 << 23 // nor does the one read sent ahead of the write probe
	maxLoggedErrors = 5
)

// runConfig is one benchmark run.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	papers  int
	workdir string // scratch space for the WAL, inside the checkout
	setUps  int
	traceN  int // traced requests; 0 takes the workload's own count
}

func (c runConfig) slice() time.Duration {
	return time.Duration(c.seconds / windowSlices * float64(time.Second))
}

// result is what one run reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]any     `json:"info"`
}

// op is one request a reader completed.
type op struct {
	start, end    time.Time
	first, total  time.Duration
	cached, admit bool // admit: the server answered 429
	err           error
}

// harness is a set-up system with its request pool and verified answers.
type harness struct {
	cfg     runConfig
	sut     *sut
	pool    *pool
	oracle  *oracle
	walDir  string
	setupS  []float64
	oracleS float64 // bench-side time spent computing reference answers

	mu   sync.Mutex
	want map[int]expected
}

func (c runConfig) sutOptions(walDir string) sutOptions {
	return sutOptions{papers: c.papers, seed: c.seed, joinPaper: c.w.join, walDir: walDir, routed: c.w.routed}
}

// newHarness sets the system up cfg.setUps times — setup_s is the median —
// keeps the last one, and verifies the oracle sample of its pool.
func newHarness(cfg runConfig) (*harness, error) {
	h := &harness{cfg: cfg, want: map[int]expected{}}
	for i := 0; i < cfg.setUps; i++ {
		if h.sut != nil {
			h.sut.close()
			h.sut = nil
		}
		if cfg.w.writer {
			h.removeWAL()
			dir, err := os.MkdirTemp(cfg.workdir, "wal-")
			if err != nil {
				return nil, err
			}
			h.walDir = filepath.Join(dir, mainInstance)
		}
		s, err := setUp(cfg.sutOptions(h.walDir))
		if err != nil {
			h.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		h.sut = s
		h.setupS = append(h.setupS, s.totalS)
	}
	h.pool = newPool(cfg.w, h.sut.corpus, cfg.seed)
	t0 := time.Now()
	if err := h.verifySample(); err != nil {
		h.close()
		return nil, err
	}
	h.oracleS = time.Since(t0).Seconds()
	return h, nil
}

func (h *harness) close() {
	if h.sut != nil {
		h.sut.close()
	}
	h.removeWAL()
}

func (h *harness) removeWAL() {
	if h.walDir != "" {
		os.RemoveAll(filepath.Dir(h.walDir))
		h.walDir = ""
	}
}

// verifySample computes the reference answer of every class, or of the
// first oracleSample classes in send order when the pool is larger.
func (h *harness) verifySample() error {
	if h.cfg.w.routed {
		ref, err := referenceSystem(h.sut.docs)
		if err != nil {
			return err
		}
		h.oracle = newOracle(ref)
	} else {
		h.oracle = newOracle(h.sut.node.sys)
	}
	n := len(h.pool.order)
	if n > oracleSample {
		n = oracleSample
	}
	// Warm the view cache on one goroutine, then spread the scans: each
	// expect call builds its own evaluator, and the reference scans only
	// read the documents.
	sample := h.pool.order[:n]
	if _, err := h.oracle.view(&h.pool.classes[sample[0]].req); err != nil {
		return err
	}
	got := make([]expected, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				got[i], errs[i] = h.oracle.expect(h.pool.classes[sample[i]])
			}
		}(w)
	}
	wg.Wait()
	for i, id := range sample {
		if errs[i] != nil {
			return fmt.Errorf("oracle for class %d: %w", id, errs[i])
		}
		h.want[id] = got[i]
	}
	return nil
}

// referenceSystem is the single node routed answers are checked against:
// started empty like the routed nodes, then loaded with the same documents
// in the same order, which is the order the router numbers them in.
func referenceSystem(docs []doc) (*core.System, error) {
	sys := core.NewSystem()
	in, err := sys.AddInstance(mainInstance)
	if err != nil {
		return nil, err
	}
	var tmp sut
	n, err := startNode(sys, &tmp)
	if err != nil {
		return nil, err
	}
	tmp.node = n
	tmp.close() // only the built system is needed, not its listener
	for _, d := range docs {
		if _, err := in.Col.PutXML(d.key, strings.NewReader(d.xml)); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// check classifies a response. The first response of a class outside the
// oracle sample pins that class's answer; every later one must match it.
func (h *harness) check(classID int, r reply) (cached bool, err error) {
	stream := h.pool.classes[classID].req.Stream
	h.mu.Lock()
	want, known := h.want[classID]
	h.mu.Unlock()
	if !known {
		if r.status != 200 {
			return false, fmt.Errorf("status %d", r.status)
		}
		hash, count, c, err := digest(r, stream)
		if err != nil {
			return false, err
		}
		h.mu.Lock()
		if _, raced := h.want[classID]; !raced {
			h.want[classID] = expected{hash: hash, count: count}
		}
		h.mu.Unlock()
		return c, nil
	}
	return verdict(r, stream, h.cfg.w.repeat > 1, want)
}

// reader is closed-loop client c of the workload: it sends its share of the
// request numbers until stop is set, and returns every operation it
// completed.
func (h *harness) reader(c int, stop *atomic.Bool, done *atomic.Int64) []op {
	cl := newClient(h.sut.url)
	defer cl.close()
	readers, repeat := h.cfg.w.readers, h.cfg.w.repeat
	var ops []op
	for k := 0; !stop.Load(); k++ {
		// Reader c owns the groups c, c+readers, …; a group is `repeat`
		// consecutive request numbers, sent back to back.
		group := c + (k/repeat)*readers
		ops = append(ops, h.send(cl, group*repeat+k%repeat))
		done.Add(1)
	}
	return ops
}

// send issues request number i and checks the answer.
func (h *harness) send(cl *client, i int) op {
	classID, body := h.pool.at(i)
	start := time.Now()
	r, err := cl.do(body)
	o := op{start: start, end: time.Now(), first: r.first, total: r.latency}
	if err == nil {
		o.admit = r.status == 429
		o.cached, err = h.check(classID, r)
	}
	o.err = err
	return o
}

// edge is what the benchmark reads off the process and the system under
// test at each end of a window.
type edge struct {
	at      time.Time
	mem     runtime.MemStats
	planner planner.Counters
	hits    uint64 // result-cache hits and misses of the (single) node
	misses  uint64
	wal     xmldb.WALStats
}

func (h *harness) edge() edge {
	var e edge
	if n := h.sut.node; n != nil {
		e.planner = n.sys.Planner.Counters()
		e.hits, e.misses = n.srv.Cache().Hits(), n.srv.Cache().Misses()
		e.wal = n.sys.Instance(mainInstance).Col.WALStats()
	}
	runtime.ReadMemStats(&e.mem)
	e.at = time.Now()
	return e
}

// window is the raw material of one measured window.
type window struct {
	open, shut  edge
	ops         []op // operations that started and completed inside the window
	edgeOps     []op // correct operations that ran across the window's start or end
	writes      []writeSample
	writeOrigin time.Time
	warmupOps   int
}

// measure runs warm-up and one window of the given length against the
// harness with the workload's clients. The writer, when the workload has
// one, must already be running.
func (h *harness) measure(length time.Duration) window {
	var stop atomic.Bool
	var done atomic.Int64
	// Warm-up lasts one slice and at least until the oracle sample, which
	// leads the send order, has gone out once.
	need := int64(len(h.want) * h.cfg.w.repeat)
	readers := h.cfg.w.readers
	results := make([][]op, readers)
	var wg sync.WaitGroup
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = h.reader(c, &stop, &done)
		}(c)
	}
	warmEnd := time.Now().Add(h.cfg.slice())
	for time.Now().Before(warmEnd) || done.Load() < need {
		time.Sleep(5 * time.Millisecond)
	}
	var w window
	w.warmupOps = int(done.Load())
	w.open = h.edge()
	time.Sleep(length)
	w.shut = h.edge()
	stop.Store(true)
	wg.Wait()
	for _, ops := range results {
		for _, o := range ops {
			switch {
			case !o.start.Before(w.open.at) && !o.end.After(w.shut.at):
				w.ops = append(w.ops, o)
			case o.err == nil && o.end.After(w.open.at) && o.start.Before(w.shut.at):
				w.edgeOps = append(w.edgeOps, o)
			}
		}
	}
	return w
}

// writerRun is the mixed_rw writer while it runs beside the readers.
type writerRun struct {
	w       *writer
	stop    chan struct{}
	done    chan struct{}
	origin  time.Time
	samples []writeSample
	err     error
}

// startWriter ramps the collection in and returns once the writer is on its
// 100 ms schedule.
func startWriter(url string) *writerRun {
	r := &writerRun{w: newWriter(url, mainInstance, deleteLag, replaceEvery), stop: make(chan struct{}), done: make(chan struct{})}
	ramped := make(chan struct{})
	go func() {
		defer close(r.done)
		r.origin, r.samples, r.err = r.w.run(r.stop, ramped)
	}()
	<-ramped
	return r
}

// finish stops the schedule and hands the window its batches.
func (r *writerRun) finish(w *window) error {
	close(r.stop)
	<-r.done
	w.writes, w.writeOrigin = r.samples, r.origin
	return r.err
}

// runEndToEnd is the untraced run: set-up, warm-up, one window, metrics.
func runEndToEnd(cfg runConfig) (*result, error) {
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	defer h.close()
	res := &result{Workload: cfg.w.name, Seed: cfg.seed, Metrics: map[string]float64{}, Info: map[string]any{}}
	res.Metrics["setup_s"] = median(h.setupS)
	res.Metrics["heap_live_mb"] = h.sut.heapLiveMB
	res.Info["setup_s_runs"] = h.setupS
	res.Info["oracle_classes"] = h.oracleCount()
	res.Info["oracle_s"] = h.oracleS
	res.Info["classes"] = len(h.pool.classes)

	var wr *writerRun
	if cfg.w.writer {
		wr = startWriter(h.sut.url)
	}
	w := h.measure(time.Duration(cfg.seconds * float64(time.Second)))
	if wr != nil {
		if err := wr.finish(&w); err != nil {
			return nil, err
		}
	}
	h.fill(res, w)

	// The write-path figure: batches of the writer's shape, closed loop,
	// against the now idle server. On mixed_rw the scheduled writer simply
	// carries on unscheduled, so its keys stay part of the durability check.
	// One more read first: the indexes the last write may have invalidated
	// are rebuilt, so every probe starts from the same state.
	pw := newWriter(h.sut.url, mainInstance, probeLag, 0)
	if wr != nil {
		pw = wr.w
		h.loadedWrites(res, w)
	}
	defer pw.close()
	cl := newClient(h.sut.url)
	defer cl.close()
	res.Attempted++
	if o := h.send(cl, primeRequest); o.err != nil {
		res.Failed++
		logErr(res, o.err)
	}
	lat, err := pw.probe()
	res.Attempted += len(lat)
	if err != nil {
		res.Attempted++
		res.Failed++
		logErr(res, fmt.Errorf("write probe: %w", err))
	}
	res.Metrics["write_p50_ms"] = percentile(lat, 50)
	res.Info["write_probe_batches"] = len(lat)
	if wr != nil {
		return res, h.checkDurable(res, wr.w)
	}
	return res, nil
}

func (h *harness) oracleCount() int {
	n := 0
	for _, e := range h.want {
		if e.oracle {
			n++
		}
	}
	return n
}

func logErr(res *result, err error) {
	errs, _ := res.Info["errors"].([]string)
	if len(errs) < maxLoggedErrors {
		res.Info["errors"] = append(errs, err.Error())
	}
}

// fill turns a window into the end-to-end metrics of the readers and
// returns the share of their responses that carried cached:true.
func (h *harness) fill(res *result, w window) (hitRatio float64) {
	slice := h.cfg.slice()
	var good []sample
	hits := 0
	for _, o := range w.ops {
		res.Attempted++
		if o.err != nil {
			res.Failed++
			logErr(res, o.err)
			continue
		}
		if o.cached {
			hits++
		}
		good = append(good, sample{end: o.end.Sub(w.open.at), latency: o.total, first: o.first})
	}
	sl := slices(good, windowSlices, slice)
	m := res.Metrics
	running := append([]sample(nil), good...)
	for _, o := range w.edgeOps {
		running = append(running, sample{end: o.end.Sub(w.open.at), latency: o.total})
	}
	m["ops_per_s"] = median(sliceRates(running, windowSlices, slice))
	m["p50_ms"] = medianOfSlices(sl, latencyPct(50))
	m["p95_ms"] = medianOfSlices(sl, latencyPct(95))
	m["first_result_p50_ms"] = medianOfSlices(sl, firstPct(50))
	if n := len(good); n > 0 {
		m["allocs_per_op"] = float64(w.shut.mem.Mallocs-w.open.mem.Mallocs) / float64(n)
		m["alloc_kb_per_op"] = float64(w.shut.mem.TotalAlloc-w.open.mem.TotalAlloc) / 1024 / float64(n)
	}
	var sliceP50 []float64
	for _, x := range sl {
		sliceP50 = append(sliceP50, math.Round(latencyPct(50)(x)*1e4)/1e4)
	}
	res.Info["slice_p50_ms"] = sliceP50
	res.Info["window_ops"] = len(good)
	res.Info["p95_min_slice_samples"] = minSliceSamples(sl)
	res.Info["p95_thin"] = minSliceSamples(sl) < minSlicePct
	hitRatio = ratio(float64(hits), float64(len(good)))
	res.Info["cache_hit_ratio"] = hitRatio
	res.Info["warmup_ops"] = w.warmupOps
	res.Info["gc_cycles"] = w.shut.mem.NumGC - w.open.mem.NumGC
	return hitRatio
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loadedWrites accounts for the batches the scheduled writer posted inside
// the window: failures count, and the latency from each batch's scheduled
// send time is reported with how late the writer ran. It is not an
// end-to-end metric: a batch's 20 lines interleave one by one with the
// reader's cache misses or slip through between them, and which of the two
// happens flips the median between about 3 and 20 ms from run to run.
func (h *harness) loadedWrites(res *result, w window) (p50 float64) {
	var lat, late []float64
	for _, s := range w.writes {
		end := w.writeOrigin.Add(s.end)
		if end.Before(w.open.at) || end.After(w.shut.at) {
			continue
		}
		res.Attempted++
		if s.err != nil {
			res.Failed++
			logErr(res, fmt.Errorf("write batch: %w", s.err))
			continue
		}
		lat = append(lat, ms(s.latency))
		late = append(late, ms(s.late))
	}
	res.Info["writer_batches"] = len(lat)
	res.Info["writer_loaded_p50_ms"] = percentile(lat, 50)
	res.Info["writer_loaded_p95_ms"] = percentile(lat, 95)
	res.Info["writer_late_p50_ms"] = percentile(late, 50)
	res.Info["writer_late_max_ms"] = percentile(late, 100)
	res.Info["wal_compactions"] = w.shut.wal.Compactions - w.open.wal.Compactions
	res.Info["wal_fsyncs"] = w.shut.wal.Fsyncs - w.open.wal.Fsyncs
	return percentile(lat, 50)
}

// checkDurable shuts the server down and checks the recovered WAL against
// what the writer saw acknowledged; every fact checked is an operation.
func (h *harness) checkDurable(res *result, wr *writer) error {
	corpusDocs := len(h.sut.docs)
	h.sut.close()
	h.sut = nil
	checked, failed, err := wr.checkDurable(h.walDir, corpusDocs)
	if err != nil {
		return err
	}
	res.Attempted += checked
	res.Failed += failed
	res.Info["durability_checked"] = checked
	res.Info["durability_failed"] = failed
	return nil
}
