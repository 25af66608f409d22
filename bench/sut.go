package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/xmldb"
)

// The program under test is configured the way cmd/tossd and cmd/tossrouter
// configure themselves with no flags given.
const (
	corpusPapers   = 3000
	epsilon        = 3.0
	maxInFlight    = 4
	cacheSize      = 256
	defaultTimeout = 30 * time.Second
	routedNodes    = 3
	mainInstance   = "dblp"
	joinLeft       = "jl"
	joinRight      = "jr"
)

// sutOptions selects the shape of the system a workload needs.
type sutOptions struct {
	papers    int
	seed      int64
	joinPaper int    // > 0: add the jl/jr instances with this many papers each
	walDir    string // non-empty: journal the main instance under this directory
	routed    bool   // 3 nodes + router, corpus loaded through the router
}

// node is one in-process tossd: system, server and loopback listener.
type node struct {
	sys  *core.System
	srv  *server.Server
	http *http.Server
	url  string
}

// sut is the system under test plus what set-up learned about it.
type sut struct {
	corpus *datagen.Corpus
	docs   []doc // the main instance's documents, in load order

	node   *node   // single-node workloads
	nodes  []*node // routed_select
	rt     *router.Router
	rtHTTP *http.Server
	rtCli  *http.Client
	url    string // where clients send requests

	loadS, buildS, indexS, totalS float64
	heapLiveMB                    float64
}

// doc is one generated document as the program under test receives it.
type doc struct {
	key string
	xml string
}

// serverConfig is tossd's flag defaults. tossd logs one line per request to
// stderr; the benchmark keeps the formatting work and discards the bytes.
func serverConfig() server.Config {
	return server.Config{
		MaxInFlight:    maxInFlight,
		MaxQueue:       2 * maxInFlight,
		DefaultTimeout: defaultTimeout,
		MaxTimeout:     2 * time.Minute,
		CacheSize:      cacheSize,
		Logger:         log.New(io.Discard, "tossd: ", 0),
	}
}

func newTossdSystem() *core.System {
	sys := core.NewSystem()
	sys.DB.SetDefaultShards(runtime.GOMAXPROCS(0))
	return sys
}

// startNode builds the ontology over whatever sys holds, builds the indexes
// and serves the system on a fresh loopback port — tossd's start-up order.
func startNode(sys *core.System, s *sut) (*node, error) {
	t0 := time.Now()
	if err := sys.Build(experiments.DefaultMeasure(), epsilon); err != nil {
		return nil, fmt.Errorf("building SEO: %w", err)
	}
	t1 := time.Now()
	for _, in := range sys.Instances {
		in.Col.BuildIndexes()
	}
	s.buildS += t1.Sub(t0).Seconds()
	s.indexS += time.Since(t1).Seconds()
	srv, err := server.New(sys, serverConfig())
	if err != nil {
		return nil, err
	}
	hs, url, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &node{sys: sys, srv: srv, http: hs, url: url}, nil
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns when shutdown closes the listener
	return hs, "http://" + ln.Addr().String(), nil
}

func renderDocs(corpus *datagen.Corpus) []doc {
	docs := make([]doc, len(corpus.Papers))
	for i := range corpus.Papers {
		docs[i] = doc{
			key: fmt.Sprintf("dblp-%05d", i),
			xml: corpus.DBLPString(corpus.Papers[i : i+1]),
		}
	}
	return docs
}

// setUp generates the corpus from the seed, loads it and brings the
// listeners up. Everything timed here is what setup_s reports.
func setUp(opt sutOptions) (*sut, error) {
	t0 := time.Now()
	gen := datagen.DefaultConfig(opt.papers)
	gen.Seed = opt.seed
	s := &sut{corpus: datagen.Generate(gen)}
	s.docs = renderDocs(s.corpus)
	var err error
	if opt.routed {
		err = s.setUpRouted()
	} else {
		err = s.setUpSingle(opt)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.totalS = time.Since(t0).Seconds()
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.heapLiveMB = float64(m.HeapAlloc) / (1 << 20)
	return s, nil
}

func (s *sut) setUpSingle(opt sutOptions) error {
	sys := newTossdSystem()
	in, err := sys.AddInstance(mainInstance)
	if err != nil {
		return err
	}
	if opt.walDir != "" {
		// tossd -data DIR: -wal-sync interval and -wal-max-bytes 4 MiB, the
		// xmldb defaults. Snapshot compaction of this collection takes about
		// 1.5 s (one file per document), so a threshold low enough to trip it
		// inside a window would keep one running through set-up and the whole
		// run; at the default none starts.
		if err := in.Col.OpenWAL(opt.walDir, xmldb.WALOptions{Sync: xmldb.SyncInterval}); err != nil {
			return fmt.Errorf("opening wal: %w", err)
		}
	}
	t0 := time.Now()
	for _, d := range s.docs {
		if _, err := in.Col.PutXML(d.key, strings.NewReader(d.xml)); err != nil {
			return fmt.Errorf("loading %s: %w", d.key, err)
		}
	}
	if opt.joinPaper > 0 {
		if err := s.loadJoinSides(sys, opt.joinPaper); err != nil {
			return err
		}
	}
	s.loadS = time.Since(t0).Seconds()
	s.node, err = startNode(sys, s)
	if err != nil {
		return err
	}
	s.url = s.node.url
	return nil
}

// loadJoinSides adds the same n papers once in DBLP and once in SIGMOD
// format, one paper per document, so every left document has a partner.
func (s *sut) loadJoinSides(sys *core.System, n int) error {
	jl, err := sys.AddInstance(joinLeft)
	if err != nil {
		return err
	}
	jr, err := sys.AddInstance(joinRight)
	if err != nil {
		return err
	}
	for i := 0; i < n && i < len(s.corpus.Papers); i++ {
		one := s.corpus.Papers[i : i+1]
		if _, err := jl.Col.PutXML(fmt.Sprintf("jl-%04d", i), strings.NewReader(s.corpus.DBLPString(one))); err != nil {
			return err
		}
		if _, err := jr.Col.PutXML(fmt.Sprintf("jr-%04d", i), strings.NewReader(s.corpus.SIGMODString(one))); err != nil {
			return err
		}
	}
	return nil
}

// setUpRouted starts the nodes empty (a tossd started with "-instance
// dblp="), puts tossrouter in front and loads the corpus through it.
func (s *sut) setUpRouted() error {
	var urls []string
	for i := 0; i < routedNodes; i++ {
		sys := newTossdSystem()
		if _, err := sys.AddInstance(mainInstance); err != nil {
			return err
		}
		n, err := startNode(sys, s)
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, n)
		urls = append(urls, n.url)
	}
	s.rtCli = router.NewClient()
	rt, err := router.New(router.Config{
		Nodes:  urls,
		Client: s.rtCli,
		Logger: log.New(io.Discard, "tossrouter: ", 0),
	})
	if err != nil {
		return err
	}
	s.rt = rt
	s.rtHTTP, s.url, err = listen(rt.Handler())
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := postDocs(http.DefaultClient, s.url, mainInstance, s.docs); err != nil {
		return fmt.Errorf("loading through the router: %w", err)
	}
	http.DefaultClient.CloseIdleConnections()
	s.loadS = time.Since(t0).Seconds()
	return nil
}

// postDocs sends docs as one NDJSON batch to /v1/docs and checks the summary.
func postDocs(c *http.Client, base, instance string, docs []doc) error {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, d := range docs {
		if err := enc.Encode(server.IngestLine{Key: d.key, XML: d.xml}); err != nil {
			return err
		}
	}
	resp, err := c.Post(base+"/v1/docs?instance="+instance, "application/x-ndjson", &body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var sum server.IngestResponse
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		return err
	}
	if sum.Ingested != len(docs) || sum.ErrorCount != 0 {
		return fmt.Errorf("ingested %d of %d, %d errors", sum.Ingested, len(docs), sum.ErrorCount)
	}
	return nil
}

// close stops every listener and background goroutine set-up started and
// waits for them.
func (s *sut) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.rtHTTP != nil {
		s.rtHTTP.Shutdown(ctx)
	}
	if s.rt != nil {
		s.rt.Close()
	}
	if s.rtCli != nil {
		s.rtCli.CloseIdleConnections()
	}
	all := s.nodes
	if s.node != nil {
		all = append(all, s.node)
	}
	for _, n := range all {
		n.http.Shutdown(ctx)
		for _, in := range n.sys.Instances {
			if err := in.Col.CloseWAL(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: closing wal: %v\n", err)
			}
		}
	}
}
