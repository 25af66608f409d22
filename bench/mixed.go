package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/tree"
	"repro/internal/xmldb"
)

const (
	batchInterval = 100 * time.Millisecond
	batchFresh    = 9  // fresh puts per batch
	batchReplace  = 2  // puts over existing keys per batch
	deleteLag     = 50 // a batch deletes the fresh keys put this many batches earlier
	replaceEvery  = 10 // the scheduled writer's replacements ride on every this-many-th batch
	fillerKeys    = 16 // keys the replacements cycle over
	probeLag      = 5
	probeFor      = 500 * time.Millisecond // how long the post-window write probe keeps sending
)

// writerDoc renders a document no reader request can match: the author is a
// digit string dozens of edits from every name in the corpus, so the
// reference answers stay valid while the collection changes under them.
func writerDoc(key string, rev int) string {
	return fmt.Sprintf("<dblp>\n<inproceedings key=%q>\n<author>W%016d Q%08d</author>\n<title>Writer Batch Record %d</title>\n<pages>1-2</pages>\n<year>1990</year>\n<booktitle>BENCH</booktitle>\n</inproceedings>\n</dblp>\n",
		key, rev, rev, rev)
}

// writer posts NDJSON batches to /v1/docs and remembers what was
// acknowledged: batch b puts 9 fresh keys, deletes the 9 that batch b-lag
// put, and — every replace-th batch — overwrites 2 of the filler keys, so
// after the first lag batches the collection holds steady at corpus + 9·lag
// + fillers documents.
type writer struct {
	http    *http.Client
	url     string
	lag     int
	replace int // every replace-th batch overwrites batchReplace filler keys; 0 = none does
	next    int // next batch number

	mu    sync.Mutex
	acked map[string]string // key → last acknowledged XML; "" = acknowledged delete
	lost  map[string]bool   // keys whose state is unknown (their batch failed)

	replaced int // overwrites of an existing key acknowledged so far
}

func newWriter(base, instance string, lag, replace int) *writer {
	return &writer{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		url:  base + "/v1/docs?instance=" + instance,
		lag:  lag, replace: replace, acked: map[string]string{}, lost: map[string]bool{},
	}
}

func (w *writer) close() { w.http.CloseIdleConnections() }

func freshKey(batch, j int) string { return fmt.Sprintf("w-%06d-%d", batch, j) }

// post sends the next batch and records it as acknowledged only when the
// summary line reports every line applied.
func (w *writer) post() error {
	b := w.next
	w.next++
	var lines []server.IngestLine
	for j := 0; j < batchFresh; j++ {
		k := freshKey(b, j)
		lines = append(lines, server.IngestLine{Key: k, XML: writerDoc(k, b)})
	}
	if b >= w.lag {
		for j := 0; j < batchFresh; j++ {
			lines = append(lines, server.IngestLine{Key: freshKey(b-w.lag, j), Delete: true})
		}
	}
	overwrites := 0
	for j := 0; j < batchReplace && w.replace > 0 && b%w.replace == 0; j++ {
		k := fmt.Sprintf("fill-%02d", (b*batchReplace+j)%fillerKeys)
		if b*batchReplace+j >= fillerKeys {
			overwrites++
		}
		lines = append(lines, server.IngestLine{Key: k, XML: writerDoc(k, b)})
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	err := w.send(&body, len(lines))
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, l := range lines {
		switch {
		case err != nil:
			w.lost[l.Key] = true
		case l.Delete:
			w.acked[l.Key] = ""
		default:
			w.acked[l.Key] = l.XML
		}
	}
	if err == nil {
		w.replaced += overwrites
	}
	return err
}

func (w *writer) send(body io.Reader, lines int) error {
	resp, err := w.http.Post(w.url, "application/x-ndjson", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	var sum server.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		return fmt.Errorf("malformed summary: %w", err)
	}
	if sum.ErrorCount != 0 || sum.Ingested+sum.Deleted != lines {
		return fmt.Errorf("batch applied %d of %d lines, %d errors", sum.Ingested+sum.Deleted, lines, sum.ErrorCount)
	}
	return nil
}

// writeSample is one batch of the open-loop schedule.
type writeSample struct {
	end     time.Duration // completion, relative to the schedule's origin
	latency time.Duration // scheduled send time → summary line
	late    time.Duration // how long after its scheduled time the batch was sent
	err     error
}

// run ramps the collection in with lag back-to-back batches, closes ramped,
// then posts one batch every batchInterval until stop closes. A batch is
// timed from the moment it was due, so a stall charges the batches queued
// behind it.
func (w *writer) run(stop <-chan struct{}, ramped chan<- struct{}) (origin time.Time, out []writeSample, rampErr error) {
	for i := 0; i < w.lag && rampErr == nil; i++ {
		if err := w.post(); err != nil {
			rampErr = fmt.Errorf("ramp-in batch %d: %w", i, err)
		}
	}
	close(ramped)
	if rampErr != nil {
		return time.Time{}, nil, rampErr
	}
	origin = time.Now()
	for k := 0; ; k++ {
		due := origin.Add(time.Duration(k) * batchInterval)
		select {
		case <-stop:
			return origin, out, nil
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		err := w.post()
		done := time.Now()
		out = append(out, writeSample{end: done.Sub(origin), latency: done.Sub(due), late: sent.Sub(due), err: err})
	}
}

// probe is the write-path figure: after the measured window, batches of 9
// puts and 9 deletes, closed loop, against the otherwise idle server for
// probeFor. It carries no replacements: one would invalidate its shard's
// indexes, no query would rebuild them, and every later put would skip index
// maintenance — the probe would time two different write paths and report
// whichever the clock favoured. The caller sends one query first so the
// indexes are built when it starts. It returns each batch's latency.
func (w *writer) probe() ([]float64, error) {
	w.replace = 0
	var lat []float64
	for end := time.Now().Add(probeFor); len(lat) == 0 || time.Now().Before(end); {
		t0 := time.Now()
		if err := w.post(); err != nil {
			return lat, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat, nil
}

// checkDurable reopens the WAL directory in a fresh collection and compares
// it with what the writer saw acknowledged: every acknowledged put present
// with its last content, every acknowledged delete absent, and the document
// count equal to the seed corpus plus the live writer keys. It returns how
// many facts it checked and how many did not hold.
func (w *writer) checkDurable(walDir string, corpusDocs int) (checked, failed int, err error) {
	db := xmldb.New()
	db.SetDefaultShards(runtime.GOMAXPROCS(0))
	col := db.CreateCollection(mainInstance)
	if err := col.OpenWAL(walDir, xmldb.WALOptions{MaxBytes: -1}); err != nil {
		return 0, 0, fmt.Errorf("recovering %s: %w", walDir, err)
	}
	defer col.CloseWAL()
	w.mu.Lock()
	defer w.mu.Unlock()
	live := 0
	for key, xml := range w.acked {
		if w.lost[key] {
			continue
		}
		checked++
		got := col.Doc(key)
		if xml == "" {
			if got != nil {
				failed++
			}
			continue
		}
		live++
		want, perr := tree.NewCollection().ParseXMLString(xml)
		if perr != nil {
			return checked, failed, perr
		}
		if got == nil || got.XMLString() != want.XMLString() {
			failed++
		}
	}
	if len(w.lost) == 0 {
		checked++
		if col.DocCount() != corpusDocs+live {
			failed++
		}
	}
	return checked, failed, nil
}
