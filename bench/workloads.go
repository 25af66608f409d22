package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/tax"
)

// workload is one request class. Every workload is a single kind of request
// so that its latency distribution has one mode; what differs between two
// requests of a workload is the literal they look up.
type workload struct {
	name string
	why  string

	readers int // closed-loop clients
	repeat  int // consecutive sends of each distinct request (1 = every send misses the result cache)
	writer  bool
	routed  bool
	join    int // papers per join side, join_sim only
	traceN  int // requests of the traced run
}

// nonceMark is replaced, per distinct request, by a literal no document
// contains: `#1.content != "v<n>"` holds for every pattern root, so the
// answer set is untouched while the normalized pattern — the result-cache
// key — is new. No structure is added to the pattern, so the plan and the
// work per request stay those of the workload.
const nonceMark = "@NONCE@"

const nonceAtom = ` & #1.content != "` + nonceMark + `"`

// Client count equals nproc on the 2-core reference box: the load generator
// shares the process with the server, and more clients than cores would
// measure run-queue wait instead of the server.
var workloads = []workload{
	{
		name:    "point_select",
		why:     "author = name and title contains & author = name over 400 authors: index-bound (parse, rewrite, plan, value-index probe, intersection); scan speed must not move it",
		readers: 2, repeat: 1, traceN: 200,
	},
	{
		name:    "scan_select",
		why:     "every inproceedings matches, sl:[1], ~1 MB materialized answer: evaluation-bound (embedding search, witness building, encoding); index and planner work is negligible",
		readers: 2, repeat: 1, traceN: 50,
	},
	{
		name:    "sim_probe",
		why:     "author ~ one-edit typo, limit 10, 400 literals: simindex probe + verify, SEO lookup and the measure do the work; scan and encode changes must not move it",
		readers: 2, repeat: 1, traceN: 200,
	},
	{
		name:    "stream_first",
		why:     "the scan_select pattern with stream:true, limit 10: limit pushdown and the pull pipeline; first-result latency is the headline and docs scanned stays near the limit",
		readers: 2, repeat: 1, traceN: 200,
	},
	{
		name:    "join_sim",
		why:     "condition join jl x jr on title ~ title: join pairing and build-side choice, the only workload that runs the join operators",
		readers: 2, repeat: 1, join: 20, traceN: 50,
	},
	{
		name:    "mixed_rw",
		why:     "ranked top-10 ~ probes each sent 4 times (cache hit ratio 0.75) against a 10 batch/s open-loop NDJSON writer on a WAL-backed instance: read/write trade-offs show only here",
		readers: 1, repeat: 4, writer: true, traceN: 200,
	},
	{
		name:    "routed_select",
		why:     "booktitle = C & year = Y streamed through tossrouter over 3 nodes: scatter, target pruning, k-way merge and re-encode; compare with point_select for router cost",
		readers: 2, repeat: 1, routed: true, traceN: 200,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// class is one distinct answer set of a workload: a wire request whose
// pattern still carries nonceMark.
type class struct {
	req server.QueryRequest
}

// body renders the request for one nonce.
func (c class) body(nonce int) []byte {
	req := c.req
	req.Pattern = strings.Replace(req.Pattern, nonceMark, "v"+strconv.Itoa(nonce), 1)
	b, err := json.Marshal(&req)
	if err != nil {
		panic(err) // a struct of strings, ints and bools always marshals
	}
	return b
}

// pool is a workload's request generator: the classes in a seeded order.
// Send number i carries class order[(i/repeat) mod len] and nonce i/repeat,
// so a request repeats only inside its group of `repeat` consecutive sends.
type pool struct {
	classes []class
	order   []int
	repeat  int
}

func (p *pool) at(i int) (classID int, body []byte) {
	g := i / p.repeat
	classID = p.order[g%len(p.order)]
	return classID, p.classes[classID].body(g)
}

// simOverride makes a request use edit distance at ε=2 instead of the
// server's name-rule measure: the similarity candidate index only serves
// measures whose fallback it can filter completely, and the name-rule
// measure tossd defaults to is not one of them.
func simOverride(req *server.QueryRequest) {
	eps := 2.0
	req.Measure = "levenshtein"
	req.Eps = &eps
}

// dropRune removes the rune at position pos·len/den: a one-edit typo.
func dropRune(s string, pos, den int) string {
	r := []rune(s)
	i := len(r) * pos / den
	return string(append(append([]rune(nil), r[:i]...), r[i+1:]...))
}

func authorTypos(corpus *datagen.Corpus, cuts [][2]int) []string {
	var out []string
	seen := map[string]bool{}
	for _, cut := range cuts {
		for _, a := range corpus.Authors {
			t := dropRune(a.Canonical(), cut[0], cut[1])
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// newPool builds the workload's classes from the generated corpus and
// orders them with the seed. Only the corpus and the seed go in, so the
// same seed yields a byte-identical request list.
func newPool(w *workload, corpus *datagen.Corpus, seed int64) *pool {
	var classes []class
	add := func(req server.QueryRequest) { classes = append(classes, class{req: req}) }
	const scanPattern = `#1 pc #2 :: #1.tag = "inproceedings" & #2.tag = "year" & #2.content >= "1000"` + nonceAtom
	switch w.name {
	case "point_select":
		for _, a := range corpus.Authors {
			add(server.QueryRequest{Instance: mainInstance, SL: []int{1}, Pattern: fmt.Sprintf(
				`#1 pc #2 :: #1.tag = "inproceedings" & #2.tag = "author" & #2.content = %q`, a.Canonical()) + nonceAtom})
			add(server.QueryRequest{Instance: mainInstance, SL: []int{1}, Pattern: fmt.Sprintf(
				`#1 pc #2, #1 pc #3 :: #1.tag = "inproceedings" & #2.tag = "title" & #3.tag = "author" & #2.content contains "a" & #3.content = %q`,
				a.Canonical()) + nonceAtom})
		}
	case "scan_select":
		add(server.QueryRequest{Instance: mainInstance, SL: []int{1}, Pattern: scanPattern})
	case "stream_first":
		add(server.QueryRequest{Instance: mainInstance, SL: []int{1}, Pattern: scanPattern, Stream: true, Limit: 10})
	case "sim_probe":
		for _, lit := range authorTypos(corpus, [][2]int{{1, 2}}) {
			req := server.QueryRequest{Instance: mainInstance, SL: []int{1}, Limit: 10, Pattern: fmt.Sprintf(
				`#1 pc #2 :: #1.tag = "inproceedings" & #2.tag = "author" & #2.content ~ %q`, lit) + nonceAtom}
			simOverride(&req)
			add(req)
		}
	case "mixed_rw":
		lits := authorTypos(corpus, [][2]int{{1, 2}, {1, 3}, {2, 3}})
		rand.New(rand.NewSource(seed)).Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
		if len(lits) > 1024 {
			lits = lits[:1024]
		}
		for _, lit := range lits {
			req := server.QueryRequest{Instance: mainInstance, SL: []int{1}, Limit: 10, Ranked: true, Pattern: fmt.Sprintf(
				`#1 pc #2 :: #1.tag = "inproceedings" & #2.tag = "author" & #2.content ~ %q`, lit) + nonceAtom}
			simOverride(&req)
			add(req)
		}
	case "join_sim":
		add(server.QueryRequest{Instance: joinLeft, Right: joinRight, SL: []int{2, 3}, Pattern: fmt.Sprintf(
			`#1 pc #2, #1 pc #3, #2 ad #4, #3 ad #5 :: #1.tag = %q & #2.tag = "dblp" & #3.tag = "ProceedingsPage" & #4.tag = "title" & #5.tag = "title" & #4.content ~ #5.content`,
			tax.ProdRootTag) + nonceAtom})
	case "routed_select":
		cfg := corpus.Config
		for _, conf := range corpus.Conferences {
			for y := cfg.StartYear; y <= cfg.EndYear; y++ {
				add(server.QueryRequest{Instance: mainInstance, SL: []int{1}, Stream: true, Pattern: fmt.Sprintf(
					`#1 pc #2, #1 pc #3 :: #1.tag = "inproceedings" & #2.tag = "booktitle" & #2.content = %q & #3.tag = "year" & #3.content = "%d"`,
					conf.Short, y) + nonceAtom})
			}
		}
	default:
		panic("bench: no pool for workload " + w.name)
	}
	p := &pool{classes: classes, repeat: w.repeat}
	p.order = rand.New(rand.NewSource(seed + 1)).Perm(len(classes))
	return p
}
