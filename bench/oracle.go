package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/server"
	"repro/internal/similarity"
	"repro/internal/tax"
	"repro/internal/tree"
)

// oracleSample is how many distinct requests of a larger pool are checked
// against the reference semantics; the rest are pinned to the first answer
// the server gives them during warm-up and compared against that.
const oracleSample = 64

// oracle computes the answer a request must get from the reference
// semantics alone: tax.Select (tax.Product + tax.Select for joins) over the
// raw documents of the collection with the system's condition evaluator —
// no index, planner, shard fan-out, stream pipeline or result cache.
type oracle struct {
	sys   *core.System            // where the documents and the ontology live
	views map[string]*core.System // measure|ε → pinned view, built once
}

func newOracle(sys *core.System) *oracle {
	return &oracle{sys: sys, views: map[string]*core.System{}}
}

// view returns the system pinned to the snapshot a request evaluates under:
// the live snapshot, or its re-enhancement for a measure/ε override —
// the same overlay the server builds, once, for such requests.
func (o *oracle) view(req *server.QueryRequest) (*core.System, error) {
	key := req.Measure + "|"
	if req.Eps != nil {
		key += strconv.FormatFloat(*req.Eps, 'g', -1, 64)
	}
	if v, ok := o.views[key]; ok {
		return v, nil
	}
	v, err := o.buildView(req)
	if err != nil {
		return nil, err
	}
	o.views[key] = v
	return v, nil
}

func (o *oracle) buildView(req *server.QueryRequest) (*core.System, error) {
	snap := o.sys.Ontology()
	if req.Measure == "" && req.Eps == nil {
		return o.sys.WithSnapshot(snap), nil
	}
	m := snap.Measure
	if req.Measure != "" {
		if m = similarity.ByName(req.Measure); m == nil {
			return nil, fmt.Errorf("unknown measure %q", req.Measure)
		}
	}
	eps := snap.Epsilon
	if req.Eps != nil {
		eps = *req.Eps
	}
	v, err := o.sys.SnapshotVariant(snap, m, eps)
	if err != nil {
		return nil, err
	}
	return o.sys.WithSnapshot(v), nil
}

// expect returns the verified answer of a class.
func (o *oracle) expect(c class) (expected, error) {
	req := c.req
	view, err := o.view(&req)
	if err != nil {
		return expected{}, err
	}
	pat, err := pattern.Parse(strings.Replace(req.Pattern, nonceMark, "v0", 1))
	if err != nil {
		return expected{}, err
	}
	var answers []server.Answer
	switch {
	case req.Ranked:
		answers, err = o.ranked(view, &req, pat)
	case req.Right != "":
		answers, err = o.join(view, &req, pat)
	default:
		answers, err = o.selection(view, &req, pat)
	}
	if err != nil {
		return expected{}, err
	}
	body, err := wireBytes(answers, req.Stream, view.OntologyVersion())
	if err != nil {
		return expected{}, err
	}
	return expected{hash: hashBytes(body), count: len(answers), oracle: true}, nil
}

func (o *oracle) docs(instance string) ([]*tree.Tree, error) {
	in := o.sys.Instance(instance)
	if in == nil {
		return nil, fmt.Errorf("unknown instance %q", instance)
	}
	return in.Col.Docs(), nil
}

func (o *oracle) selection(view *core.System, req *server.QueryRequest, pat *pattern.Tree) ([]server.Answer, error) {
	docs, err := o.docs(req.Instance)
	if err != nil {
		return nil, err
	}
	trees, err := tax.Select(tree.NewCollection(), docs, pat, req.SL, view.Evaluator())
	if err != nil {
		return nil, err
	}
	if req.Limit > 0 && len(trees) > req.Limit {
		trees = trees[:req.Limit]
	}
	return plainAnswers(trees), nil
}

func (o *oracle) join(view *core.System, req *server.QueryRequest, pat *pattern.Tree) ([]server.Answer, error) {
	ldocs, err := o.docs(req.Instance)
	if err != nil {
		return nil, err
	}
	rdocs, err := o.docs(req.Right)
	if err != nil {
		return nil, err
	}
	dst := tree.NewCollection()
	trees, err := tax.Select(dst, tax.Product(dst, ldocs, rdocs), pat, req.SL, view.Evaluator())
	if err != nil {
		return nil, err
	}
	return plainAnswers(trees), nil
}

// ranked scores every witness by the distance of its one `~` atom
// (#2.content against the literal) and keeps the best Limit, ties in
// document then binding order.
func (o *oracle) ranked(view *core.System, req *server.QueryRequest, pat *pattern.Tree) ([]server.Answer, error) {
	docs, err := o.docs(req.Instance)
	if err != nil {
		return nil, err
	}
	var lit string
	for _, a := range pattern.Atoms(pat.Cond) {
		if a.Op == pattern.OpSim {
			lit = a.Y.Value
		}
	}
	measure := view.Ontology().Measure
	dst := tree.NewCollection()
	compiled := tax.Compile(pat)
	ev := view.Evaluator()
	var answers []server.Answer
	for _, d := range docs {
		bindings, err := compiled.Embeddings(d, ev)
		if err != nil {
			return nil, err
		}
		for _, b := range bindings {
			wt := compiled.WitnessTree(dst, d, b, req.SL)
			if wt == nil {
				continue
			}
			score := measure.Distance(b.Get(2).Content, lit)
			answers = append(answers, server.Answer{XML: wt.XMLString(), Score: &score})
		}
	}
	sort.SliceStable(answers, func(i, j int) bool { return *answers[i].Score < *answers[j].Score })
	if req.Limit > 0 && len(answers) > req.Limit {
		answers = answers[:req.Limit]
	}
	return answers, nil
}

func plainAnswers(trees []*tree.Tree) []server.Answer {
	out := make([]server.Answer, len(trees))
	for i, t := range trees {
		out[i] = server.Answer{XML: t.XMLString()}
	}
	return out
}

// wireBytes renders answers the way the server puts them on the wire: for a
// stream, one JSON line per answer and the ontology_version trailer; for a
// materialized response, the answers array through the closing brace.
func wireBytes(answers []server.Answer, stream bool, version uint64) ([]byte, error) {
	var b bytes.Buffer
	if stream {
		enc := json.NewEncoder(&b)
		for _, a := range answers {
			if err := enc.Encode(a); err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(&b, "{\"ontology_version\":%d}\n", version)
		return b.Bytes(), nil
	}
	if answers == nil {
		answers = []server.Answer{}
	}
	arr, err := json.Marshal(answers)
	if err != nil {
		return nil, err
	}
	b.Write(arr)
	b.WriteString("}\n")
	return b.Bytes(), nil
}
