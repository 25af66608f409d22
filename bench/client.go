package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"time"
)

// hashSeed keys every answer hash of this process.
var hashSeed = maphash.MakeSeed()

func hashBytes(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// client is one closed-loop user: a single keep-alive connection, a reused
// read buffer, and the next request sent only after the last reply is read
// to its final byte.
type client struct {
	http *http.Client
	url  string
	buf  []byte
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		url: base + "/v1/query",
		buf: make([]byte, 0, 2<<20),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is what the client saw of one response. body aliases the client's
// buffer and is valid until the next call.
type reply struct {
	status  int
	body    []byte
	header  http.Header
	first   time.Duration // send → first body byte
	latency time.Duration // send → last body byte
}

func (c *client) do(body []byte) (reply, error) {
	start := time.Now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode, header: resp.Header}
	buf := c.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		if n > 0 && r.first == 0 {
			r.first = time.Since(start)
		}
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return reply{}, err
		}
	}
	r.latency = time.Since(start)
	if r.first == 0 {
		r.first = r.latency
	}
	c.buf, r.body = buf, buf
	return r, nil
}

// expected is the verified answer of one request class: what every later
// response of the class must hash to.
type expected struct {
	hash   uint64
	count  int
	oracle bool // checked against the reference semantics, not only against itself
}

// answersKey starts the answers array of a non-streamed JSON response;
// everything from there to the end of the body is a function of the answers
// alone (elapsed_ms and cached come before it, analyze is never requested).
var answersKey = []byte(`,"answers":`)

// envelope is the part of a JSON response in front of the answers.
type envelope struct {
	Count           int    `json:"count"`
	Cached          bool   `json:"cached"`
	OntologyVersion uint64 `json:"ontology_version"`
}

// digest reduces a 200 response to what verification compares: the hash of
// its answer bytes, the answer count, and the cached flag. Streamed bodies
// hash whole — every answer line and the ontology_version trailer.
func digest(r reply, stream bool) (h uint64, count int, cached bool, err error) {
	if stream {
		n := bytes.Count(r.body, []byte{'\n'})
		if n == 0 || r.body[len(r.body)-1] != '\n' {
			return 0, 0, false, fmt.Errorf("stream body does not end in a complete line")
		}
		return hashBytes(r.body), n - 1, false, nil
	}
	i := bytes.Index(r.body, answersKey)
	if i < 0 {
		return 0, 0, false, fmt.Errorf("response has no answers member")
	}
	var env envelope
	head := append(append([]byte(nil), r.body[:i]...), '}')
	if err := json.Unmarshal(head, &env); err != nil {
		return 0, 0, false, fmt.Errorf("malformed response envelope: %w", err)
	}
	return hashBytes(r.body[i+len(answersKey):]), env.Count, env.Cached, nil
}

// verdict classifies one response against the class's verified answer. A
// non-200 (429 and timeouts included), a malformed body, a cached answer on
// a workload whose requests never repeat, and answer bytes that differ from
// the verified ones are all failures.
func verdict(r reply, stream, mayCache bool, want expected) (cached bool, err error) {
	if r.status != http.StatusOK {
		return false, fmt.Errorf("status %d", r.status)
	}
	h, count, cached, err := digest(r, stream)
	if err != nil {
		return false, err
	}
	if cached && !mayCache {
		return cached, fmt.Errorf("cached:true on a request that never repeats")
	}
	if count != want.count || h != want.hash {
		return cached, fmt.Errorf("answer differs from the verified one (count %d, want %d)", count, want.count)
	}
	return cached, nil
}
