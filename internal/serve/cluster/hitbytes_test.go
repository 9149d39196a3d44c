package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// A cache hit is served from stored bytes: the request memo maps a
// body it has seen to its key without a decode, and the LRU entry holds the hit's
// JSON body and frame. These tests pin that the bytes are the ones the
// encoder gives the verdict with "cached" set — its one per-request
// field — on every path a hit takes.

// hitClass is one verdict class as the identity test drives it.
type hitClass struct {
	name        string
	path, batch string // batch "" when the class has no batch endpoint
	body        string
	verdict     func() any // a fresh decode target for its verdict
}

var hitClasses = []hitClass{
	{"classify", "/v1/classify", "", `{"scheme":"S1"}`, func() any { return new(serve.ClassifyResponse) }},
	{"fixed", "/v1/solvable", "/v1/solve/batch", `{"scheme":"S1","horizon":3}`, func() any { return new(wire.Solvable) }},
	{"minrounds", "/v1/solvable", "/v1/solve/batch", `{"scheme":"S1","minRounds":true,"maxHorizon":4}`, func() any { return new(wire.Solvable) }},
	{"net", "/v1/net/solvable", "/v1/net/solve/batch", `{"graph":"cycle","n":4,"f":1,"rounds":2}`, func() any { return new(wire.NetSolvable) }},
}

// padItem pads an item with whitespace inside its object, past the
// memo's 1 KiB cap, so neither it nor a batch holding it is memoized.
func padItem(body string) string { return "{" + strings.Repeat(" ", 1100) + body[1:] }

// singles and batches are the bodies of a class that a hit must
// answer identically: memoizable ones and padded ones.
func (c hitClass) singles() []string {
	return []string{c.body, c.body + strings.Repeat(" ", 1100)}
}

func (c hitClass) batches() []string {
	return []string{
		`{"items":[` + c.body + `,` + c.body + `]}`,
		"{\"items\":[\n  " + c.body + " ,\n\t" + c.body + "\n] }\n",
		`{"items":[` + padItem(c.body) + `,` + c.body + `]}`,
	}
}

// wantHit is the expected reply to a hit: the verdict v decoded from
// a reply of the class, with cached set.
type wantHit struct {
	v any
}

func (c hitClass) wantFrom(t *testing.T, raw []byte) wantHit {
	t.Helper()
	v := c.verdict()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: decoding %s: %v", c.name, raw, err)
	}
	switch v := v.(type) {
	case *serve.ClassifyResponse:
		v.Cached = true
	case *wire.Solvable:
		v.Cached = true
	case *wire.NetSolvable:
		v.Cached = true
	}
	return wantHit{v}
}

// single is the hit reply's Content-Type and body in one encoding.
func (w wantHit) single(t *testing.T, frames bool) (string, []byte) {
	t.Helper()
	if frames {
		if b, err := wire.Marshal(w.v); err == nil {
			return wire.MediaTypeVerdict, b
		}
		// Classify has no frame kind: a frames caller gets JSON.
	}
	b, err := json.Marshal(w.v)
	if err != nil {
		t.Fatal(err)
	}
	return "application/json", append(b, '\n')
}

// lines is the batch reply of n hit lines in one encoding.
func (w wantHit) lines(t *testing.T, n int, frames bool) (string, []byte) {
	t.Helper()
	var out []byte
	for i := 0; i < n; i++ {
		line := &wire.BatchLine{Index: i, Status: http.StatusOK, Verdict: w.v}
		if frames {
			b, err := wire.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
			continue
		}
		b, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	if frames {
		return wire.MediaTypeVerdictStream, out
	}
	return "application/x-ndjson", out
}

// hitTarget is one server a hit is sent to, and its cacheHits counter.
type hitTarget struct {
	name    string
	url     string
	hits    func() int64
	cluster bool
}

// checkHits sends every body of every class to target in both
// encodings, twice over (the first send of a memoizable body fills the
// memo, the second is served from it), and checks each reply's status,
// Content-Type, body, X-Cluster-Cache on a coordinator single, and that
// cacheHits grows by one per item.
func checkHits(t *testing.T, target hitTarget, want map[string]wantHit) {
	t.Helper()
	for _, c := range hitClasses {
		w := want[c.name]
		for _, frames := range []bool{false, true} {
			accept, streamAccept := "", ""
			if frames {
				accept, streamAccept = wire.AcceptVerdict, wire.AcceptVerdictStream
			}
			for round := 0; round < 2; round++ {
				for _, body := range c.singles() {
					before := target.hits()
					resp, raw := post(t, target.url+c.path, accept, body)
					ct, wb := w.single(t, frames)
					where := fmt.Sprintf("%s %s single (frames %v, round %d, %d-byte body)", target.name, c.name, frames, round, len(body))
					checkReply(t, where, resp, raw, ct, wb)
					if got := target.hits() - before; got != 1 {
						t.Fatalf("%s: cacheHits grew by %d, want 1", where, got)
					}
					if tier := resp.Header.Get("X-Cluster-Cache"); target.cluster && tier != "hit" {
						t.Fatalf("%s: X-Cluster-Cache %q, want hit", where, tier)
					}
				}
				if c.batch == "" {
					continue
				}
				for _, body := range c.batches() {
					before := target.hits()
					resp, raw := post(t, target.url+c.batch, streamAccept, body)
					ct, wb := w.lines(t, 2, frames)
					where := fmt.Sprintf("%s %s batch (frames %v, round %d): %q", target.name, c.name, frames, round, body)
					checkReply(t, where, resp, raw, ct, wb)
					if got := target.hits() - before; got != 2 {
						t.Fatalf("%s: cacheHits grew by %d, want 2", where, got)
					}
				}
			}
		}
	}
}

func checkReply(t *testing.T, where string, resp *http.Response, raw []byte, ct string, want []byte) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", where, resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Content-Type"); got != ct {
		t.Fatalf("%s: Content-Type %q, want %q", where, got, ct)
	}
	if string(raw) != string(want) {
		t.Fatalf("%s: body\n %q\nwant\n %q", where, raw, want)
	}
}

// TestHitBytesIdenticalOnEveryPath sends every class — classify,
// solvable at a fixed horizon and by MinRounds, net — as single and
// batch requests, in JSON and frames, to a node hit, a coordinator hit,
// a node rebooted on its warm store, and with bodies padded past the
// memo cap, and checks every reply against the encoder's bytes for the
// verdict with cached set. It also sends memoized hits from several
// goroutines at once: they share the memo and the stored bytes.
func TestHitBytesIdenticalOnEveryPath(t *testing.T) {
	warm := filepath.Join(t.TempDir(), "node.seg")
	node := serve.New(serve.Config{MaxHorizon: 13, WarmStorePath: warm, Logf: quietLogf})
	nts := httptest.NewServer(node.Handler())
	defer nts.Close()

	want := map[string]wantHit{}
	for _, c := range hitClasses {
		resp, raw := post(t, nts.URL+c.path, "", c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s miss: %d %s", c.name, resp.StatusCode, raw)
		}
		want[c.name] = c.wantFrom(t, raw)
	}
	checkHits(t, hitTarget{name: "node", url: nts.URL, hits: func() int64 { return node.Varz().CacheHits }}, want)

	// Memoized hits from several goroutines at once.
	wantJSON := map[string][]byte{}
	for _, c := range hitClasses {
		_, wantJSON[c.name] = want[c.name].single(t, false)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				c := hitClasses[(g+i)%len(hitClasses)]
				wb := wantJSON[c.name]
				resp, err := http.Post(nts.URL+c.path, "application/json", strings.NewReader(c.body))
				if err != nil {
					t.Error(err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || string(raw) != string(wb) {
					t.Errorf("concurrent node hit %s: %d %q (%v), want %q", c.name, resp.StatusCode, raw, err, wb)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	nts.Close()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	rebooted := serve.New(serve.Config{MaxHorizon: 13, WarmStorePath: warm, Logf: quietLogf})
	defer rebooted.Close()
	rts := httptest.NewServer(rebooted.Handler())
	defer rts.Close()
	checkHits(t, hitTarget{name: "rebooted node", url: rts.URL, hits: func() int64 { return rebooted.Varz().CacheHits }}, want)

	co, cts, _ := testCluster(t, 3, nil)
	for _, c := range hitClasses {
		if resp, raw := post(t, cts.URL+c.path, "", c.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("coordinator %s miss: %d %s", c.name, resp.StatusCode, raw)
		}
	}
	checkHits(t, hitTarget{name: "coordinator", url: cts.URL, hits: func() int64 { return co.StatsSnapshot().CacheHits }, cluster: true}, want)
}
