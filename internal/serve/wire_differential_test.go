package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve/client"
	"repro/internal/serve/wire"
)

// The endpoint differential suite: every verdict a node serves must be
// identical through the JSON and binary encodings — same fields, same
// values, same per-item error shapes — so a client's encoding choice
// can never change what it learns.

// postAccept is postJSON with an explicit Accept header.
func postAccept(t *testing.T, url, body, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// normalizeVerdict zeroes the cached flag, the one field that
// legitimately differs between two answers for the same key.
func normalizeVerdict(v any) {
	switch t := v.(type) {
	case *wire.Solvable:
		t.Cached = false
	case *wire.NetSolvable:
		t.Cached = false
	}
}

// TestSingleEndpointBinaryDifferential drives each single-verdict
// endpoint twice — once negotiating JSON, once frames — and requires
// the decoded verdicts to be equal modulo serving metadata.
func TestSingleEndpointBinaryDifferential(t *testing.T) {
	cases := []struct {
		name, path, body string
		fresh            func() any
	}{
		{"solvable", "/v1/solvable", `{"scheme":"S1","horizon":3}`, func() any { return new(wire.Solvable) }},
		{"solvable-minrounds", "/v1/solvable", `{"scheme":"S2","minRounds":true,"maxHorizon":4}`, func() any { return new(wire.Solvable) }},
		{"net-solvable", "/v1/net/solvable", `{"graph":"cycle","n":4,"f":1,"rounds":2}`, func() any { return new(wire.NetSolvable) }},
		{"chaos", "/v1/chaos", `{"scheme":"S1","executions":25,"seed":7,"maxRounds":64,"maxPrefix":4,"noShrink":true}`, func() any { return new(wire.Chaos) }},
	}
	_, ts := testServer(t, Config{})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jresp, jraw := postJSON(t, ts.URL+c.path, c.body)
			if jresp.StatusCode != http.StatusOK {
				t.Fatalf("JSON %s = %d: %s", c.path, jresp.StatusCode, jraw)
			}
			bresp, braw := postAccept(t, ts.URL+c.path, c.body, wire.AcceptVerdict)
			if bresp.StatusCode != http.StatusOK {
				t.Fatalf("binary %s = %d: %s", c.path, bresp.StatusCode, braw)
			}
			if ct := bresp.Header.Get("Content-Type"); ct != wire.MediaTypeVerdict {
				t.Fatalf("binary Content-Type = %q, want %q", ct, wire.MediaTypeVerdict)
			}
			if !wire.IsFrame(braw) {
				t.Fatalf("binary body is not a frame: %q", braw)
			}
			if len(braw) >= len(jraw) {
				t.Fatalf("frame (%d bytes) is not smaller than JSON (%d bytes)", len(braw), len(jraw))
			}
			jv, bv := c.fresh(), c.fresh()
			if err := json.Unmarshal(jraw, jv); err != nil {
				t.Fatal(err)
			}
			if err := wire.UnmarshalInto(braw, bv); err != nil {
				t.Fatalf("decoding frame: %v", err)
			}
			normalizeVerdict(jv)
			normalizeVerdict(bv)
			if !reflect.DeepEqual(jv, bv) {
				t.Fatalf("binary verdict differs from JSON:\n bin %#v\njson %#v", bv, jv)
			}
		})
	}
}

// batchCase is one batch endpoint with a mixed item set (valid, invalid,
// repeat) and the typed decode for its verdicts.
type batchCase struct {
	name, path string
	items      []string
	badIdx     int
	fresh      func() any
}

func batchCases() []batchCase {
	return []batchCase{
		{
			name: "solve", path: "/v1/solve/batch",
			items: []string{
				`{"scheme":"S1","horizon":2}`,
				`{"scheme":"no-such-scheme","horizon":2}`,
				`{"scheme":"S2","horizon":3}`,
				`{"scheme":"S1","horizon":2}`,
			},
			badIdx: 1,
			fresh:  func() any { return new(wire.Solvable) },
		},
		{
			name: "net-solve", path: "/v1/net/solve/batch",
			items: []string{
				`{"graph":"cycle","n":4,"f":1,"rounds":2}`,
				`{"graph":"complete","n":50,"f":1,"rounds":2}`,
				`{"graph":"cycle","n":5,"f":1,"rounds":3}`,
			},
			badIdx: 1,
			fresh:  func() any { return new(wire.NetSolvable) },
		},
		{
			name: "chaos", path: "/v1/chaos/batch",
			items: []string{
				`{"scheme":"S1","executions":10,"seed":7,"maxRounds":32,"maxPrefix":3,"noShrink":true}`,
				`{"scheme":"S1","executions":999999999}`,
				`{"scheme":"S1","executions":15,"seed":9,"maxRounds":32,"maxPrefix":3,"noShrink":true}`,
			},
			badIdx: 1,
			fresh:  func() any { return new(wire.Chaos) },
		},
	}
}

// jsonBatchLine is the raw-verdict JSON decode of one stream line, so
// one shape serves all three endpoints.
type jsonBatchLine struct {
	Index   int             `json:"index"`
	Status  int             `json:"status"`
	Verdict json.RawMessage `json:"verdict,omitempty"`
	Error   string          `json:"error,omitempty"`
	DiagID  string          `json:"diagId,omitempty"`
}

// TestBatchEndpointsBinaryDifferential runs each batch endpoint's mixed
// item set against two fresh nodes — one speaking JSON lines, one
// frames — and requires identical per-item statuses, errors, and
// verdicts. Fresh nodes on both sides keep cache states symmetric, so
// even the in-batch repeat behaves the same.
func TestBatchEndpointsBinaryDifferential(t *testing.T) {
	for _, c := range batchCases() {
		t.Run(c.name, func(t *testing.T) {
			body := `{"items":[` + strings.Join(c.items, ",") + `]}`

			_, jts := testServer(t, Config{})
			jresp, jraw := postJSON(t, jts.URL+c.path, body)
			if jresp.StatusCode != http.StatusOK {
				t.Fatalf("JSON batch = %d: %s", jresp.StatusCode, jraw)
			}
			if ct := jresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Fatalf("JSON batch Content-Type = %q", ct)
			}
			var jlines []jsonBatchLine
			for _, ln := range strings.Split(strings.TrimSpace(string(jraw)), "\n") {
				var l jsonBatchLine
				if err := json.Unmarshal([]byte(ln), &l); err != nil {
					t.Fatalf("bad JSON line %q: %v", ln, err)
				}
				jlines = append(jlines, l)
			}

			_, bts := testServer(t, Config{})
			bresp, braw := postAccept(t, bts.URL+c.path, body, wire.AcceptVerdictStream)
			if bresp.StatusCode != http.StatusOK {
				t.Fatalf("binary batch = %d: %s", bresp.StatusCode, braw)
			}
			if ct := bresp.Header.Get("Content-Type"); ct != wire.MediaTypeVerdictStream {
				t.Fatalf("binary batch Content-Type = %q, want %q", ct, wire.MediaTypeVerdictStream)
			}
			var blines []*wire.BatchLine
			sc := wire.NewFrameScanner(strings.NewReader(string(braw)), 0)
			for {
				kind, payload, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("scanning binary batch stream: %v", err)
				}
				if kind != wire.KindBatchLine {
					t.Fatalf("stream frame kind = %v, want batchline", kind)
				}
				l, err := wire.DecodeBatchLine(payload)
				if err != nil {
					t.Fatal(err)
				}
				blines = append(blines, l)
			}

			if len(braw) >= len(jraw) {
				t.Fatalf("binary stream (%d bytes) is not smaller than JSON (%d bytes)", len(braw), len(jraw))
			}
			if len(jlines) != len(c.items) || len(blines) != len(c.items) {
				t.Fatalf("line counts: json=%d binary=%d want %d", len(jlines), len(blines), len(c.items))
			}
			for i := range c.items {
				jl, bl := jlines[i], blines[i]
				if jl.Index != i || bl.Index != i {
					t.Fatalf("line %d indexes: json=%d binary=%d", i, jl.Index, bl.Index)
				}
				if jl.Status != bl.Status {
					t.Fatalf("item %d status: json=%d binary=%d", i, jl.Status, bl.Status)
				}
				if i == c.badIdx {
					if jl.Status != http.StatusBadRequest || jl.Error == "" || bl.Error == "" {
						t.Fatalf("invalid item %d: json=%+v binary=%+v, want per-item 400s", i, jl, bl)
					}
					if jl.Error != bl.Error {
						t.Fatalf("item %d error text: json=%q binary=%q", i, jl.Error, bl.Error)
					}
					continue
				}
				if jl.Status != http.StatusOK {
					t.Fatalf("item %d: json status %d: %+v", i, jl.Status, jl)
				}
				jv := c.fresh()
				if err := json.Unmarshal(jl.Verdict, jv); err != nil {
					t.Fatal(err)
				}
				normalizeVerdict(jv)
				normalizeVerdict(bl.Verdict)
				if !reflect.DeepEqual(jv, bl.Verdict) {
					t.Fatalf("item %d verdict differs:\n bin %#v\njson %#v", i, bl.Verdict, jv)
				}
			}
		})
	}
}

// TestWarmServedBinaryDifferential is the warm-tier differential: every
// verdict computed by one node and served from the warm store by its
// successor must equal the original, normalized, through both
// encodings. The binary response must be a frame even though the store
// was written by a node that persisted it before any client asked for
// frames.
func TestWarmServedBinaryDifferential(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.bin")
	queries := []struct {
		path, body string
		fresh      func() any
	}{
		{"/v1/solvable", `{"scheme":"S1","horizon":9}`, func() any { return new(wire.Solvable) }},
		{"/v1/solvable", `{"scheme":"S2","minus":["(b)"],"horizon":5}`, func() any { return new(wire.Solvable) }},
		{"/v1/solvable", `{"scheme":"S2","minRounds":true,"maxHorizon":4}`, func() any { return new(wire.Solvable) }},
		{"/v1/net/solvable", `{"graph":"cycle","n":4,"f":1,"rounds":2}`, func() any { return new(wire.NetSolvable) }},
	}

	_, ts1 := testServer(t, Config{WarmStorePath: path})
	first := make([]any, len(queries))
	for i, q := range queries {
		resp, raw := postJSON(t, ts1.URL+q.path, q.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node 1 %s = %d: %s", q.body, resp.StatusCode, raw)
		}
		first[i] = q.fresh()
		if err := json.Unmarshal(raw, first[i]); err != nil {
			t.Fatal(err)
		}
		normalizeVerdict(first[i])
	}
	ts1.Close()

	s2, ts2 := testServer(t, Config{WarmStorePath: path})
	if s2.warmLoaded != len(queries) {
		t.Fatalf("node 2 loaded %d warm verdicts, want %d", s2.warmLoaded, len(queries))
	}
	for i, q := range queries {
		jresp, jraw := postJSON(t, ts2.URL+q.path, q.body)
		bresp, braw := postAccept(t, ts2.URL+q.path, q.body, wire.AcceptVerdict)
		if jresp.StatusCode != http.StatusOK || bresp.StatusCode != http.StatusOK {
			t.Fatalf("node 2 %s: json=%d binary=%d", q.body, jresp.StatusCode, bresp.StatusCode)
		}
		if !wire.IsFrame(braw) {
			t.Fatalf("warm-served binary body is not a frame: %q", braw)
		}
		jv, bv := q.fresh(), q.fresh()
		if err := json.Unmarshal(jraw, jv); err != nil {
			t.Fatal(err)
		}
		if err := wire.UnmarshalInto(braw, bv); err != nil {
			t.Fatal(err)
		}
		normalizeVerdict(jv)
		normalizeVerdict(bv)
		if !reflect.DeepEqual(jv, first[i]) || !reflect.DeepEqual(bv, first[i]) {
			t.Fatalf("warm verdict for %s drifted:\n json %#v\n  bin %#v\nfirst %#v", q.body, jv, bv, first[i])
		}
	}
	if runs := s2.engine.runs.Load(); runs != 0 {
		t.Fatalf("node 2 ran the engine %d times instead of serving the warm verdicts", runs)
	}
}

// TestWarmSegmentExportImport covers the export path a verdict replay
// depends on: node 1's /v1/warm/export, read through client.WarmExport,
// is appended to a fresh verdict store, and a node booted on that store
// answers every exported key with the bytes node 1 serves for a cache
// hit, in JSON and in frames, without running the engine.
func TestWarmSegmentExportImport(t *testing.T) {
	queries := []struct{ path, body string }{
		{"/v1/solvable", `{"scheme":"S1","horizon":9}`},
		{"/v1/solvable", `{"scheme":"S2","minus":["(b)"],"horizon":5}`},
		{"/v1/solvable", `{"scheme":"S2","minRounds":true,"maxHorizon":4}`},
		{"/v1/net/solvable", `{"graph":"cycle","n":4,"f":1,"rounds":2}`},
		{"/v1/classify", `{"scheme":"S1"}`},
	}

	_, ts1 := testServer(t, Config{})
	type reply struct{ json, frame []byte }
	hits := make([]reply, len(queries))
	for i, q := range queries {
		if resp, raw := postJSON(t, ts1.URL+q.path, q.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("node 1 %s = %d: %s", q.body, resp.StatusCode, raw)
		}
		jresp, jraw := postJSON(t, ts1.URL+q.path, q.body)
		bresp, braw := postAccept(t, ts1.URL+q.path, q.body, wire.AcceptVerdict)
		if jresp.StatusCode != http.StatusOK || bresp.StatusCode != http.StatusOK {
			t.Fatalf("node 1 hit %s: json=%d binary=%d", q.body, jresp.StatusCode, bresp.StatusCode)
		}
		hits[i] = reply{jraw, braw}
	}

	entries, truncated, err := client.New(ts1.URL, client.Options{}).WarmExport(context.Background(), 0)
	if err != nil {
		t.Fatalf("warm export: %v", err)
	}
	if truncated || len(entries) != len(queries) {
		t.Fatalf("export = %d entries (truncated %v), want %d", len(entries), truncated, len(queries))
	}
	path := filepath.Join(t.TempDir(), "replayed.bin")
	store, recs, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh store holds %d records", len(recs))
	}
	for _, e := range entries {
		if err := store.Append(e.K, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	s3, ts3 := testServer(t, Config{WarmStorePath: path})
	if s3.warmLoaded != len(entries) {
		t.Fatalf("node 3 preloaded %d verdicts, want %d", s3.warmLoaded, len(entries))
	}
	for i, q := range queries {
		jresp, jraw := postJSON(t, ts3.URL+q.path, q.body)
		bresp, braw := postAccept(t, ts3.URL+q.path, q.body, wire.AcceptVerdict)
		if jresp.StatusCode != http.StatusOK || bresp.StatusCode != http.StatusOK {
			t.Fatalf("node 3 %s: json=%d binary=%d", q.body, jresp.StatusCode, bresp.StatusCode)
		}
		if !bytes.Equal(jraw, hits[i].json) {
			t.Fatalf("JSON for %s differs:\nnode 3 %s\nnode 1 %s", q.body, jraw, hits[i].json)
		}
		if !bytes.Equal(braw, hits[i].frame) {
			t.Fatalf("frame for %s differs:\nnode 3 %q\nnode 1 %q", q.body, braw, hits[i].frame)
		}
	}
	if runs := s3.engine.runs.Load(); runs != 0 {
		t.Fatalf("node 3 ran the engine %d times instead of serving the replayed verdicts", runs)
	}
}

// TestJSONRemainsDefault pins the compatibility contract: a request
// with no Accept header (or a plain JSON one) gets exactly the JSON
// body the service has always produced.
func TestJSONRemainsDefault(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, accept := range []string{"", "application/json", "*/*"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solvable", strings.NewReader(`{"scheme":"S1","horizon":3}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q = %d: %s", accept, resp.StatusCode, raw)
		}
		if wire.IsFrame(raw) {
			t.Fatalf("Accept %q produced a binary frame", accept)
		}
		var v wire.Solvable
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("Accept %q: body is not JSON: %v", accept, err)
		}
	}
}
