package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// compactVerdict checks one JSON verdict or batch line as served: it
// must be compact, must omit cached when it is false, and must never
// carry shared or elapsedMs, on the line and on its embedded verdict
// alike. It returns the verdict with cached removed.
func compactVerdict(t *testing.T, where string, body []byte) map[string]any {
	t.Helper()
	body = bytes.TrimSuffix(body, []byte("\n"))
	var c bytes.Buffer
	if err := json.Compact(&c, body); err != nil {
		t.Fatalf("%s: %v in %s", where, err, body)
	}
	if !bytes.Equal(c.Bytes(), body) {
		t.Fatalf("%s: body is not compact:\n%s", where, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if v, ok := m["verdict"].(map[string]any); ok {
		if m["status"] != float64(http.StatusOK) {
			t.Fatalf("%s: line %s, want status 200", where, body)
		}
		stripMeta(t, where, m)
		m = v
	}
	stripMeta(t, where, m)
	return m
}

func stripMeta(t *testing.T, where string, m map[string]any) {
	t.Helper()
	for _, k := range []string{"shared", "elapsedMs"} {
		if v, ok := m[k]; ok {
			t.Fatalf("%s: body carries %q (%v); timing belongs in Server-Timing", where, k, v)
		}
	}
	if v, ok := m["cached"]; ok && v != true {
		t.Fatalf("%s: \"cached\" is %v, want it omitted", where, v)
	}
	delete(m, "cached")
}

// batchLines splits a JSON-lines body.
func batchLines(body []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
}

// TestJSONVerdictsCompact sends a solvable, a net, a classify and a
// chaos query down every JSON path: node single (miss and hit), node
// batch, coordinator miss, hit and batch, and (all but chaos) a node and
// a coordinator rebooted on their warm stores. Every body must be compact, carry no
// shared or elapsedMs and no false cached, and must decode to the
// verdict the frame path gives (the node's own JSON for classify, which
// has no frame kind).
func TestJSONVerdictsCompact(t *testing.T) {
	dir := t.TempDir()
	coordWarm, nodeWarm := filepath.Join(dir, "coord.seg"), filepath.Join(dir, "node.seg")
	co, ts, nodes := testCluster(t, 3, func(cfg *Config) { cfg.WarmStorePath = coordWarm })
	nodeCfg := serve.Config{MaxHorizon: 13, Logf: quietLogf, WarmStorePath: nodeWarm}
	ref := httptest.NewServer(serve.New(nodeCfg).Handler())
	defer ref.Close()

	queries := []struct {
		single, batch, body, fresh string // fresh: a second item, a miss in each batch
	}{
		{"/v1/solvable", "/v1/solve/batch", `{"scheme":"S1","horizon":3}`, `{"scheme":"S1","horizon":4}`},
		{"/v1/net/solvable", "/v1/net/solve/batch", `{"graph":"cycle","n":4,"f":1,"rounds":2}`, `{"graph":"cycle","n":5,"f":1,"rounds":2}`},
		{"/v1/classify", "", `{"scheme":"S1"}`, ""},
		{"/v1/chaos", "/v1/chaos/batch", `{"scheme":"S1","executions":20,"seed":7}`, `{"scheme":"S1","executions":20,"seed":8}`},
	}
	single := func(base, path, body string) []byte {
		resp, raw := post(t, base+path, "", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s%s %s = %d: %s", base, path, body, resp.StatusCode, raw)
		}
		return raw
	}
	// want is the verdict of body by the frame path, or by the node's
	// JSON where the class has no frame kind.
	want := func(path, body string) map[string]any {
		resp, raw := post(t, ref.URL+path, wire.AcceptVerdict, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference %s = %d: %s", path, resp.StatusCode, raw)
		}
		if wire.IsFrame(raw) {
			v, err := wire.Unmarshal(raw)
			if err != nil {
				t.Fatal(err)
			}
			if raw, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		stripMeta(t, "reference", m)
		return m
	}
	check := func(where string, raw []byte, wantV map[string]any) {
		t.Helper()
		if got := compactVerdict(t, where, raw); !reflect.DeepEqual(got, wantV) {
			t.Fatalf("%s: verdict %v, want %v", where, got, wantV)
		}
	}
	checkBatch := func(where string, raw []byte, q struct{ single, batch, body, fresh string }) {
		t.Helper()
		lines := batchLines(raw)
		if len(lines) != 2 {
			t.Fatalf("%s: %d lines, want 2:\n%s", where, len(lines), raw)
		}
		for _, ln := range lines {
			var idx struct{ Index int }
			if err := json.Unmarshal(ln, &idx); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			item := []string{q.body, q.fresh}[idx.Index]
			check(where+" item "+item, ln, want(q.single, item))
		}
	}

	for _, q := range queries {
		w := want(q.single, q.body)
		check("node miss "+q.body, single(ref.URL, q.single, q.body), w)
		check("node hit "+q.body, single(ref.URL, q.single, q.body), w)
		check("coordinator miss "+q.body, single(ts.URL, q.single, q.body), w)
		check("coordinator hit "+q.body, single(ts.URL, q.single, q.body), w)
		if q.batch != "" {
			items := `{"items":[` + q.body + `,` + q.fresh + `]}`
			checkBatch("node batch", single(ref.URL, q.batch, items), q)
			checkBatch("coordinator batch", single(ts.URL, q.batch, items), q)
		}
	}

	// Reboot both tiers on their warm stores: the preloaded verdicts
	// are served compact too.
	ref.Close()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	co.Shutdown(ctx)
	ref2 := httptest.NewServer(serve.New(nodeCfg).Handler())
	defer ref2.Close()
	var backends []string
	for _, nd := range nodes {
		backends = append(backends, nd.ts.URL)
	}
	_, ts2 := startCoordinator(t, Config{Backends: backends, WarmStorePath: coordWarm})
	ref = ref2 // the reference is now the rebooted node
	for _, q := range queries {
		if q.single == serve.Chaos.Path {
			continue // no cache holds a campaign
		}
		raw := single(ref2.URL, q.single, q.body)
		if !strings.Contains(string(raw), `"cached":true`) {
			t.Fatalf("warm node %s is not a preloaded hit: %s", q.body, raw)
		}
		w := want(q.single, q.body)
		check("warm node "+q.body, raw, w)
		resp, raw := post(t, ts2.URL+q.single, "", q.body)
		if tier := resp.Header.Get("X-Cluster-Cache"); resp.StatusCode != http.StatusOK || tier != "hit" {
			t.Fatalf("warm coordinator %s = %d (X-Cluster-Cache %q), want a 200 hit: %s", q.body, resp.StatusCode, tier, raw)
		}
		check("warm coordinator "+q.body, raw, w)
		if q.batch != "" {
			body := single(ts2.URL, q.batch, `{"items":[`+q.body+`,`+q.fresh+`]}`)
			if !strings.Contains(string(body), `"cached":true`) {
				t.Fatalf("warm coordinator batch has no coordinator hit:\n%s", body)
			}
			checkBatch("warm coordinator batch", body, q)
		}
	}
}
