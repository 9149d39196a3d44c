package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// Frames are the only verdict encoding between the coordinator and its
// shards, so the coordinator checks each shard reply's frame header
// before it caches, persists or serves it.

// startCoordinator boots a coordinator over backends and serves it.
func startCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = quietLogf
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		co.Shutdown(ctx)
	})
	return co, ts
}

// post sends body to url with the given Accept header.
func post(t *testing.T, url, accept, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
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
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestCoordinatorRefusesUnusableShardFrames: a shard answering a frame
// of another layout version, or of the wrong kind, gets a 502 for a
// binary caller, a JSON caller and a binary batch item alike, and the
// body is neither cached nor persisted — every call goes back to the
// shard.
func TestCoordinatorRefusesUnusableShardFrames(t *testing.T) {
	stale, err := wire.Marshal(&wire.Solvable{Scheme: "S1", Horizon: 3, Solvable: true})
	if err != nil {
		t.Fatal(err)
	}
	stale[2] = 1
	wrongKind, err := wire.Marshal(&wire.NetSolvable{Graph: "K4", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"version-1": stale, "wrong-kind": wrongKind} {
		t.Run(name, func(t *testing.T) {
			var hits atomic.Int64
			shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				w.Header().Set("Content-Type", wire.MediaTypeVerdict)
				w.Write(body)
			}))
			defer shard.Close()
			co, ts := startCoordinator(t, Config{
				Backends:      []string{shard.URL},
				Replicas:      1,
				WarmStorePath: filepath.Join(t.TempDir(), "coord-warm.seg"),
			})
			const query = `{"scheme":"S1","horizon":3}`

			for _, accept := range []string{wire.AcceptVerdict, ""} {
				resp, raw := post(t, ts.URL+"/v1/solvable", accept, query)
				if resp.StatusCode != http.StatusBadGateway {
					t.Fatalf("Accept %q: status %d, want 502: %q", accept, resp.StatusCode, raw)
				}
			}
			resp, raw := post(t, ts.URL+"/v1/solve/batch", wire.AcceptVerdictStream, `{"items":[`+query+`]}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch status %d: %q", resp.StatusCode, raw)
			}
			sc := wire.NewFrameScanner(bytes.NewReader(raw), 0)
			kind, payload, err := sc.Next()
			if err != nil || kind != wire.KindBatchLine {
				t.Fatalf("batch stream: kind %v, err %v", kind, err)
			}
			line, err := wire.DecodeBatchLine(payload)
			if err != nil {
				t.Fatal(err)
			}
			if line.Status != http.StatusBadGateway || line.Verdict != nil {
				t.Fatalf("batch line = %+v, want a 502 without a verdict", line)
			}

			if n := hits.Load(); n != 3 {
				t.Fatalf("shard saw %d requests, want 3 (nothing served from cache)", n)
			}
			if st := co.StatsSnapshot(); st.CacheLen != 0 || st.WarmStored != 0 {
				t.Fatalf("LRU %d, warm store %d entries; want nothing cached or persisted", st.CacheLen, st.WarmStored)
			}
		})
	}
}

// TestCoordinatorWarmStoreSkipsUnusableFrames: entries loaded from the
// coordinator's warm store pass the same check, so a stale frame is
// recomputed by a shard instead of replayed.
func TestCoordinatorWarmStoreSkipsUnusableFrames(t *testing.T) {
	const query = `{"scheme":"S1","horizon":3}`
	q, err := serve.Solvable.Parse([]byte(query))
	if err != nil {
		t.Fatal(err)
	}
	key := q.Key
	stale, err := wire.Marshal(&wire.Solvable{Scheme: "S1", Horizon: 3, Configs: 1})
	if err != nil {
		t.Fatal(err)
	}
	stale[2] = wire.Version - 1
	path := filepath.Join(t.TempDir(), "coord-warm.seg")
	store, _, err := serve.OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(key, stale); err != nil {
		t.Fatal(err)
	}
	store.Close()

	co, ts, _ := testCluster(t, 1, func(cfg *Config) { cfg.WarmStorePath = path })
	if n := co.StatsSnapshot().WarmLoaded; n != 0 {
		t.Fatalf("coordinator loaded %d verdicts from a store holding only a stale frame", n)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/solvable", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solvable = %d: %s", resp.StatusCode, raw)
	}
	if tier := resp.Header.Get("X-Cluster-Cache"); tier != "miss" {
		t.Fatalf("X-Cluster-Cache = %q, want miss", tier)
	}
}

// TestCoordinatorDiscardsLegacyWarmStore: a JSON-lines store from an
// earlier release opens empty, the discard is logged once, and the
// verdict the shard recomputes is persisted as a frame.
func TestCoordinatorDiscardsLegacyWarmStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord-warm.seg")
	legacy := `{"k":"solvable|x","v":{"scheme":"S1","horizon":3,"solvable":true}}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		logs []string
	)
	co, ts, _ := testCluster(t, 1, func(cfg *Config) {
		cfg.WarmStorePath = path
		cfg.Logf = func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})
	if n := co.StatsSnapshot().WarmLoaded; n != 0 {
		t.Fatalf("coordinator loaded %d verdicts from a legacy store", n)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/solvable", `{"scheme":"S1","horizon":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solvable = %d: %s", resp.StatusCode, raw)
	}
	mu.Lock()
	discards := 0
	for _, l := range logs {
		if strings.Contains(l, "discarded") {
			discards++
		}
	}
	mu.Unlock()
	if discards != 1 {
		t.Fatalf("discard logged %d times, want once: %q", discards, logs)
	}
	if st := co.StatsSnapshot(); st.CacheLen != 1 || st.WarmStored != 1 {
		t.Fatalf("LRU holds %d verdicts, warm store %d; want the recomputed one", st.CacheLen, st.WarmStored)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	co.Shutdown(ctx)
	store, recs, err := serve.OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	for _, r := range recs {
		if !strings.HasPrefix(r.Key, "solvable|") || !wire.IsFrame(r.Val) {
			t.Fatalf("persisted %q = %q, want a solvability frame", r.Key, r.Val)
		}
	}
}
