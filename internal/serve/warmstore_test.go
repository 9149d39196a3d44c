package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve/wire"
)

// TestWarmStoreConfigsExactRoundTrip round-trips a solvability verdict
// whose exact configuration count is 4*3^40 — far beyond both int64 and
// float64's 2^53 integer range — through the JSON-lines store. The
// typed decode must reproduce it digit for digit; an `any` decode would
// have pushed the counters through float64 and corrupted them.
func TestWarmStoreConfigsExactRoundTrip(t *testing.T) {
	exact := new(big.Int).Mul(big.NewInt(4),
		new(big.Int).Exp(big.NewInt(3), big.NewInt(40), nil))
	const canary = 1<<53 + 1 // smallest int a float64 round-trip corrupts

	path := filepath.Join(t.TempDir(), "warm.jsonl")
	store, entries, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh store loaded %d entries, want 0", len(entries))
	}
	in := solvableResponse{
		Scheme:       "S1",
		Horizon:      41,
		Solvable:     true,
		Configs:      canary,
		ConfigsExact: exact.String(),
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	key := "solvable|roundtrip-test|h=41|min=false"
	if err := store.Append(key, raw); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh boot must reconstruct the typed verdict exactly.
	store2, entries2, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	got, ok := decodeVerdict(key, entries2[key])
	if !ok {
		t.Fatalf("decodeVerdict failed for %q", key)
	}
	out, ok := got.(solvableResponse)
	if !ok {
		t.Fatalf("decoded %T, want solvableResponse", got)
	}
	if out.Configs != canary {
		t.Fatalf("Configs = %d, want %d (float64 corruption?)", out.Configs, canary)
	}
	back, ok := new(big.Int).SetString(out.ConfigsExact, 10)
	if !ok {
		t.Fatalf("ConfigsExact %q is not a decimal integer", out.ConfigsExact)
	}
	if back.Cmp(exact) != 0 {
		t.Fatalf("ConfigsExact = %s, want %s", back, exact)
	}
}

// TestVerdictStoreTornAndDuplicateLines checks crash tolerance: a torn
// final line is skipped, later duplicate lines win on load, and Append
// skips keys already on disk instead of growing the file.
func TestVerdictStoreTornAndDuplicateLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.jsonl")
	seed := `{"k":"a","v":{"n":1}}
{"k":"a","v":{"n":2}}
not json at all
{"k":"b","v":{"trunc
`
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	store, entries, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if len(entries) != 1 {
		t.Fatalf("loaded %d entries, want 1 (only the duplicated good key): %v", len(entries), entries)
	}
	if string(entries["a"]) != `{"n":2}` {
		t.Fatalf(`entries["a"] = %s, want the later line {"n":2}`, entries["a"])
	}
	if store.Len() != 1 {
		t.Fatalf("Len = %d, want 1", store.Len())
	}
	// Appending the known key is a no-op; a new key lands.
	if err := store.Append("a", json.RawMessage(`{"n":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := store.Append("c", json.RawMessage(`{"n":4}`)); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("Len after appends = %d, want 2", store.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"k":"a"`); n != 2 {
		t.Fatalf(`key "a" appears %d times, want 2 (dup append must be skipped)`, n)
	}
}

// TestWarmStoreRestartAnswersFromCache is the acceptance scenario: node
// 1 computes a deep (horizon-13) verdict into the warm store, dies, and
// node 2 booted on the same store answers the identical query as a
// cache hit — no fresh engine run.
func TestWarmStoreRestartAnswersFromCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.jsonl")
	const query = `{"scheme":"S1","horizon":13}`

	s1, ts1 := testServer(t, Config{WarmStorePath: path, MaxHorizon: 13})
	resp, raw := postJSON(t, ts1.URL+"/v1/solvable", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node 1 solvable = %d: %s", resp.StatusCode, raw)
	}
	var first solvableResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("node 1's first answer claims to be cached")
	}
	if s1.warm.Len() == 0 {
		t.Fatal("node 1 persisted nothing to the warm store")
	}
	ts1.Close() // node 1 dies (no graceful drain — the store has no fsync to miss)

	s2, ts2 := testServer(t, Config{WarmStorePath: path, MaxHorizon: 13})
	if s2.warmLoaded == 0 {
		t.Fatal("node 2 loaded no warm verdicts")
	}
	resp2, raw2 := postJSON(t, ts2.URL+"/v1/solvable", query)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("node 2 solvable = %d: %s", resp2.StatusCode, raw2)
	}
	var second solvableResponse
	if err := json.Unmarshal(raw2, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("node 2 re-ran the engine instead of serving the warm verdict")
	}
	if second.Solvable != first.Solvable || second.Horizon != first.Horizon {
		t.Fatalf("warm verdict drifted: node1=%+v node2=%+v", first, second)
	}
	if hits := s2.cache.warmHits.Load(); hits < 1 {
		t.Fatalf("warmHits = %d, want >= 1", hits)
	}
}

// TestVerdictStoreCompactsOnLoad: a store bloated past the waste
// threshold (duplicates + torn lines) is rewritten at open time via a
// temp-file rename — the reopened file holds exactly the live entries,
// appends keep working, and nothing of the dead weight survives.
func TestVerdictStoreCompactsOnLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.jsonl")
	var b strings.Builder
	// warmCompactMinWaste dead lines: the same key rewritten over and
	// over (restart loops do exactly this across crashes), plus torn
	// garbage. One extra live line so the final state is two keys.
	for i := 0; i <= warmCompactMinWaste-1; i++ {
		fmt.Fprintf(&b, "{\"k\":\"hot\",\"v\":{\"n\":%d}}\n", i)
	}
	b.WriteString("torn {garbage\n")
	b.WriteString(`{"k":"cold","v":{"n":-1}}` + "\n")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	store, entries, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("loaded %d entries, want 2", len(entries))
	}
	if string(entries["hot"]) != fmt.Sprintf(`{"n":%d}`, warmCompactMinWaste-1) {
		t.Fatalf(`entries["hot"] = %s, want the last duplicate to win`, entries["hot"])
	}
	if store.Compacted() != warmCompactMinWaste {
		t.Fatalf("Compacted = %d, want %d", store.Compacted(), warmCompactMinWaste)
	}

	// On disk: exactly the live entries, upgraded in place to the
	// binary segment format (compaction always writes segments).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewWarmSegmentReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("compacted file is not a warm segment: %v", err)
	}
	records := 0
	for {
		if _, _, err := sr.Next(); err != nil {
			if err != io.EOF {
				t.Fatalf("compacted segment: %v", err)
			}
			break
		}
		records++
	}
	if records != 2 {
		t.Fatalf("compacted segment has %d records, want 2:\n%q", records, data)
	}

	// Appends land in the fresh file and a reopen sees everything.
	if err := store.Append("new", json.RawMessage(`{"n":7}`)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, entries2, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if len(entries2) != 3 {
		t.Fatalf("reopen loaded %d entries, want 3: %v", len(entries2), entries2)
	}
	if store2.Compacted() != 0 {
		t.Fatalf("clean store recompacted (%d) on reopen", store2.Compacted())
	}
}

// TestVerdictStoreNoCompactionUnderThreshold: a handful of dead lines
// is tolerated — the file is left byte-identical (no rewrite churn on
// every boot).
func TestVerdictStoreNoCompactionUnderThreshold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.jsonl")
	seed := `{"k":"a","v":{"n":1}}
{"k":"a","v":{"n":2}}
half a line {
`
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	store, entries, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if len(entries) != 1 || store.Compacted() != 0 {
		t.Fatalf("entries=%d compacted=%d, want 1 entry and no compaction", len(entries), store.Compacted())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != seed {
		t.Fatalf("under-threshold store was rewritten:\n%s", data)
	}
}

// TestWarmStoreRecomputesOtherFrameVersions: a warm store written before
// the frame layout changed holds frames of another version. Such an
// entry must not be served — not even for its own key — so the node
// recomputes the verdict instead of answering the stale one.
func TestWarmStoreRecomputesOtherFrameVersions(t *testing.T) {
	const query = `{"scheme":"S1","horizon":3}`
	path1 := filepath.Join(t.TempDir(), "warm1.bin")
	_, ts1 := testServer(t, Config{WarmStorePath: path1})
	resp, raw := postJSON(t, ts1.URL+"/v1/solvable", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node 1 solvable = %d: %s", resp.StatusCode, raw)
	}
	var fresh solvableResponse
	if err := json.Unmarshal(raw, &fresh); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	store1, entries, err := OpenVerdictStore(path1)
	if err != nil {
		t.Fatal(err)
	}
	store1.Close()
	var key string
	for k := range entries {
		if strings.HasPrefix(k, "solvable|") {
			key = k
		}
	}
	if key == "" {
		t.Fatal("node 1 persisted no solvability verdict")
	}

	// The same key, holding a wrong verdict in a frame of the previous
	// layout version.
	stale, err := wire.Marshal(&wire.Solvable{Scheme: "S1", Horizon: 3, Solvable: !fresh.Solvable, Configs: 1})
	if err != nil {
		t.Fatal(err)
	}
	stale[2] = wire.Version - 1
	path2 := filepath.Join(t.TempDir(), "warm2.bin")
	store2, _, err := OpenVerdictStore(path2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store2.Append(key, stale); err != nil {
		t.Fatal(err)
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := testServer(t, Config{WarmStorePath: path2})
	if s2.warmLoaded != 0 {
		t.Fatalf("node 2 loaded %d verdicts from a store holding only an old-version frame", s2.warmLoaded)
	}
	resp2, raw2 := postJSON(t, ts2.URL+"/v1/solvable", query)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("node 2 solvable = %d: %s", resp2.StatusCode, raw2)
	}
	var got solvableResponse
	if err := json.Unmarshal(raw2, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cached || got.Solvable != fresh.Solvable || got.Configs != fresh.Configs {
		t.Fatalf("node 2 answered %+v, want the recomputed %+v", got, fresh)
	}
}
