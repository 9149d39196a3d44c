package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/scheme"
	"repro/internal/serve/wire"
)

// TestWarmStoreConfigsExactRoundTrip round-trips a solvability verdict
// whose exact configuration count is 4*3^40 — far beyond both int64 and
// float64's 2^53 integer range — through the segment store. The typed
// decode must reproduce it digit for digit.
func TestWarmStoreConfigsExactRoundTrip(t *testing.T) {
	exact := new(big.Int).Mul(big.NewInt(4),
		new(big.Int).Exp(big.NewInt(3), big.NewInt(40), nil))
	const canary = 1<<53 + 1 // smallest int a float64 round-trip corrupts

	path := filepath.Join(t.TempDir(), "warm.seg")
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
	raw, err := wire.Marshal(in)
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
	got, ok := decodeVerdict(key, recordMap(entries2)[key])
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

// recordMap indexes the records OpenVerdictStore returned by key (each
// key appears once there).
func recordMap(recs []VerdictRecord) map[string][]byte {
	m := make(map[string][]byte, len(recs))
	for _, r := range recs {
		m[r.Key] = r.Val
	}
	return m
}

// recordKeys lists the keys of recs in order.
func recordKeys(recs []VerdictRecord) string {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	return strings.Join(keys, ",")
}

// seedSegment encodes alternating key/value strings as a warm segment.
func seedSegment(kv ...string) []byte {
	seg := wire.AppendSegmentHeader(nil)
	for i := 0; i+1 < len(kv); i += 2 {
		seg = wire.AppendSegmentRecord(seg, kv[i], []byte(kv[i+1]))
	}
	return seg
}

// segmentKeys lists the keys of the segment file at path, in file order.
func segmentKeys(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := wire.NewSegmentReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s is not a warm segment: %v", path, err)
	}
	var keys []string
	for {
		k, _, err := sr.Next()
		if err == io.EOF {
			return keys
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		keys = append(keys, k)
	}
}

// TestVerdictStoreTornAndDuplicateLines checks crash tolerance: a torn
// final record is dropped (and the file rewritten, so later appends do
// not land behind it), later duplicate records win on load, and Append
// writes a recomputed key again — the store keeps no key index — while
// the next load keeps only the later record.
func TestVerdictStoreTornAndDuplicateLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.seg")
	seed := seedSegment("a", `{"n":1}`, "a", `{"n":2}`, "b", `{"trunc":true}`)
	seed = seed[:len(seed)-5] // crash mid-append of "b"
	if err := os.WriteFile(path, seed, 0o644); err != nil {
		t.Fatal(err)
	}
	store, entries, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("loaded %d entries, want 1 (only the duplicated good key): %v", len(entries), entries)
	}
	if string(recordMap(entries)["a"]) != `{"n":2}` {
		t.Fatalf(`entries["a"] = %s, want the later record {"n":2}`, recordMap(entries)["a"])
	}
	if store.Len() != 1 {
		t.Fatalf("Len = %d, want 1", store.Len())
	}
	// Appending the known key writes a second record; a new key lands.
	if err := store.Append("a", []byte(`{"n":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := store.Append("c", []byte(`{"n":4}`)); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 3 {
		t.Fatalf("Len after appends = %d, want 3 (1 loaded + 2 appended)", store.Len())
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if keys := segmentKeys(t, path); strings.Join(keys, ",") != "a,a,c" {
		t.Fatalf("records on disk = %q, want [a a c] (torn tail dropped, dup appended)", keys)
	}
	store2, entries2, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	got := recordMap(entries2)
	if recordKeys(entries2) != "a,c" || string(got["a"]) != `{"n":3}` || string(got["c"]) != `{"n":4}` {
		t.Fatalf("reopen loaded %v, want a's later record then the appended c", entries2)
	}
}

// TestWarmStoreRestartAnswersFromCache is the acceptance scenario: node
// 1 computes a deep (horizon-13) verdict into the warm store, dies, and
// node 2 booted on the same store answers the identical query as a
// cache hit — no fresh engine run.
func TestWarmStoreRestartAnswersFromCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.seg")
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
	if hits := s2.cache.hits.Load(); hits < 1 {
		t.Fatalf("cache hits = %d, want >= 1", hits)
	}
	if runs := s2.engine.runs.Load(); runs != 0 {
		t.Fatalf("node 2 ran the engine %d times, want 0", runs)
	}
}

// TestVerdictStoreCompactsOnLoad: a store bloated past the waste
// threshold (duplicates + a torn tail) is rewritten at open time via a
// temp-file rename — the reopened file holds exactly the live entries,
// appends keep working, and nothing of the dead weight survives.
func TestVerdictStoreCompactsOnLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.seg")
	// warmCompactMinWaste dead records: the same key rewritten over and
	// over (restart loops do exactly this across crashes), plus a torn
	// tail. One extra live record so the final state is two keys.
	var kv []string
	for i := 0; i <= warmCompactMinWaste-1; i++ {
		kv = append(kv, "hot", fmt.Sprintf(`{"n":%d}`, i))
	}
	kv = append(kv, "cold", `{"n":-1}`, "torn", `{"garbage":true}`)
	seed := seedSegment(kv...)
	if err := os.WriteFile(path, seed[:len(seed)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	store, entries, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("loaded %d entries, want 2", len(entries))
	}
	if string(recordMap(entries)["hot"]) != fmt.Sprintf(`{"n":%d}`, warmCompactMinWaste-1) {
		t.Fatalf(`entries["hot"] = %s, want the last duplicate to win`, recordMap(entries)["hot"])
	}
	if store.Compacted() != warmCompactMinWaste {
		t.Fatalf("Compacted = %d, want %d", store.Compacted(), warmCompactMinWaste)
	}

	// On disk: exactly the live entries, in the order of their last
	// writes (the recency a later boot preloads by).
	if keys := segmentKeys(t, path); strings.Join(keys, ",") != "hot,cold" {
		t.Fatalf("compacted segment holds %q, want [hot cold]", keys)
	}

	// Appends land in the fresh file and a reopen sees everything.
	if err := store.Append("new", []byte(`{"n":7}`)); err != nil {
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

// TestVerdictStoreNoCompactionUnderThreshold: a handful of duplicate
// records is tolerated — the file is left byte-identical (no rewrite
// churn on every boot).
func TestVerdictStoreNoCompactionUnderThreshold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.seg")
	seed := seedSegment("a", `{"n":1}`, "a", `{"n":2}`, "b", `{"n":3}`, "a", `{"n":4}`)
	if err := os.WriteFile(path, seed, 0o644); err != nil {
		t.Fatal(err)
	}
	store, entries, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if len(entries) != 2 || store.Compacted() != 0 {
		t.Fatalf("entries=%d compacted=%d, want 2 entries and no compaction", len(entries), store.Compacted())
	}
	if string(recordMap(entries)["a"]) != `{"n":4}` || recordKeys(entries) != "b,a" {
		t.Fatalf(`entries = %v, want b then a's last duplicate {"n":4}`, entries)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, seed) {
		t.Fatalf("under-threshold store was rewritten:\n%q", data)
	}
}

// legacyJSONLines is a warm store as earlier releases wrote it: one
// {"k","v"} object per line.
const legacyJSONLines = `{"k":"solvable|S1|h=3|min=false","v":{"scheme":"S1","horizon":3,"solvable":true}}
{"k":"classify|S1","v":{"class":"A"}}
`

// TestVerdictStoreDiscardsNonSegmentFile: a file that is not a segment
// opens as zero entries and is replaced by an empty segment through the
// compaction temp-file+rename path; the fresh file then works as any
// other store.
func TestVerdictStoreDiscardsNonSegmentFile(t *testing.T) {
	for name, seed := range map[string]string{
		"json-lines": legacyJSONLines,
		"garbage":    "not a warm store at all",
		"short":      "\xca",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "warm.seg")
			if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
				t.Fatal(err)
			}
			store, entries, err := OpenVerdictStore(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 || store.Len() != 0 || !store.Discarded() {
				t.Fatalf("entries=%d Len=%d Discarded=%v, want an empty, discarded store",
					len(entries), store.Len(), store.Discarded())
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, wire.AppendSegmentHeader(nil)) {
				t.Fatalf("discarded file holds %q, want an empty segment", data)
			}
			if names, _ := filepath.Glob(filepath.Join(dir, "*.compact-*")); len(names) != 0 {
				t.Fatalf("rewrite left temp files behind: %v", names)
			}
			if err := store.Append("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			store.Close()
			store2, entries2, err := OpenVerdictStore(path)
			if err != nil {
				t.Fatal(err)
			}
			defer store2.Close()
			if len(entries2) != 1 || store2.Discarded() {
				t.Fatalf("reopen: entries=%v Discarded=%v, want the appended record", entries2, store2.Discarded())
			}
		})
	}
}

// TestWarmStoreLegacyFileRecomputed: a node booted on a legacy
// JSON-lines store logs the discard once, serves nothing from it,
// recomputes the verdict, and persists it as a frame.
func TestWarmStoreLegacyFileRecomputed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.seg")
	if err := os.WriteFile(path, []byte(legacyJSONLines), 0o644); err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		logs []string
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s, ts := testServer(t, Config{WarmStorePath: path, Logf: logf})
	if s.warmLoaded != 0 {
		t.Fatalf("node loaded %d verdicts from a legacy store", s.warmLoaded)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/solvable", `{"scheme":"S1","horizon":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solvable = %d: %s", resp.StatusCode, raw)
	}
	var v solvableResponse
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.Cached {
		t.Fatal("node served a verdict from a discarded legacy store")
	}
	if s.warm.Len() != 1 {
		t.Fatalf("warm store holds %d verdicts after one solve, want 1", s.warm.Len())
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
	ts.Close()

	store, entries, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, r := range entries {
		if !strings.HasPrefix(r.Key, "solvable|") || !wire.IsFrame(r.Val) {
			t.Fatalf("persisted %q = %q, want a solvability frame", r.Key, r.Val)
		}
	}
	if len(entries) != 1 {
		t.Fatalf("reopen loaded %d verdicts, want 1", len(entries))
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
	for _, r := range entries {
		if strings.HasPrefix(r.Key, "solvable|") {
			key = r.Key
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

// TestWarmStoreV3FileRecomputed: testdata/warm-v3.seg is a warm store
// written by a node of frame version 3 (whose solvability frames still
// carried shared and elapsedMs), holding the verdicts of the three
// queries below. It opens with zero usable records; the node recomputes
// each verdict, serves it uncached, and persists it as a frame of the
// current version.
func TestWarmStoreV3FileRecomputed(t *testing.T) {
	queries := []struct{ path, body string }{
		{"/v1/solvable", `{"scheme":"S1","horizon":3}`},
		{"/v1/solvable", `{"scheme":"S2","minus":["(b)"],"horizon":5}`},
		{"/v1/net/solvable", `{"graph":"cycle","n":4,"f":1,"rounds":2}`},
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "warm-v3.seg"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.seg")
	if err := os.WriteFile(path, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	st, old, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(old) != len(queries) {
		t.Fatalf("the v3 file holds %d records, want %d", len(old), len(queries))
	}
	for _, r := range old {
		if !wire.IsFrame(r.Val) || r.Val[2] != 3 {
			t.Fatalf("record %q = %q, want a version-3 frame", r.Key, r.Val)
		}
	}

	s, ts := testServer(t, Config{WarmStorePath: path})
	if s.warmLoaded != 0 {
		t.Fatalf("node loaded %d verdicts from a version-3 store, want 0", s.warmLoaded)
	}
	for _, q := range queries {
		resp, raw := postJSON(t, ts.URL+q.path, q.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", q.body, resp.StatusCode, raw)
		}
		if strings.Contains(string(raw), `"cached"`) || resp.Header.Get("Server-Timing") == "" {
			t.Fatalf("%s: served %s (Server-Timing %q), want a recomputed verdict", q.body, raw, resp.Header.Get("Server-Timing"))
		}
	}
	if runs := s.engine.runs.Load(); runs != int64(len(queries)) {
		t.Fatalf("node ran the engine %d times, want %d (one per query)", runs, len(queries))
	}
	ts.Close()

	store, entries, err := OpenVerdictStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	latest := map[string][]byte{}
	for _, r := range entries {
		latest[r.Key] = r.Val
	}
	for _, r := range old {
		if v := latest[r.Key]; !wire.IsFrame(v) || v[2] != wire.Version {
			t.Fatalf("after recompute, %q = %q, want a version-%d frame", r.Key, v, wire.Version)
		}
	}
}

// heapInuse reports the live heap after a full collection.
func heapInuse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestWarmNodeHeapBoundedByCacheEntries pushes 100k distinct verdicts
// through a warm-store node's real miss path (resultCache.do → run →
// persist) with a trivial compute function. Every verdict is appended
// to the store, yet the live heap must grow by no more than a bound set
// by CacheEntries: nothing but the LRU may remember a verdict.
func TestWarmNodeHeapBoundedByCacheEntries(t *testing.T) {
	const (
		verdicts = 100_000
		entries  = 512
		// perEntry is generous for one decoded verdict, its key and the
		// LRU's list and map overhead; slack absorbs the runtime's own
		// churn (pools, sweep granularity).
		perEntry = 2 << 10
		slack    = 4 << 20
	)
	s := New(Config{WarmStorePath: filepath.Join(t.TempDir(), "warm.seg"), CacheEntries: entries})
	defer s.warm.Close()
	before := heapInuse()
	ctx := context.Background()
	for i := 0; i < verdicts; i++ {
		key := fmt.Sprintf("solvable|%032x|h=3|min=false", i)
		_, cached, _, err := s.cache.do(ctx, key, func() (any, error) {
			return solvableResponse{Scheme: "S1", Horizon: 3, Solvable: i%2 == 0, Configs: i}, nil
		})
		if err != nil || cached {
			t.Fatalf("verdict %d: cached=%v err=%v, want a fresh computation", i, cached, err)
		}
	}
	grew := heapInuse() - before
	if n := s.warm.Len(); n != verdicts {
		t.Fatalf("warm store holds %d records, want one per miss (%d)", n, verdicts)
	}
	if n := s.cache.lru.Len(); n != entries {
		t.Fatalf("LRU holds %d verdicts, want CacheEntries (%d)", n, entries)
	}
	if bound := int64(slack + entries*perEntry); grew > bound {
		t.Fatalf("heap grew %d KiB over %d verdicts, bound %d KiB (CacheEntries %d)", grew>>10, verdicts, bound>>10, entries)
	}
	t.Logf("heap grew %d KiB over %d verdicts", grew>>10, verdicts)
}

// TestWarmStoreRestartPreloadsNewest: a node restarted on a store
// holding 3×CacheEntries verdicts preloads the newest CacheEntries of
// them — answered as cache hits with zero engine runs — rewrites the
// file to exactly those records, and recomputes the oldest.
func TestWarmStoreRestartPreloadsNewest(t *testing.T) {
	const entries = 8
	path := filepath.Join(t.TempDir(), "warm.seg")
	var queries []string
	for _, h := range []int{2, 3} {
		for _, name := range scheme.Names() {
			queries = append(queries, fmt.Sprintf(`{"scheme":%q,"horizon":%d}`, name, h))
		}
	}
	queries = queries[:3*entries]

	_, ts1 := testServer(t, Config{WarmStorePath: path, CacheEntries: entries})
	for _, q := range queries {
		if resp, raw := postJSON(t, ts1.URL+"/v1/solvable", q); resp.StatusCode != http.StatusOK {
			t.Fatalf("node 1 %s = %d: %s", q, resp.StatusCode, raw)
		}
	}
	ts1.Close()
	keys := segmentKeys(t, path)
	if len(keys) != len(queries) {
		t.Fatalf("node 1 appended %d records for %d distinct queries", len(keys), len(queries))
	}

	s2, ts2 := testServer(t, Config{WarmStorePath: path, CacheEntries: entries})
	if s2.warmLoaded != entries || s2.cache.lru.Len() != entries {
		t.Fatalf("node 2 preloaded %d (LRU %d), want CacheEntries (%d)", s2.warmLoaded, s2.cache.lru.Len(), entries)
	}
	if got, want := strings.Join(segmentKeys(t, path), ","), strings.Join(keys[2*entries:], ","); got != want {
		t.Fatalf("store after boot holds\n%s\nwant the newest %d records\n%s", got, entries, want)
	}
	answer := func(q string) solvableResponse {
		t.Helper()
		resp, raw := postJSON(t, ts2.URL+"/v1/solvable", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node 2 %s = %d: %s", q, resp.StatusCode, raw)
		}
		var v solvableResponse
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, q := range queries[2*entries:] {
		if !answer(q).Cached {
			t.Fatalf("node 2 recomputed the preloaded %s", q)
		}
	}
	if runs := s2.engine.runs.Load(); runs != 0 {
		t.Fatalf("node 2 ran the engine %d times for preloaded verdicts, want 0", runs)
	}
	for _, q := range queries[:entries] {
		if answer(q).Cached {
			t.Fatalf("node 2 served %s, older than its newest %d verdicts, from cache", q, entries)
		}
	}
	if misses := s2.cache.misses.Load(); misses != entries {
		t.Fatalf("node 2 missed %d times, want one per old verdict (%d)", misses, entries)
	}
}
