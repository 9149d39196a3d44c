package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// The coordinator is a serve front: its single and batch requests run
// the node's pipeline, with a hedged shard call as the compute. These
// tests pin what that pipeline gives the coordinator that its own copy
// lacked: singleflight, the request deadline, and the hot-path budget.

// shardRequests sums the requests every shard was sent, hedges
// included.
func shardRequests(st Stats) int64 {
	var n int64
	for _, sh := range st.Shards {
		n += sh.Requests
	}
	return n
}

// TestCoordinatorSingleflightOneShardCall sends 16 concurrent identical
// misses through the coordinator: they share one hedged shard call
// (at most Replicas shard requests), one LRU entry and one warm-store
// append, and every reply is a 200 carrying the same verdict.
func TestCoordinatorSingleflightOneShardCall(t *testing.T) {
	warm := filepath.Join(t.TempDir(), "coord-warm.seg")
	co, ts, _ := testCluster(t, 3, func(cfg *Config) { cfg.WarmStorePath = warm })
	const (
		callers = 16
		query   = `{"scheme":"S2","minus":["(b)"],"horizon":7}`
	)
	type reply struct {
		status int
		body   []byte
	}
	replies := make([]reply, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/solvable", "application/json", strings.NewReader(query))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			replies[i] = reply{resp.StatusCode, body}
		}(i)
	}
	close(start)
	wg.Wait()

	var first verdict
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("caller %d: status %d: %s", i, r.status, r.body)
		}
		var v verdict
		if err := json.Unmarshal(r.body, &v); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = v
		} else if !v.equal(first) {
			t.Fatalf("caller %d got %+v, caller 0 %+v", i, v, first)
		}
	}
	st := co.StatsSnapshot()
	if n := shardRequests(st); n < 1 || n > int64(co.cfg.Replicas) {
		t.Fatalf("%d concurrent misses made %d shard requests, want 1..%d (one hedged call)", callers, n, co.cfg.Replicas)
	}
	if st.CacheLen != 1 || st.WarmStored != 1 {
		t.Fatalf("LRU %d entries, warm store %d appends; want 1 and 1", st.CacheLen, st.WarmStored)
	}
	if st.KeyedRequests != callers || st.CacheHits+st.CacheMisses != callers {
		t.Fatalf("keyed %d, hits %d + misses %d; want every one of %d lookups counted once", st.KeyedRequests, st.CacheHits, st.CacheMisses, callers)
	}
}

// TestCoordinatorDeadlineDetachesCompute: ?timeout_ms=50 on a
// coordinator single whose shard takes 300 ms answers 504 within the
// deadline, and the computation, detached from that request, still
// finishes: a repeat once the shard has answered is a coordinator hit.
func TestCoordinatorDeadlineDetachesCompute(t *testing.T) {
	node := serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		node.ServeHTTP(w, r)
	}))
	defer slow.Close()
	co, ts := startCoordinator(t, Config{Backends: []string{slow.URL}, Replicas: 1, HedgeDelay: time.Second})
	const query = `{"scheme":"S1","horizon":4}`

	began := time.Now()
	resp, raw := postJSON(t, ts.URL+"/v1/solvable?timeout_ms=50", query)
	took := time.Since(began)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timeout_ms=50 against a 300 ms shard = %d: %s", resp.StatusCode, raw)
	}
	if took >= 250*time.Millisecond {
		t.Fatalf("504 took %s; the request waited for the shard instead of its deadline", took)
	}
	for deadline := time.Now().Add(5 * time.Second); co.StatsSnapshot().CacheLen == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the detached computation never cached its verdict")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/solvable", query)
	if tier := resp.Header.Get("X-Cluster-Cache"); resp.StatusCode != http.StatusOK || tier != "hit" {
		t.Fatalf("repeat = %d (X-Cluster-Cache %q), want a 200 hit: %s", resp.StatusCode, tier, raw)
	}
}

// coordinatorAllocBudget pins the coordinator's cached-hit /v1/solvable
// path (pipeline, request memo, LRU lookup, stored hit bytes), JSON and
// frames alike, as serveAllocBudget pins a node's: the pipeline is the
// node's, so a coordinator hit costs what a node hit costs.
const coordinatorAllocBudget = 1

// coordinatorBatchHitAllocBudget pins a 16-item all-hit
// /v1/solve/batch through the coordinator, JSON lines and frames alike:
// a batch the memo and the LRU answer whole starts no item ahead, so
// it costs what a node's does.
const coordinatorBatchHitAllocBudget = 1

// nopRW is the cheapest possible ResponseWriter, so the gate counts the
// coordinator's allocations, not a recorder's.
type nopRW struct{ h http.Header }

func (w *nopRW) Header() http.Header         { return w.h }
func (w *nopRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopRW) WriteHeader(int)             {}

// replayBody is a rewindable request body.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// hitBatchBody is a 16-item /v1/solve/batch body over 16 distinct keys.
func hitBatchBody() string {
	items := make([]string, 0, 16)
	for h := 1; h <= 16; h++ {
		items = append(items, fmt.Sprintf(`{"scheme":"S1","horizon":%d}`, h))
	}
	return `{"items":[` + strings.Join(items, ",") + `]}`
}

// coordinatorHitLoop returns a closure that drives one cached-hit
// request of body to path through the coordinator's handler. The misses
// that cache the verdicts (answered by a stub shard) and the first hits
// (which memoize the body) run before it returns.
func coordinatorHitLoop(tb testing.TB, path, body, accept string) func() {
	tb.Helper()
	frame, err := wire.Marshal(&wire.Solvable{Scheme: "S1", Horizon: 3, Solvable: true, Configs: 8})
	if err != nil {
		tb.Fatal(err)
	}
	co, err := New(Config{
		Backends:   []string{"http://stub-shard"},
		Replicas:   1,
		HTTPClient: &http.Client{Transport: stubShard{frame: frame}},
		Logf:       quietLogf,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { co.Shutdown(context.Background()) })
	u, _ := url.Parse(path)
	br := &replayBody{bytes.NewReader([]byte(body))}
	hdr := http.Header{"Content-Type": {"application/json"}}
	if accept != "" {
		hdr.Set("Accept", accept)
	}
	req := &http.Request{Method: http.MethodPost, URL: u, Header: hdr, Body: br, ContentLength: int64(len(body))}
	w := &nopRW{h: make(http.Header)}
	h := co.Handler()
	run := func() {
		br.Seek(0, io.SeekStart)
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	run()
	misses := co.StatsSnapshot().CacheMisses
	run()
	if st := co.StatsSnapshot(); st.CacheHits == 0 || st.CacheMisses != misses {
		tb.Fatalf("the primed request does not hit the coordinator cache (hits %d, misses %d then %d)", st.CacheHits, misses, st.CacheMisses)
	}
	return run
}

func testCoordinatorAllocs(t *testing.T, what string, budget int, run func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates alloc counts; the gate runs unraced")
	}
	for i := 0; i < 32; i++ {
		run()
	}
	if a := testing.AllocsPerRun(200, run); a > float64(budget) {
		t.Fatalf("%s allocates %v/request, budget is %d", what, a, budget)
	}
}

const singleHitBody = `{"scheme":"S1","horizon":3}`

// TestCoordinatorSolveAllocsGate fails when a coordinator's cached JSON
// hit regresses past coordinatorAllocBudget allocations per request.
func TestCoordinatorSolveAllocsGate(t *testing.T) {
	testCoordinatorAllocs(t, "cached-hit coordinator /v1/solvable", coordinatorAllocBudget,
		coordinatorHitLoop(t, "/v1/solvable", singleHitBody, ""))
}

// TestCoordinatorSolveBinaryAllocsGate is the same gate for a caller
// that negotiated frames.
func TestCoordinatorSolveBinaryAllocsGate(t *testing.T) {
	testCoordinatorAllocs(t, "cached-hit binary coordinator /v1/solvable", coordinatorAllocBudget,
		coordinatorHitLoop(t, "/v1/solvable", singleHitBody, wire.AcceptVerdict))
}

// TestCoordinatorBatchHitAllocsGate pins a 16-item all-hit
// /v1/solve/batch through the coordinator, in JSON lines and in frames.
func TestCoordinatorBatchHitAllocsGate(t *testing.T) {
	for _, enc := range []struct{ name, accept string }{{"json", ""}, {"frames", wire.AcceptVerdictStream}} {
		t.Run(enc.name, func(t *testing.T) {
			testCoordinatorAllocs(t, "16-item all-hit coordinator /v1/solve/batch ("+enc.name+")", coordinatorBatchHitAllocBudget,
				coordinatorHitLoop(t, "/v1/solve/batch", hitBatchBody(), enc.accept))
		})
	}
}

// BenchmarkCoordinatorSolveAllocs reports the coordinator's cached-hit
// path; allocs/op is what the gates pin.
func BenchmarkCoordinatorSolveAllocs(b *testing.B) {
	benchCoordinatorHits(b, coordinatorHitLoop(b, "/v1/solvable", singleHitBody, ""))
}

// BenchmarkCoordinatorSolveBinaryAllocs is the same path negotiating
// frames.
func BenchmarkCoordinatorSolveBinaryAllocs(b *testing.B) {
	benchCoordinatorHits(b, coordinatorHitLoop(b, "/v1/solvable", singleHitBody, wire.AcceptVerdict))
}

// BenchmarkCoordinatorBatchHitAllocs reports a 16-item all-hit
// coordinator batch, in JSON lines and in frames.
func BenchmarkCoordinatorBatchHitAllocs(b *testing.B) {
	for _, enc := range []struct{ name, accept string }{{"json", ""}, {"frames", wire.AcceptVerdictStream}} {
		b.Run(enc.name, func(b *testing.B) {
			benchCoordinatorHits(b, coordinatorHitLoop(b, "/v1/solve/batch", hitBatchBody(), enc.accept))
		})
	}
}

func benchCoordinatorHits(b *testing.B, run func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestCoordinatorKeyedRequestsCountsSingles: keyedRequests counts
// single keyed requests only (it is the denominator of the hedge
// ratio); batch items are counted in batchItems, and every lookup of
// either kind is one cache hit or one cache miss.
func TestCoordinatorKeyedRequestsCountsSingles(t *testing.T) {
	co, ts, _ := testCluster(t, 3, nil)
	if resp, raw := postJSON(t, ts.URL+"/v1/solvable", `{"scheme":"S1","horizon":3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("single = %d: %s", resp.StatusCode, raw)
	}
	batch := `{"items":[{"scheme":"S1","horizon":3},{"scheme":"S1","horizon":4},{"scheme":"S1","horizon":5}]}`
	if resp, raw := postJSON(t, ts.URL+"/v1/solve/batch", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d: %s", resp.StatusCode, raw)
	}
	st := co.StatsSnapshot()
	if st.KeyedRequests != 1 || st.BatchItems != 3 || st.CacheHits+st.CacheMisses != 4 {
		t.Fatalf("keyed %d, batch items %d, hits %d + misses %d; want 1, 3 and 4 lookups",
			st.KeyedRequests, st.BatchItems, st.CacheHits, st.CacheMisses)
	}
}

// TestCoordinatorBatchItemsRouteOnTheirOwnEpoch pins the epoch rule of
// a coordinator batch: each item's hedged call routes on the ring
// current when it starts and finishes there. Nine misses against a
// slow shard start eight calls at once (serve's batchFanout); the shard
// is replaced while they run, so they finish on it, and the ninth item,
// started once one of them is done, routes on the new ring.
func TestCoordinatorBatchItemsRouteOnTheirOwnEpoch(t *testing.T) {
	const fanout = 8
	var mu sync.Mutex
	calls := map[string]int{}
	shard := func(name string, delay time.Duration) *httptest.Server {
		// Admits all eight calls at once, which a GOMAXPROCS-sized gate
		// would shed in part.
		node := serve.New(serve.Config{MaxHorizon: 13, AnalysisConcurrency: 2 * fanout, Logf: quietLogf}).Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			calls[name]++
			mu.Unlock()
			time.Sleep(delay)
			node.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	count := func(name string) int {
		mu.Lock()
		defer mu.Unlock()
		return calls[name]
	}
	slow, fast := shard("old", 300*time.Millisecond), shard("new", 0)
	co, ts := startCoordinator(t, Config{Backends: []string{slow.URL}, Replicas: 1, HedgeDelay: 10 * time.Second})

	items := make([]string, fanout+1)
	for i := range items {
		items[i] = fmt.Sprintf(`{"scheme":"S1","horizon":%d}`, i+1)
	}
	type result struct {
		status int
		raw    []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve/batch", "application/json",
			strings.NewReader(`{"items":[`+strings.Join(items, ",")+`]}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, raw, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); count("old") < fanout; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the old shard saw %d calls, want %d in flight", count("old"), fanout)
		}
	}
	if err := co.AddBackend(fast.URL); err != nil {
		t.Fatal(err)
	}
	if err := co.RemoveBackend(slow.URL); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("batch = %d, %v: %s", res.status, res.err, res.raw)
	}
	if got := strings.Count(string(res.raw), `"status":200`); got != len(items) {
		t.Fatalf("%d of %d lines are 200:\n%s", got, len(items), res.raw)
	}
	if o, n := count("old"), count("new"); o != fanout || n != 1 {
		t.Fatalf("the old ring served %d calls and the new ring %d; want %d and 1", o, n, fanout)
	}
}
