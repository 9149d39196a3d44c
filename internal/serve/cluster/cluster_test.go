package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// --- ring -------------------------------------------------------------

// ringMembers fabricates n distinct member URLs of the realistic shape.
func ringMembers(n int) []string {
	m := make([]string, n)
	for i := range m {
		m[i] = fmt.Sprintf("http://127.0.0.1:%d", 8321+i)
	}
	return m
}

func TestRingReplicasDistinctStableClamped(t *testing.T) {
	r := NewRing(ringMembers(3), 64)
	reps := r.Replicas("solvable|somekey|h=9", 2)
	if len(reps) != 2 || reps[0] == reps[1] {
		t.Fatalf("Replicas = %v, want 2 distinct backends", reps)
	}
	for i := 0; i < 10; i++ {
		again := r.Replicas("solvable|somekey|h=9", 2)
		if again[0] != reps[0] || again[1] != reps[1] {
			t.Fatalf("replica set not stable: %v then %v", reps, again)
		}
	}
	// k beyond the backend count clamps; k <= 0 still yields a primary.
	if got := r.Replicas("x", 99); len(got) != 3 {
		t.Fatalf("Replicas(k=99) = %v, want all 3 backends", got)
	}
	if got := r.Replicas("x", 0); len(got) != 1 {
		t.Fatalf("Replicas(k=0) = %v, want just the primary", got)
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(ringMembers(3), 64)
	counts := make([]int, 3)
	const keys = 30000
	for i := 0; i < keys; i++ {
		counts[r.Replicas(fmt.Sprintf("solvable|%032x|h=9", i*2654435761), 1)[0]]++
	}
	for b, n := range counts {
		frac := float64(n) / keys
		if frac < 0.20 || frac > 0.47 {
			t.Fatalf("backend %d owns %.1f%% of keys (counts %v); ring is skewed", b, 100*frac, counts)
		}
	}
}

// --- multi-node harness -----------------------------------------------

// node is one killable backend: a stable URL whose handler can be
// swapped between a live capserved instance and a connection-killing
// stub, so "crash" and "restart" happen without the address changing —
// which is what lets the prober's eject/readmit lifecycle (same member
// identity, interrupted availability) be exercised deterministically.
type node struct {
	ts   *httptest.Server
	mu   sync.Mutex
	live http.Handler // nil while "down"
}

func (n *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	h := n.live
	n.mu.Unlock()
	if h == nil {
		// Crash semantics: sever the connection so the coordinator sees a
		// transport error, not a polite HTTP failure.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	h.ServeHTTP(w, r)
}

func (n *node) kill()                  { n.mu.Lock(); n.live = nil; n.mu.Unlock() }
func (n *node) restart(h http.Handler) { n.mu.Lock(); n.live = h; n.mu.Unlock() }

func quietLogf(string, ...any) {}

// testCluster boots n backend nodes and a coordinator over them.
func testCluster(t *testing.T, n int, mutate func(*Config)) (*Coordinator, *httptest.Server, []*node) {
	t.Helper()
	nodes := make([]*node, n)
	urls := make([]string, n)
	for i := range nodes {
		nd := &node{}
		s := serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf})
		nd.live = s.Handler()
		nd.ts = httptest.NewServer(nd)
		t.Cleanup(nd.ts.Close)
		nodes[i] = nd
		urls[i] = nd.ts.URL
	}
	cfg := Config{
		Backends:         urls,
		Replicas:         2,
		HedgeDelay:       15 * time.Millisecond,
		RequestTimeout:   10 * time.Second,
		AttemptTimeout:   3 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  300 * time.Millisecond,
		Logf:             quietLogf,
	}
	if mutate != nil {
		mutate(&cfg)
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
	return co, ts, nodes
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func clusterStats(t *testing.T, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// verdict is a whole solvability reply, /v1/solvable or
// /v1/net/solvable, with its one per-request field, cached, zeroed.
// Everything else is a function of the key and
// must be identical however many nodes computed it. The body decodes
// into both wire structs; the fields the other kind lacks stay zero.
type verdict struct {
	Sol wire.Solvable
	Net wire.NetSolvable
}

func (v *verdict) UnmarshalJSON(b []byte) error {
	if err := json.Unmarshal(b, &v.Sol); err != nil {
		return err
	}
	if err := json.Unmarshal(b, &v.Net); err != nil {
		return err
	}
	v.Sol.Cached, v.Net.Cached = false, false
	return nil
}

func (v verdict) equal(w verdict) bool { return reflect.DeepEqual(v, w) }

// TestClusterDifferentialAgainstSingleNode routes a mixed query set
// through a 3-node cluster and checks every verdict against a lone
// capserved instance.
func TestClusterDifferentialAgainstSingleNode(t *testing.T) {
	_, ts, _ := testCluster(t, 3, nil)
	ref := httptest.NewServer(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	defer ref.Close()

	queries := []struct{ path, body string }{
		{"/v1/solvable", `{"scheme":"S1","horizon":3}`},
		{"/v1/solvable", `{"scheme":"S1","horizon":7}`},
		{"/v1/solvable", `{"scheme":"S2","horizon":4}`},
		{"/v1/solvable", `{"scheme":"S2","minus":["(b)"],"horizon":5}`},
		{"/v1/net/solvable", `{"graph":"cycle","n":4,"f":1,"rounds":2}`},
		{"/v1/net/solvable", `{"graph":"complete","n":4,"f":1,"rounds":3}`},
	}
	for _, q := range queries {
		cresp, craw := postJSON(t, ts.URL+q.path, q.body)
		rresp, rraw := postJSON(t, ref.URL+q.path, q.body)
		if cresp.StatusCode != http.StatusOK || rresp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: cluster=%d single=%d (%s / %s)",
				q.path, q.body, cresp.StatusCode, rresp.StatusCode, craw, rraw)
		}
		var cv, rv verdict
		if err := json.Unmarshal(craw, &cv); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rraw, &rv); err != nil {
			t.Fatal(err)
		}
		if !cv.equal(rv) {
			t.Fatalf("%s %s: cluster says %+v, single node says %+v", q.path, q.body, cv, rv)
		}
	}

	// The same query again is a coordinator cache hit.
	resp, _ := postJSON(t, ts.URL+"/v1/solvable", `{"scheme":"S1","horizon":3}`)
	if tier := resp.Header.Get("X-Cluster-Cache"); tier != "hit" {
		t.Fatalf("repeat query X-Cluster-Cache = %q, want hit", tier)
	}
}

// TestClusterSurvivesKilledBackend kills one backend under fresh
// (uncacheable-in-advance) traffic: every request must still answer
// correctly via hedging/failover, the hedge and failover counters must
// move, and the dead shard's breaker must eventually open. After a
// restart and cooldown the shard serves again.
func TestClusterSurvivesKilledBackend(t *testing.T) {
	co, ts, nodes := testCluster(t, 3, nil)
	ref := httptest.NewServer(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	defer ref.Close()

	nodes[1].kill()

	// Unique automata so every request misses the coordinator cache and
	// must reach a backend. Member-identity hashing makes which keys the
	// dead shard owns depend on the ephemeral port URLs, so keep issuing
	// fresh keys until its breaker has provably tripped (threshold 3).
	deadBreaker := func() string {
		for _, sh := range clusterStats(t, ts.URL).Shards {
			if sh.Backend == nodes[1].ts.URL {
				return sh.Breaker
			}
		}
		return ""
	}
	for i := 0; i < 60 && deadBreaker() != "open"; i++ {
		body := fmt.Sprintf(`{"scheme":"S2","minus":["%s(.)"],"horizon":4}`,
			strings.Repeat("w", i%3+1)+strings.Repeat("b", i/3+1))
		cresp, craw := postJSON(t, ts.URL+"/v1/solvable", body)
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("request %d with a dead backend = %d: %s", i, cresp.StatusCode, craw)
		}
		rresp, rraw := postJSON(t, ref.URL+"/v1/solvable", body)
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("reference request %d = %d", i, rresp.StatusCode)
		}
		var cv, rv verdict
		json.Unmarshal(craw, &cv)
		json.Unmarshal(rraw, &rv)
		if !cv.equal(rv) {
			t.Fatalf("request %d verdict drifted with dead backend: cluster %+v vs single %+v", i, cv, rv)
		}
	}

	st := clusterStats(t, ts.URL)
	if st.Hedges+st.Failovers == 0 {
		t.Fatalf("no hedges or failovers recorded against a dead backend: %+v", st)
	}
	if b := deadBreaker(); b != "open" {
		t.Fatalf("dead shard breaker = %q, want open (stats %+v)", b, st.Shards)
	}

	// Restart the backend; after the cooldown a half-open probe must
	// re-admit it and traffic keeps flowing.
	nodes[1].restart(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	time.Sleep(co.cfg.BreakerCooldown + 50*time.Millisecond)
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"scheme":"S2","minus":["b%s(.)"],"horizon":4}`, strings.Repeat("w", i+1))
		resp, raw := postJSON(t, ts.URL+"/v1/solvable", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after restart = %d: %s", i, resp.StatusCode, raw)
		}
	}
}

// campaign posts a /v1/chaos body to base and returns the status and
// the raw report.
func campaign(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, raw := postJSON(t, base+"/v1/chaos", body)
	return resp.StatusCode, raw
}

// referenceCampaign is a lone node's report for body.
func referenceCampaign(t *testing.T, body string) []byte {
	t.Helper()
	ref := httptest.NewServer(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	defer ref.Close()
	status, rep := campaign(t, ref.URL, body)
	if status != http.StatusOK {
		t.Fatalf("reference node chaos = %d: %s", status, rep)
	}
	return rep
}

// chaosPrimary is the node a campaign body is routed to first: the
// coordinator forwards the body re-encoded, routed by its hash.
func chaosPrimary(t *testing.T, co *Coordinator, nodes []*node, body string) *node {
	t.Helper()
	q, err := serve.Chaos.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := q.Body()
	if err != nil {
		t.Fatal(err)
	}
	view := co.currentView()
	base := view.shards[view.ring.Replicas("chaos|"+string(fwd), co.cfg.Replicas)[0]].base
	for _, n := range nodes {
		if n.ts.URL == base {
			return n
		}
	}
	t.Fatalf("primary %s is not a test node", base)
	return nil
}

// TestClusterChaosOneFlight: on a healthy cluster a campaign is one
// shard call, and the coordinator's report is the lone node's.
func TestClusterChaosOneFlight(t *testing.T) {
	const body = `{"scheme":"S1","executions":90,"seed":7}`
	_, ts, _ := testCluster(t, 3, func(cfg *Config) { cfg.HedgeDelay = time.Minute })
	status, got := campaign(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("chaos = %d: %s", status, got)
	}
	if want := referenceCampaign(t, body); !bytes.Equal(got, want) {
		t.Fatalf("coordinator report differs from the node's:\ncoordinator %s\nnode        %s", got, want)
	}
	var calls int64
	for _, sh := range clusterStats(t, ts.URL).Shards {
		calls += sh.Requests
	}
	if calls != 1 {
		t.Fatalf("the campaign made %d shard calls, want 1", calls)
	}
}

// TestClusterChaosFailsOverDeadShard: a campaign whose primary shard is
// dead fails over to the next replica and still answers the lone
// node's report; with every shard dead it is refused, never answered.
func TestClusterChaosFailsOverDeadShard(t *testing.T) {
	const body = `{"scheme":"S1","executions":90,"seed":3}`
	co, ts, nodes := testCluster(t, 3, func(cfg *Config) { cfg.HedgeDelay = time.Minute })
	chaosPrimary(t, co, nodes, body).kill()
	status, got := campaign(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("chaos with a dead primary = %d: %s", status, got)
	}
	if want := referenceCampaign(t, body); !bytes.Equal(got, want) {
		t.Fatalf("coordinator report differs from the node's:\ncoordinator %s\nnode        %s", got, want)
	}
	if st := clusterStats(t, ts.URL); st.Failovers < 1 {
		t.Fatalf("failovers = %d, want ≥ 1", st.Failovers)
	}

	for _, n := range nodes {
		n.kill()
	}
	status, got = campaign(t, ts.URL, `{"scheme":"S1","executions":30,"seed":4}`)
	if status != http.StatusBadGateway && status != http.StatusServiceUnavailable {
		t.Fatalf("all-dead campaign = %d: %s, want 502 or 503", status, got)
	}
}

// TestClusterKillAndRestartMidCampaign runs a long campaign while its
// primary shard is killed, its connections severed, and later
// restarted. Whichever replica finishes it, the reply is the lone
// node's report, and the coordinator keeps serving keyed queries.
func TestClusterKillAndRestartMidCampaign(t *testing.T) {
	const body = `{"scheme":"S1","executions":6000,"seed":11,"maxRounds":6}`
	// A long campaign must not be guillotined by the keyed-path attempt
	// budget — especially under the race detector's ~10x slowdown.
	co, ts, nodes := testCluster(t, 3, func(cfg *Config) {
		cfg.RequestTimeout = 60 * time.Second
		cfg.AttemptTimeout = 60 * time.Second
	})
	want := referenceCampaign(t, body)
	primary := chaosPrimary(t, co, nodes, body)

	killed := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		primary.kill()
		primary.ts.CloseClientConnections()
		time.Sleep(80 * time.Millisecond)
		primary.restart(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
		close(killed)
	}()

	status, got := campaign(t, ts.URL, body)
	<-killed
	if status != http.StatusOK {
		t.Fatalf("mid-campaign kill/restart = %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator report differs from the node's:\ncoordinator %s\nnode        %s", got, want)
	}
	// The cluster keeps answering after the turbulence.
	resp2, raw2 := postJSON(t, ts.URL+"/v1/solvable", `{"scheme":"S1","horizon":5}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("keyed query after campaign = %d: %s", resp2.StatusCode, raw2)
	}
}

// TestClusterUnderFaultyTransport puts the seeded chaos transport
// between coordinator and backends: drops and injected 500s must be
// absorbed by hedging/failover without corrupting verdicts.
func TestClusterUnderFaultyTransport(t *testing.T) {
	ft := &chaos.FaultyTransport{
		Seed:   42,
		Faults: chaos.TransportFaults{DropProb: 0.2, Err500Prob: 0.1},
	}
	_, ts, _ := testCluster(t, 3, func(cfg *Config) {
		cfg.Replicas = 3
		cfg.BreakerThreshold = 100 // the adversary is the subject here, not the breaker
		cfg.HTTPClient = &http.Client{Transport: ft}
	})
	ref := httptest.NewServer(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	defer ref.Close()

	okCount := 0
	for i := 0; i < 40; i++ {
		// A distinct ultimately periodic word per request: every query is
		// a fresh cache key, so each one truly crosses the transport.
		word := make([]byte, 6)
		for bit := range word {
			if i&(1<<bit) != 0 {
				word[bit] = 'w'
			} else {
				word[bit] = 'b'
			}
		}
		body := fmt.Sprintf(`{"scheme":"S2","minus":["%s(.)"],"horizon":3}`, word)
		cresp, craw := postJSON(t, ts.URL+"/v1/solvable", body)
		if cresp.StatusCode != http.StatusOK {
			continue // all three replicas unlucky — allowed, but must stay rare
		}
		okCount++
		rresp, rraw := postJSON(t, ref.URL+"/v1/solvable", body)
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("reference failed: %d", rresp.StatusCode)
		}
		var cv, rv verdict
		json.Unmarshal(craw, &cv)
		json.Unmarshal(rraw, &rv)
		if !cv.equal(rv) {
			t.Fatalf("verdict corrupted under chaos transport: %+v vs %+v", cv, rv)
		}
	}
	// Per-attempt failure ~0.3, so a whole request fails ~2.7% of the
	// time (3 independent replicas): 34+/40 passes with huge margin.
	if okCount < 34 {
		t.Fatalf("only %d/40 requests survived the chaos transport", okCount)
	}
	if ft.Injected() == 0 {
		t.Fatal("the chaos transport never injected a fault")
	}
	st := clusterStats(t, ts.URL)
	if st.Failovers+st.Hedges == 0 {
		t.Fatalf("no failovers/hedges under a faulty transport: %+v", st)
	}
}

// TestCoordinatorWarmStoreOutlivesBackends: verdicts computed through
// the coordinator land in its warm store; a NEW coordinator booted on
// that store preloads them into its LRU and answers the same query as a
// cache hit with every backend dead.
func TestCoordinatorWarmStoreOutlivesBackends(t *testing.T) {
	dir := t.TempDir()
	warm := dir + "/coord-warm.seg"

	co, ts, nodes := testCluster(t, 3, func(cfg *Config) { cfg.WarmStorePath = warm })
	const query = `{"scheme":"S1","horizon":6}`
	resp, raw := postJSON(t, ts.URL+"/v1/solvable", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solvable = %d: %s", resp.StatusCode, raw)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	co.Shutdown(ctx)
	cancel()

	for _, nd := range nodes {
		nd.kill()
	}
	co2, err := New(Config{
		Backends:      []string{nodes[0].ts.URL, nodes[1].ts.URL, nodes[2].ts.URL},
		WarmStorePath: warm,
		Logf:          quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(co2.Handler())
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		co2.Shutdown(ctx)
	}()

	resp2, raw2 := postJSON(t, ts2.URL+"/v1/solvable", query)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm-only coordinator = %d: %s", resp2.StatusCode, raw2)
	}
	if tier := resp2.Header.Get("X-Cluster-Cache"); tier != "hit" {
		t.Fatalf("X-Cluster-Cache = %q, want hit (preloaded from the warm store)", tier)
	}
	var v1, v2 verdict
	json.Unmarshal(raw, &v1)
	json.Unmarshal(raw2, &v2)
	if !v1.equal(v2) {
		t.Fatalf("warm verdict drifted: %+v vs %+v", v1, v2)
	}
}

// stubShard is a backend transport that answers every request with one
// fixed net-solvability frame, so the coordinator's miss path runs with
// no sockets and no engine behind it.
type stubShard struct{ frame []byte }

func (s stubShard) RoundTrip(r *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {wire.MediaTypeVerdict}},
		Body:       io.NopCloser(bytes.NewReader(s.frame)),
		Request:    r,
	}, nil
}

// heapInuse reports the live heap after a full collection.
func heapInuse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestCoordinatorHeapBoundedByCacheEntries pushes 100k distinct
// verdicts through the coordinator's real miss path (the pipeline's
// singleflight → Answer → hedgedDo, then the warm store append)
// against a stub shard, with a warm store attached. Every verdict is appended to the store, yet the live heap
// must grow by no more than a bound set by CacheEntries: nothing but
// the LRU may remember a verdict.
func TestCoordinatorHeapBoundedByCacheEntries(t *testing.T) {
	const (
		verdicts = 100_000
		entries  = 512
		// perEntry is generous for one cached body, its key and the
		// LRU's list and map overhead; slack absorbs the runtime's own
		// churn (pools, sweep granularity).
		perEntry = 2 << 10
		slack    = 4 << 20
	)
	frame, err := wire.Marshal(&wire.NetSolvable{Graph: "path", N: 2, Solvable: true, EdgeConnectivity: 1, TheoremV1: true})
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(Config{
		Backends:      []string{"http://stub-shard"},
		Replicas:      1,
		CacheEntries:  entries,
		WarmStorePath: filepath.Join(t.TempDir(), "coord-warm.seg"),
		HTTPClient:    &http.Client{Transport: stubShard{frame: frame}},
		Logf:          quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		co.Shutdown(ctx)
	}()
	h := co.Handler()
	before := heapInuse()
	for i := 0; i < verdicts; i++ {
		body := fmt.Sprintf(`{"graph":"path","n":2,"f":0,"rounds":%d}`, i)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/net/solvable", strings.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cluster-Cache") != "miss" {
			t.Fatalf("verdict %d: status %d, X-Cluster-Cache %q: %s", i, rec.Code, rec.Header().Get("X-Cluster-Cache"), rec.Body)
		}
	}
	grew := heapInuse() - before
	st := co.StatsSnapshot()
	if n := st.WarmStored; n != verdicts {
		t.Fatalf("warm store holds %d records, want one per miss (%d)", n, verdicts)
	}
	if n := st.CacheLen; n != entries {
		t.Fatalf("LRU holds %d verdicts, want CacheEntries (%d)", n, entries)
	}
	if bound := int64(slack + entries*perEntry); grew > bound {
		t.Fatalf("heap grew %d KiB over %d verdicts, bound %d KiB (CacheEntries %d)", grew>>10, verdicts, bound>>10, entries)
	}
	t.Logf("heap grew %d KiB over %d verdicts", grew>>10, verdicts)
}

// TestCoordinatorDrainCancelsHedgesNoLeak is the graceful-drain
// contract: with hedged requests wedged against hanging backends,
// Shutdown must flip readiness, cancel every in-flight attempt, wait
// for the hedge goroutines, and leave no goroutine behind.
func TestCoordinatorDrainCancelsHedgesNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	// Backends that never answer: every request wedges until cancelled.
	// The body must be drained first — with unread body bytes buffered,
	// net/http cannot arm its background close detection and the
	// request context would never fire.
	hang := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	bk1 := httptest.NewServer(hang)
	bk2 := httptest.NewServer(hang)
	co, err := New(Config{
		Backends:       []string{bk1.URL, bk2.URL},
		Replicas:       2,
		HedgeDelay:     10 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
		Logf:           quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	client := &http.Client{}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"scheme":"S2","minus":["%s(.)"],"horizon":3}`, strings.Repeat("w", i+1))
			resp, err := client.Post(ts.URL+"/v1/solvable", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}

	// Wait until hedges are provably in flight.
	deadline := time.Now().Add(3 * time.Second)
	for {
		var st Stats
		resp, err := client.Get(ts.URL + "/v1/stats")
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if st.Hedges >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hedges never launched against hanging backends")
		}
		time.Sleep(5 * time.Millisecond)
	}

	shctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := co.Shutdown(shctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Shutdown of wedged hedges took %s; attempts were not cancelled", took)
	}
	wg.Wait() // the wedged requests must come back once their attempts die

	// Drained: not ready anymore.
	resp, err := client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", resp.StatusCode)
	}

	ts.Close()
	bk1.Close()
	bk2.Close()
	client.CloseIdleConnections()

	// Leak check: goroutines settle back to (about) the pre-test count.
	leakDeadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
