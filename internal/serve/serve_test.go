package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	coordattack "repro"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, raw
}

func TestHealthReadyVarz(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v Varz
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding varz: %v", err)
	}
	if !v.Ready || v.Draining {
		t.Fatalf("varz = ready=%v draining=%v, want ready, not draining", v.Ready, v.Draining)
	}
	if v.BreakerState != "closed" {
		t.Fatalf("breakerState = %q, want closed", v.BreakerState)
	}
}

func TestClassifyEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/classify", `{"scheme":"S1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify = %d: %s", resp.StatusCode, raw)
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Scheme != "S1" || cr.Solvable == nil {
		t.Fatalf("classify response = %+v, want S1 with a solvability verdict", cr)
	}
	// Same scheme spelled as an expression must share the cache entry:
	// the canonical key is the compiled automaton, not the spelling.
	resp2, raw2 := postJSON(t, ts.URL+"/v1/classify", `{"scheme":"S1"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second classify = %d: %s", resp2.StatusCode, raw2)
	}
	var cr2 ClassifyResponse
	if err := json.Unmarshal(raw2, &cr2); err != nil {
		t.Fatal(err)
	}
	if !cr2.Cached {
		t.Fatal("identical classify request was not served from cache")
	}
}

func TestIndexUnindexRoundtrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/index", `{"word":"wb."}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index = %d: %s", resp.StatusCode, raw)
	}
	var ir indexResponse
	if err := json.Unmarshal(raw, &ir); err != nil {
		t.Fatal(err)
	}
	resp2, raw2 := postJSON(t, ts.URL+"/v1/unindex",
		fmt.Sprintf(`{"rounds":3,"index":%q}`, ir.Index))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("unindex = %d: %s", resp2.StatusCode, raw2)
	}
	var ur indexResponse
	if err := json.Unmarshal(raw2, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Word != "wb." {
		t.Fatalf("unindex(index(%q)) = %q; bijection broken", "wb.", ur.Word)
	}

	// A word outside Γ must be rejected, not indexed.
	resp3, _ := postJSON(t, ts.URL+"/v1/index", `{"word":"x"}`)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("index of double omission = %d, want 400", resp3.StatusCode)
	}
}

func TestSolvableEndpointAndCache(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/solvable", `{"scheme":"S1","horizon":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solvable = %d: %s", resp.StatusCode, raw)
	}
	var sr solvableResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cached {
		t.Fatal("first solvable query claims cached")
	}
	_, raw2 := postJSON(t, ts.URL+"/v1/solvable", `{"scheme":"S1","horizon":2}`)
	var sr2 solvableResponse
	if err := json.Unmarshal(raw2, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached {
		t.Fatal("identical solvable query not served from cache")
	}
	if sr2.Solvable != sr.Solvable {
		t.Fatal("cached verdict differs from computed verdict")
	}

	// Horizon beyond the cap is a client error, not a giant computation.
	resp3, _ := postJSON(t, ts.URL+"/v1/solvable", `{"scheme":"S1","horizon":99}`)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized horizon = %d, want 400", resp3.StatusCode)
	}
}

func TestNetSolvableEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/net/solvable", `{"graph":"cycle","n":4,"f":1,"rounds":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("net/solvable = %d: %s", resp.StatusCode, raw)
	}
	var nr netSolvableResponse
	if err := json.Unmarshal(raw, &nr); err != nil {
		t.Fatal(err)
	}
	if nr.N != 4 || nr.EdgeConnectivity != 2 {
		t.Fatalf("cycle(4): n=%d c=%d, want n=4 c=2", nr.N, nr.EdgeConnectivity)
	}
	if !nr.TheoremV1 {
		t.Fatal("f=1 < c=2 must report Theorem V.1 solvable")
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/net/solvable", `{"graph":"complete","n":50,"f":1,"rounds":2}`)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("n=50 = %d, want 400", resp2.StatusCode)
	}
}

func TestChaosEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/chaos",
		`{"scheme":"S1","executions":25,"seed":7,"maxRounds":64,"maxPrefix":4,"noShrink":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos = %d: %s", resp.StatusCode, raw)
	}
	var cr chaosResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Executions != 25 || !cr.OK {
		t.Fatalf("chaos report = %+v, want 25 clean executions", cr)
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/chaos", `{"scheme":"S1","executions":999999999}`)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized campaign = %d, want 400", resp2.StatusCode)
	}
}

func TestBadRequestsRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct{ path, body string }{
		{"/v1/classify", `{"scheme":"no-such-scheme"}`},
		{"/v1/classify", `{"bogus_field":1}`},
		{"/v1/classify", `{}`},
		{"/v1/solvable", `not json`},
	}
	for _, c := range cases {
		resp, _ := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q = %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	var logged bytes.Buffer
	var logMu sync.Mutex
	s, ts := testServer(t, Config{Logf: func(f string, a ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logged, f+"\n", a...)
	}})
	s.mux.Handle("POST /test/panic", s.protect(classLight, func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	resp, raw := postJSON(t, ts.URL+"/test/panic", `{}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", resp.StatusCode)
	}
	var ae apiError
	if err := json.Unmarshal(raw, &ae); err != nil {
		t.Fatal(err)
	}
	if ae.DiagID == "" {
		t.Fatal("500 body carries no diagnostic ID")
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(logged.String(), ae.DiagID) || !strings.Contains(logged.String(), "kaboom") {
		t.Fatalf("server log does not tie diag ID %q to the panic: %s", ae.DiagID, logged.String())
	}
}

// panicQuery is a test-only verdict class whose first computation
// panics; every later one answers "ok".
type panicQuery struct{ first *atomic.Bool }

func (q *panicQuery) resolve() (string, error) { return "test-panic-key", nil }
func (q *panicQuery) limit(*Config) error      { return nil }
func (q *panicQuery) compute(*Server, context.Context) (any, error) {
	if q.first.CompareAndSwap(true, false) {
		panic("engine kaboom")
	}
	return "ok", nil
}

// TestHeavyComputePanicIsolated pins the panic story on the item path:
// the singleflight runner converts a panicking computation into a 500 +
// diagnostic ID for every waiter, the breaker is settled rather than
// leaked, and the key computes normally on the next request instead of
// staying poisoned.
func TestHeavyComputePanicIsolated(t *testing.T) {
	var logged bytes.Buffer
	var logMu sync.Mutex
	s, ts := testServer(t, Config{Logf: func(f string, a ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logged, f+"\n", a...)
	}})
	var first atomic.Bool
	first.Store(true)
	cl := &Class{Path: "/test/compute-panic", newQuery: func() query { return &panicQuery{first: &first} }}
	s.mux.Handle("POST /test/compute-panic", s.protect(classHeavy, s.handleQuery(cl)))

	resp, raw := postJSON(t, ts.URL+"/test/compute-panic", `{}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking compute = %d (%s), want 500", resp.StatusCode, raw)
	}
	var ae apiError
	if err := json.Unmarshal(raw, &ae); err != nil {
		t.Fatal(err)
	}
	if ae.DiagID == "" {
		t.Fatal("compute-panic 500 carries no diagnostic ID")
	}
	logMu.Lock()
	if !strings.Contains(logged.String(), ae.DiagID) || !strings.Contains(logged.String(), "engine kaboom") {
		logMu.Unlock()
		t.Fatalf("server log does not tie diag ID %q to the panic", ae.DiagID)
	}
	logMu.Unlock()
	if state, fails := s.brk.Snapshot(); state != "closed" || fails != 1 {
		t.Fatalf("breaker after the panic = %s/%d, want closed/1 (a panic settles as a failure)", state, fails)
	}

	resp2, raw2 := postJSON(t, ts.URL+"/test/compute-panic", `{}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request = %d (%s), want 200 — key poisoned or breaker leaked", resp2.StatusCode, raw2)
	}
	state, fails := s.brk.Snapshot()
	if state != "closed" || fails != 0 {
		t.Fatalf("breaker after panic+success = %s/%d, want closed/0", state, fails)
	}
}

// TestRequestTimeoutStrictParse pins the timeout_ms contract: strict
// integer parsing (trailing garbage rejected, not truncated), and the
// configured ceiling can be lowered but never raised.
func TestRequestTimeoutStrictParse(t *testing.T) {
	s := New(Config{RequestTimeout: 5 * time.Second})
	for _, tc := range []struct {
		q    string
		want time.Duration
	}{
		{"", 5 * time.Second},
		{"timeout_ms=100", 100 * time.Millisecond},
		{"timeout_ms=100abc", 5 * time.Second},
		{"timeout_ms=1e3", 5 * time.Second},
		{"timeout_ms=-5", 5 * time.Second},
		{"timeout_ms=0", 5 * time.Second},
		{"timeout_ms=999999999", 5 * time.Second},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/solvable?"+tc.q, nil)
		if got := s.requestTimeout(r); got != tc.want {
			t.Errorf("requestTimeout(%q) = %s, want %s", tc.q, got, tc.want)
		}
	}
}

// TestBurstShedding saturates the heavy admission queue and checks the
// overflow is shed with 429 + Retry-After while admitted requests still
// complete — no deadlock, no unbounded queueing.
func TestBurstShedding(t *testing.T) {
	s, ts := testServer(t, Config{AnalysisConcurrency: 1, QueueDepth: 1})
	entered := make(chan struct{}, 16)
	unblock := make(chan struct{})
	s.mux.Handle("POST /test/block", s.protect(classHeavy, func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-unblock
		fmt.Fprintln(w, "ok")
	}))

	type outcome struct {
		status     int
		retryAfter string
	}
	results := make(chan outcome, 16)
	fire := func() {
		resp, err := http.Post(ts.URL+"/test/block", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Error(err)
			results <- outcome{status: -1}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
	}

	// First request occupies the single execution slot.
	go fire()
	<-entered
	// Nine more: one fits the queue (depth 1), eight must shed NOW.
	const burst = 9
	for i := 0; i < burst; i++ {
		go fire()
	}
	shed := 0
	for shed < burst-1 {
		o := <-results
		if o.status != http.StatusTooManyRequests {
			t.Fatalf("burst response = %d, want 429", o.status)
		}
		if o.retryAfter == "" {
			t.Fatal("429 without Retry-After header")
		}
		shed++
	}
	// Unblock: the slot holder and the one queued request both finish.
	close(unblock)
	for i := 0; i < 2; i++ {
		if o := <-results; o.status != http.StatusOK {
			t.Fatalf("admitted request = %d, want 200", o.status)
		}
	}
	var v Varz
	resp, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Shed != int64(burst-1) {
		t.Fatalf("varz shed = %d, want %d", v.Shed, burst-1)
	}
}

// TestBreakerTripsOverHTTP forces BreakerThreshold consecutive compute
// failures with a microscopic compute budget and checks the breaker then
// fast-fails the next miss with 503 + Retry-After instead of burning the
// engine. The failures come as single misses; as single misses each
// followed by a batch of one cache hit, which runs no engine and so
// settles nothing; or as one batch of distinct misses, each of whose
// computations settles once.
func TestBreakerTripsOverHTTP(t *testing.T) {
	// Distinct keys, so the failures are fresh computations (errors are
	// never cached, but identical in-flight requests would coalesce).
	failing := []string{`{"scheme":"S1","horizon":3}`, `{"scheme":"S1","horizon":4}`}
	for _, mode := range []string{"singles", "singles-then-hit-batches", "one-batch"} {
		t.Run(mode, func(t *testing.T) {
			s, ts := testServer(t, Config{
				ComputeBudget:    time.Nanosecond, // every engine call times out instantly
				BreakerThreshold: len(failing),
				BreakerCooldown:  time.Hour,
			})
			// Seed one verdict: with a nanosecond budget nothing can be
			// computed the honest way.
			sch, err := coordattack.SchemeByName("S1")
			if err != nil {
				t.Fatal(err)
			}
			s.cache.put(SolvableKey(sch, 2, false), solvableResponse{Scheme: "S1", Horizon: 2, Solvable: true})
			singles := failing
			if mode == "one-batch" {
				singles = nil
				_, lines := postBatch(t, ts.URL, `{"items":[`+strings.Join(failing, ",")+`]}`)
				if len(lines) != len(failing) {
					t.Fatalf("got %d lines, want %d", len(lines), len(failing))
				}
				for i, ln := range lines {
					if ln.Status != http.StatusGatewayTimeout {
						t.Fatalf("batch failure %d = %+v, want 504", i, ln)
					}
				}
			}
			for i, body := range singles {
				resp, raw := postJSON(t, ts.URL+"/v1/solvable", body)
				if resp.StatusCode != http.StatusGatewayTimeout {
					t.Fatalf("failure %d = %d (%s), want 504", i, resp.StatusCode, raw)
				}
				if mode == "singles-then-hit-batches" {
					_, lines := postBatch(t, ts.URL, `{"items":[{"scheme":"S1","horizon":2}]}`)
					if len(lines) != 1 || lines[0].Status != http.StatusOK || !lines[0].Verdict.Cached {
						t.Fatalf("hit batch after failure %d = %+v, want one cached 200", i, lines)
					}
				}
			}
			resp, raw := postJSON(t, ts.URL+"/v1/solvable", `{"scheme":"S1","horizon":5}`)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("tripped breaker = %d (%s), want 503", resp.StatusCode, raw)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("breaker 503 without Retry-After")
			}
		})
	}
}

// TestBreakerCoversChaos pins that /v1/chaos sits behind the circuit
// breaker like the other heavy paths: repeated campaign timeouts trip
// it, after which chaos requests fast-fail with 503 + Retry-After.
func TestBreakerCoversChaos(t *testing.T) {
	_, ts := testServer(t, Config{
		RequestTimeout:   time.Nanosecond, // every campaign times out instantly
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	body := `{"scheme":"S1","executions":50000,"seed":7}`
	for i := 0; i < 2; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/chaos", body)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("timed-out campaign %d = %d (%s), want 504", i, resp.StatusCode, raw)
		}
	}
	resp, raw := postJSON(t, ts.URL+"/v1/chaos", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped breaker = %d (%s), want 503", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker 503 without Retry-After")
	}
}

// TestChaosTimeoutMidCampaignIs504 pins that a campaign the request
// timeout interrupts answers 504, also when the timeout lands inside an
// execution and the request caps violations at 1: the interrupted run is
// the request's deadline, not a deadline violation of A_w.
func TestChaosTimeoutMidCampaignIs504(t *testing.T) {
	_, ts := testServer(t, Config{RequestTimeout: 20 * time.Millisecond})
	body := `{"scheme":"S1","executions":100000,"seed":7,"maxViolations":1}`
	for i := 0; i < 3; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/chaos", body)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("timed-out campaign %d = %d (%s), want 504", i, resp.StatusCode, raw)
		}
	}
}

// TestGracefulDrain proves the SIGTERM path: after the lifecycle context
// is cancelled, in-flight requests run to completion, new connections are
// refused, readiness flips, and ListenAndServe returns cleanly.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", DrainTimeout: 10 * time.Second})
	entered := make(chan struct{})
	unblock := make(chan struct{})
	s.mux.Handle("POST /test/block", s.protect(classHeavy, func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-unblock
		fmt.Fprintln(w, "drained-ok")
	}))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ListenAndServe(ctx) }()

	var base string
	for i := 0; i < 500; i++ {
		if addr := s.BoundAddr(); addr != "" {
			base = "http://" + addr
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		t.Fatal("server never bound")
	}

	// Park one request in a handler.
	inflight := make(chan string, 1)
	go func() {
		resp, err := http.Post(base+"/test/block", "application/json", strings.NewReader(`{}`))
		if err != nil {
			inflight <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		inflight <- fmt.Sprintf("%d %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}()
	<-entered

	// SIGTERM analog: cancel the lifecycle context; drain starts.
	cancel()

	// New work must be rejected: the listener closes during Shutdown, so
	// fresh connections fail outright (or, in the shutdown race window,
	// readiness reports draining).
	rejected := false
	for i := 0; i < 500; i++ {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			rejected = true // connection refused: listener is gone
			break
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			rejected = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !rejected {
		t.Fatal("new requests were still welcomed after drain began")
	}

	// The parked request must still complete successfully.
	close(unblock)
	select {
	case got := <-inflight:
		if got != "200 drained-ok" {
			t.Fatalf("in-flight request during drain = %q, want \"200 drained-ok\"", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("ListenAndServe after drain = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not return after drain")
	}
	if s.ready.Load() || !s.draining.Load() {
		t.Fatal("drained server still advertises readiness")
	}
}

// TestConcurrentMixedLoad hammers the service with a mixture of cacheable
// queries from many goroutines; under -race this doubles as the data-race
// proof for the cache/singleflight/gate/metrics plumbing.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := testServer(t, Config{AnalysisConcurrency: 2, QueueDepth: 64})
	bodies := []string{
		`{"scheme":"S1","horizon":2}`,
		`{"scheme":"S2","horizon":2}`,
		`{"scheme":"S1","horizon":3}`,
	}
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solvable", "application/json",
				strings.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				t.Errorf("mixed load: %v", err)
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("mixed load: %d (%s)", resp.StatusCode, raw)
			}
		}(i)
	}
	wg.Wait()
}
