package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	coordattack "repro"
)

// batchLine is the JSON decode shape of one /v1/solve/batch stream line.
type batchLine struct {
	Index   int               `json:"index"`
	Status  int               `json:"status"`
	Verdict *solvableResponse `json:"verdict,omitempty"`
	Error   string            `json:"error,omitempty"`
	DiagID  string            `json:"diagId,omitempty"`
}

// postBatch fires a /v1/solve/batch request and decodes the JSON-lines
// stream into batchLine records.
func postBatch(t *testing.T, url, body string) (*http.Response, []batchLine) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/solve/batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp, nil
	}
	var lines []batchLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 8<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ln batchLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading batch stream: %v", err)
	}
	return resp, lines
}

// TestSolveBatchMixedItems covers the core batch semantics in one pass:
// per-item verdicts stream in order, invalid items become per-line 400s
// without sinking their siblings, a repeated scenario inside the batch
// is served from cache after its first occurrence, and each verdict
// matches what the single-item endpoint answers.
func TestSolveBatchMixedItems(t *testing.T) {
	_, ts := testServer(t, Config{})

	resp, lines := postBatch(t, ts.URL, `{"items":[
		{"scheme":"S1","horizon":2},
		{"scheme":"no-such-scheme","horizon":2},
		{"scheme":"S1","horizon":2},
		{"scheme":"S1","horizon":3}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4: %+v", len(lines), lines)
	}
	for i, ln := range lines {
		if ln.Index != i {
			t.Fatalf("line %d has index %d; stream out of order", i, ln.Index)
		}
	}
	if lines[0].Status != http.StatusOK || lines[0].Verdict == nil {
		t.Fatalf("line 0 = %+v, want 200 with verdict", lines[0])
	}
	if lines[1].Status != http.StatusBadRequest || lines[1].Error == "" {
		t.Fatalf("line 1 = %+v, want per-item 400", lines[1])
	}
	if lines[2].Status != http.StatusOK || lines[2].Verdict == nil || !lines[2].Verdict.Cached {
		t.Fatalf("line 2 = %+v, want cached repeat of line 0", lines[2])
	}
	if lines[3].Status != http.StatusOK || lines[3].Verdict == nil {
		t.Fatalf("line 3 = %+v, want 200 with verdict", lines[3])
	}

	// Differential: the batch verdict must be byte-for-byte the same
	// decision the single-item endpoint reaches.
	sresp, raw := postJSON(t, ts.URL+"/v1/solvable", `{"scheme":"S1","horizon":2}`)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("single solvable = %d: %s", sresp.StatusCode, raw)
	}
	var single solvableResponse
	if err := json.Unmarshal(raw, &single); err != nil {
		t.Fatal(err)
	}
	if got := lines[0].Verdict; got.Solvable != single.Solvable ||
		got.Configs != single.Configs || got.Components != single.Components {
		t.Fatalf("batch verdict %+v disagrees with single-item verdict %+v", got, single)
	}

	var v Varz
	vresp, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	if err := json.NewDecoder(vresp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.BatchRequests != 1 || v.BatchItems != 4 {
		t.Fatalf("varz batches=%d items=%d, want 1 and 4", v.BatchRequests, v.BatchItems)
	}
}

// TestSolveBatchLimits pins the request-shape guards: an empty item
// list and a batch over MaxBatchItems are whole-request 400s.
func TestSolveBatchLimits(t *testing.T) {
	_, ts := testServer(t, Config{MaxBatchItems: 2})
	resp, _ := postBatch(t, ts.URL, `{"items":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", resp.StatusCode)
	}
	resp, _ = postBatch(t, ts.URL, `{"items":[
		{"scheme":"S1","horizon":1},
		{"scheme":"S1","horizon":2},
		{"scheme":"S1","horizon":3}
	]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d, want 400", resp.StatusCode)
	}
}

// TestSolveBatchSingleAdmissionSlot proves a batch of N scenarios runs
// under ONE admission slot: with analysis concurrency 1 and no queue, a
// multi-item batch still completes wholesale — item N does not need to
// re-enter the gate the way N separate requests would.
func TestSolveBatchSingleAdmissionSlot(t *testing.T) {
	_, ts := testServer(t, Config{AnalysisConcurrency: 1, QueueDepth: 0})
	resp, lines := postBatch(t, ts.URL, `{"items":[
		{"scheme":"S1","horizon":1},
		{"scheme":"S1","horizon":2},
		{"scheme":"S1","horizon":3},
		{"scheme":"S1","horizon":4}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch under concurrency 1 = %d, want 200", resp.StatusCode)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	for i, ln := range lines {
		if ln.Status != http.StatusOK {
			t.Fatalf("line %d = %+v, want 200", i, ln)
		}
	}
}

// TestSolveBatchShedBeforeEngineWork proves overload rejects the whole
// batch up front: with the only slot occupied and the queue full, the
// batch gets one 429 with Retry-After, and no batch bookkeeping or
// engine computation ever starts.
func TestSolveBatchShedBeforeEngineWork(t *testing.T) {
	s, ts := testServer(t, Config{AnalysisConcurrency: 1, QueueDepth: 1})
	entered := make(chan struct{}, 2)
	unblock := make(chan struct{})
	defer close(unblock)
	s.mux.Handle("POST /test/block", s.protect(classHeavy, func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-unblock
		fmt.Fprintln(w, "ok")
	}))
	// One blocker occupies the execution slot, a second fills the queue.
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/test/block", "application/json", strings.NewReader(`{}`))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	<-entered
	// The queued request never reaches the handler; give it a beat to
	// take the queue slot so the batch finds the gate full.
	deadline := time.Now().Add(5 * time.Second)
	for s.heavy.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second blocker never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, _ := postBatch(t, ts.URL, `{"items":[{"scheme":"S1","horizon":2}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch under full gate = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed batch without Retry-After header")
	}
	if got := s.m.batches.Load(); got != 0 {
		t.Fatalf("shed batch was counted as admitted (batches=%d)", got)
	}
	if got := s.cache.misses.Load(); got != 0 {
		t.Fatalf("shed batch reached the compute path (misses=%d)", got)
	}
}

// TestSolveBatchBreakerOpenServesCachedItems: with the breaker open,
// a batch still streams LRU hits as 200 lines while the items that
// would need fresh engine work fast-fail with per-item 503s; after the
// cooldown, a batch of hits runs no engine, so it is no half-open probe
// and cannot close the breaker.
func TestSolveBatchBreakerOpenServesCachedItems(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	s, ts := testServer(t, Config{
		ComputeBudget:    time.Nanosecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Clock:            fc.now,
	})
	// Trip the breaker with two timed-out computations.
	for _, body := range []string{
		`{"scheme":"S1","horizon":3}`,
		`{"scheme":"S1","horizon":4}`,
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/solvable", body)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("priming failure = %d, want 504", resp.StatusCode)
		}
	}
	// Seed one verdict into the LRU directly: with a nanosecond budget
	// nothing can be computed the honest way.
	sch, err := coordattack.SchemeByName("S1")
	if err != nil {
		t.Fatal(err)
	}
	key := SolvableKey(sch, 2, false)
	s.cache.put(key, solvableResponse{Scheme: "S1", Horizon: 2, Solvable: true})

	resp, lines := postBatch(t, ts.URL, `{"items":[
		{"scheme":"S1","horizon":2},
		{"scheme":"S1","horizon":9}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with open breaker = %d, want 200 stream", resp.StatusCode)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Status != http.StatusOK || lines[0].Verdict == nil || !lines[0].Verdict.Cached {
		t.Fatalf("cached item under open breaker = %+v, want cached 200", lines[0])
	}
	if lines[1].Status != http.StatusServiceUnavailable {
		t.Fatalf("uncached item under open breaker = %+v, want 503", lines[1])
	}

	fc.advance(2 * time.Hour)
	_, lines = postBatch(t, ts.URL, `{"items":[{"scheme":"S1","horizon":2}]}`)
	if len(lines) != 1 || lines[0].Status != http.StatusOK {
		t.Fatalf("hit batch after the cooldown = %+v, want one 200", lines)
	}
	if state, _ := s.brk.Snapshot(); state == "closed" {
		t.Fatal("a batch of cache hits closed the breaker")
	}
}

// TestSolveBatchDrainFinishesStream proves graceful drain lets an
// in-flight batch finish streaming: the batch is parked waiting on a
// singleflight leader when the lifecycle context is cancelled, and
// every line still reaches the client before ListenAndServe returns.
func TestSolveBatchDrainFinishesStream(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", DrainTimeout: 10 * time.Second})
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

	// Install a blocking singleflight leader on the key the batch's
	// first item will need, so the batch parks mid-stream.
	sch, err := coordattack.SchemeByName("S1")
	if err != nil {
		t.Fatal(err)
	}
	key := SolvableKey(sch, 2, false)
	unblock := make(chan struct{})
	leaderIn := make(chan struct{})
	go s.cache.do(context.Background(), key, func() (any, error) {
		close(leaderIn)
		<-unblock
		return solvableResponse{Scheme: "S1", Horizon: 2, Solvable: true}, nil
	})
	<-leaderIn

	type result struct {
		lines []batchLine
		err   error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/solve/batch", "application/json",
			strings.NewReader(`{"items":[{"scheme":"S1","horizon":2},{"scheme":"S1","horizon":1}]}`))
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var r result
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ln batchLine
			if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
				got <- result{err: err}
				return
			}
			r.lines = append(r.lines, ln)
		}
		r.err = sc.Err()
		got <- r
	}()

	// Wait until the batch joins the leader's flight, then begin drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.cache.shared.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never joined the in-flight computation")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	// Give the shutdown a moment to close the listener, then release
	// the computation the parked batch is waiting on.
	time.Sleep(50 * time.Millisecond)
	close(unblock)

	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("batch stream during drain: %v", r.err)
		}
		if len(r.lines) != 2 {
			t.Fatalf("drained batch streamed %d lines, want 2: %+v", len(r.lines), r.lines)
		}
		for i, ln := range r.lines {
			if ln.Status != http.StatusOK {
				t.Fatalf("drained line %d = %+v, want 200", i, ln)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight batch did not finish during drain")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("ListenAndServe after drain = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not return after drain")
	}
}

// TestSolveBatchStreamsBeforeParkedMiss: lines already written reach
// the client before the batch waits on a computation. Item 0 is a
// primed hit; item 1's key has a singleflight leader parked until the
// test releases it, so the batch cannot finish, yet line 0 must arrive.
func TestSolveBatchStreamsBeforeParkedMiss(t *testing.T) {
	s, ts := testServer(t, Config{})
	if resp, raw := postJSON(t, ts.URL+"/v1/solvable", `{"scheme":"S1","horizon":2}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming = %d: %s", resp.StatusCode, raw)
	}
	sch, err := coordattack.SchemeByName("S1")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	go s.cache.do(context.Background(), SolvableKey(sch, 3, false), func() (any, error) {
		close(leaderIn)
		<-release
		return solvableResponse{Scheme: "S1", Horizon: 3, Solvable: true}, nil
	})
	<-leaderIn

	first := make(chan string, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/solve/batch", "application/json",
			strings.NewReader(`{"items":[{"scheme":"S1","horizon":2},{"scheme":"S1","horizon":3}]}`))
		if err != nil {
			first <- err.Error()
			return
		}
		defer resp.Body.Close()
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		if err != nil {
			line = err.Error()
		}
		first <- line
		io.Copy(io.Discard, resp.Body)
	}()
	select {
	case line := <-first:
		var ln batchLine
		if err := json.Unmarshal([]byte(line), &ln); err != nil || ln.Index != 0 || ln.Verdict == nil || !ln.Verdict.Cached {
			t.Errorf("first streamed line = %q, want item 0 as a cached verdict", line)
		}
	case <-time.After(2 * time.Second):
		t.Error("no batch line within 2s while item 1 waits on a computation")
	}
	close(release)
	<-done
}

// flushCounter counts the flushes a handler asks of its writer.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++; f.ResponseRecorder.Flush() }

// TestSolveBatchAllHitsNoFlush: a batch whose items are all cache hits
// waits on nothing, so its lines go out with the response and the
// handler asks for no flush of its own.
func TestSolveBatchAllHitsNoFlush(t *testing.T) {
	s := New(Config{Logf: func(string, ...any) {}})
	body := `{"items":[{"scheme":"S1","horizon":1},{"scheme":"S1","horizon":2},{"scheme":"S1","horizon":3}]}`
	var w *flushCounter
	for pass := 0; pass < 2; pass++ {
		w = &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve/batch", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("pass %d: batch = %d: %s", pass, w.Code, w.Body)
		}
	}
	if n := strings.Count(w.Body.String(), `"cached":true`); n != 3 {
		t.Fatalf("second pass has %d cached verdicts, want 3:\n%s", n, w.Body)
	}
	if w.flushes != 0 {
		t.Fatalf("all-hit batch flushed %d times, want 0", w.flushes)
	}
}
