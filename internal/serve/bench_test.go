package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"testing"

	"repro/internal/serve/wire"
)

// The serve hot path is allocation-budgeted: a cached-hit /v1/solvable
// request — the steady state of a warm node — must stay within
// serveAllocBudget allocations end to end (middleware, admission,
// decode, key, cache lookup, pooled encode). The budget is pinned by
// TestServeSolveAllocsGate the way TestInternerTupleHitZeroAllocs pins
// the interner, so a regression fails `go test`, not just a benchmark
// somebody has to remember to run.
const serveAllocBudget = 23

// nopRW is the cheapest possible ResponseWriter: the benchmark measures
// the server's allocations, not a recorder's.
type nopRW struct {
	h http.Header
}

func (w *nopRW) Header() http.Header         { return w.h }
func (w *nopRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopRW) WriteHeader(int)             {}

// replayBody is a rewindable request body, so one request struct can be
// driven through the handler arbitrarily many times.
type replayBody struct {
	*bytes.Reader
}

func (replayBody) Close() error { return nil }

// solveHitDriver returns a closure that drives one cached-hit
// /v1/solvable request through the full middleware stack, plus the
// handler for it. The first call (the cache miss that computes the
// verdict) is made before returning, so every driven call is a hit.
// accept, when non-empty, rides along as the Accept header so the
// binary hot path can be driven through the same harness.
func solveHitDriver(tb testing.TB, accept string) func() {
	tb.Helper()
	s := New(Config{Logf: func(string, ...any) {}})
	h := s.Handler()
	body := []byte(`{"scheme":"S1","horizon":3}`)
	u, err := url.Parse("/v1/solvable")
	if err != nil {
		tb.Fatal(err)
	}
	br := &replayBody{bytes.NewReader(body)}
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	if accept != "" {
		hdr.Set("Accept", accept)
	}
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Header:        hdr,
		Body:          br,
		ContentLength: int64(len(body)),
	}
	w := &nopRW{h: make(http.Header)}
	run := func() {
		br.Seek(0, io.SeekStart)
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	run() // prime: the one real engine run
	if got := s.cache.hits.Load(); got == 0 {
		run()
		if s.cache.hits.Load() == 0 {
			tb.Fatal("driver never hits the cache; benchmark would measure engine runs")
		}
	}
	return run
}

// BenchmarkServeSolveAllocs measures the cached-hit service hot path
// from request to encoded verdict. Run with -benchmem; allocs/op is the
// number TestServeSolveAllocsGate pins.
func BenchmarkServeSolveAllocs(b *testing.B) {
	run := solveHitDriver(b, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkServeSolveBinaryAllocs is the same hot path negotiating the
// binary verdict frame instead of pooled JSON.
func BenchmarkServeSolveBinaryAllocs(b *testing.B) {
	run := solveHitDriver(b, wire.AcceptVerdict)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestServeSolveAllocsGate fails the build when the cached-hit path
// regresses past serveAllocBudget allocations per request.
func TestServeSolveAllocsGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates alloc counts; the gate runs unraced")
	}
	run := solveHitDriver(t, "")
	// Warm the pools before measuring: steady state is what's budgeted.
	for i := 0; i < 32; i++ {
		run()
	}
	if a := testing.AllocsPerRun(200, run); a > serveAllocBudget {
		t.Fatalf("cached-hit /v1/solvable allocates %v/request, budget is %d", a, serveAllocBudget)
	}
}

// serveBinaryAllocBudget pins the binary hot path's own budget: frame
// encoding writes positional fields into a pooled buffer with no
// reflection, so it must stay at least as lean as the JSON path.
const serveBinaryAllocBudget = 23

// TestServeSolveBinaryAllocsGate is TestServeSolveAllocsGate for a
// caller that negotiated the binary encoding.
func TestServeSolveBinaryAllocsGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates alloc counts; the gate runs unraced")
	}
	run := solveHitDriver(t, wire.AcceptVerdict)
	for i := 0; i < 32; i++ {
		run()
	}
	if a := testing.AllocsPerRun(200, run); a > serveBinaryAllocBudget {
		t.Fatalf("cached-hit binary /v1/solvable allocates %v/request, budget is %d", a, serveBinaryAllocBudget)
	}
}
