package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/serve/wire"
)

// The serve hot path is allocation-budgeted: a cached-hit /v1/solvable
// request — the steady state of a warm node — must stay within
// serveAllocBudget allocations end to end (middleware, admission, the
// request memo, cache lookup, the stored hit bytes). The budget is
// pinned by TestServeSolveAllocsGate the way
// TestInternerTupleHitZeroAllocs pins the interner, so a regression
// fails `go test`, not just a benchmark somebody has to remember to
// run. The one allocation left is the pipeline's status writer.
const serveAllocBudget = 1

// serveParseAllocBudget pins a hit whose body the memo does not hold
// (one past memoItemMax): the typed decode, resolve and key run ahead of
// the lookup, as they did for every hit before the memo.
const serveParseAllocBudget = 16

// serveBatchHitAllocBudget pins a 16-item all-hit /v1/solve/batch, JSON
// lines and frames alike: the item table is pooled with the body, so
// the status writer is again the one allocation.
const serveBatchHitAllocBudget = 1

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

// hitBody is the single body every hit loop sends.
const hitBody = `{"scheme":"S1","horizon":3}`

// paddedHitBody is hitBody padded with whitespace past memoItemMax, so
// the memo never holds it and every request takes the full decode.
var paddedHitBody = hitBody + strings.Repeat(" ", memoItemMax)

// hitBatchBody is a 16-item /v1/solve/batch body over 16 distinct keys.
func hitBatchBody() string {
	items := make([]string, 0, 16)
	for _, sch := range []string{"S0", "TW", "TB", "C1"} {
		for h := 2; h <= 5; h++ {
			items = append(items, fmt.Sprintf(`{"scheme":%q,"horizon":%d}`, sch, h))
		}
	}
	return `{"items":[` + strings.Join(items, ",") + `]}`
}

// hitLoop returns a closure that drives one request of body to path
// through the full middleware stack. The first calls (the misses that
// compute the verdicts, and the first hits, which memoize the body and
// build the stored hit bytes) are made before returning, so every driven
// call is a steady-state hit. accept, when non-empty, rides along as the
// Accept header so the binary hot path can be driven through the same
// harness.
func hitLoop(tb testing.TB, path, body, accept string) func() {
	tb.Helper()
	s := New(Config{Logf: func(string, ...any) {}})
	h := s.Handler()
	u, err := url.Parse(path)
	if err != nil {
		tb.Fatal(err)
	}
	br := &replayBody{bytes.NewReader([]byte(body))}
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
	run() // prime: the real engine runs
	misses := s.cache.misses.Load()
	run()
	if s.cache.hits.Load() == 0 || s.cache.misses.Load() != misses {
		tb.Fatal("the primed request does not hit the cache; the benchmark would measure engine runs")
	}
	return run
}

// solveHitLoop drives a cached-hit /v1/solvable request.
func solveHitLoop(tb testing.TB, accept string) func() {
	return hitLoop(tb, "/v1/solvable", hitBody, accept)
}

// allocsGate fails t when run allocates more than budget per call in
// steady state.
func allocsGate(t *testing.T, what string, budget int, run func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates alloc counts; the gate runs unraced")
	}
	// Warm the pools before measuring: steady state is what's budgeted.
	for i := 0; i < 32; i++ {
		run()
	}
	if a := testing.AllocsPerRun(200, run); a > float64(budget) {
		t.Fatalf("%s allocates %v/request, budget is %d", what, a, budget)
	}
}

func benchAllocs(b *testing.B, run func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkServeSolveAllocs measures the cached-hit service hot path
// from request to written verdict. Run with -benchmem; allocs/op is the
// number TestServeSolveAllocsGate pins.
func BenchmarkServeSolveAllocs(b *testing.B) { benchAllocs(b, solveHitLoop(b, "")) }

// BenchmarkServeSolveBinaryAllocs is the same hot path negotiating the
// binary verdict frame instead of JSON.
func BenchmarkServeSolveBinaryAllocs(b *testing.B) {
	benchAllocs(b, solveHitLoop(b, wire.AcceptVerdict))
}

// BenchmarkServeSolveParseAllocs is a cached hit whose body is too
// large for the memo: the full decode runs ahead of the lookup.
func BenchmarkServeSolveParseAllocs(b *testing.B) {
	benchAllocs(b, hitLoop(b, "/v1/solvable", paddedHitBody, ""))
}

// BenchmarkServeBatchHitAllocs measures a 16-item all-hit
// /v1/solve/batch, in JSON lines and in frames.
func BenchmarkServeBatchHitAllocs(b *testing.B) {
	for _, enc := range []struct{ name, accept string }{{"json", ""}, {"frames", wire.AcceptVerdictStream}} {
		b.Run(enc.name, func(b *testing.B) {
			benchAllocs(b, hitLoop(b, "/v1/solve/batch", hitBatchBody(), enc.accept))
		})
	}
}

// TestServeSolveAllocsGate fails the build when the cached-hit path
// regresses past serveAllocBudget allocations per request.
func TestServeSolveAllocsGate(t *testing.T) {
	allocsGate(t, "cached-hit /v1/solvable", serveAllocBudget, solveHitLoop(t, ""))
}

// serveBinaryAllocBudget pins the binary hot path's own budget: a hit's
// frame is stored like its JSON body, so it costs the same.
const serveBinaryAllocBudget = 1

// TestServeSolveBinaryAllocsGate is TestServeSolveAllocsGate for a
// caller that negotiated the binary encoding.
func TestServeSolveBinaryAllocsGate(t *testing.T) {
	allocsGate(t, "cached-hit binary /v1/solvable", serveBinaryAllocBudget, solveHitLoop(t, wire.AcceptVerdict))
}

// TestServeSolveParseAllocsGate keeps the parse path of a hit gated:
// a body past memoItemMax is decoded in full every time.
func TestServeSolveParseAllocsGate(t *testing.T) {
	allocsGate(t, "cached-hit /v1/solvable with an unmemoized body", serveParseAllocBudget,
		hitLoop(t, "/v1/solvable", paddedHitBody, ""))
}

// TestServeBatchHitAllocsGate pins a 16-item all-hit /v1/solve/batch
// at serveBatchHitAllocBudget, in JSON lines and in frames.
func TestServeBatchHitAllocsGate(t *testing.T) {
	for _, enc := range []struct{ name, accept string }{{"json", ""}, {"frames", wire.AcceptVerdictStream}} {
		t.Run(enc.name, func(t *testing.T) {
			allocsGate(t, "16-item all-hit /v1/solve/batch ("+enc.name+")", serveBatchHitAllocBudget,
				hitLoop(t, "/v1/solve/batch", hitBatchBody(), enc.accept))
		})
	}
}
