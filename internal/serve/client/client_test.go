package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// recordingSleep captures requested waits instead of sleeping, making
// retry timing fully deterministic.
func recordingSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestRetriesThroughLoadShedding(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	var delays []time.Duration
	c := New(ts.URL, Options{
		MaxAttempts: 5,
		BaseBackoff: 10 * time.Millisecond,
		Rand:        rand.New(rand.NewSource(1)),
		Sleep:       recordingSleep(&delays),
	})
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c.Do(context.Background(), http.MethodPost, "/x", map[string]int{"a": 1}, &out); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !out.OK {
		t.Fatal("response not decoded")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if len(delays) != 2 {
		t.Fatalf("client slept %d times, want 2", len(delays))
	}
	// Retry-After: 3 dominates the 10ms-scale jittered backoff.
	for i, d := range delays {
		if d != 3*time.Second {
			t.Fatalf("delay %d = %s, want the server-directed 3s", i, d)
		}
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad horizon", http.StatusBadRequest)
	}))
	defer ts.Close()

	var delays []time.Duration
	c := New(ts.URL, Options{Sleep: recordingSleep(&delays), Rand: rand.New(rand.NewSource(1))})
	err := c.Do(context.Background(), http.MethodPost, "/x", map[string]int{}, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if calls.Load() != 1 || len(delays) != 0 {
		t.Fatalf("400 was retried: %d calls, %d sleeps", calls.Load(), len(delays))
	}
}

func TestRetriesExhaustedSurfacesLastError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	var delays []time.Duration
	c := New(ts.URL, Options{
		MaxAttempts: 3,
		Sleep:       recordingSleep(&delays),
		Rand:        rand.New(rand.NewSource(1)),
	})
	err := c.Do(context.Background(), http.MethodGet, "/x", nil, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want APIError 503 after exhaustion", err)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times for 3 attempts, want 2", len(delays))
	}
}

func TestBackoffCappedAndJittered(t *testing.T) {
	c := New("http://unused", Options{
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  400 * time.Millisecond,
		Rand:        rand.New(rand.NewSource(42)),
		Sleep:       func(context.Context, time.Duration) error { return nil },
	})
	// The jitter window doubles per retry but never exceeds MaxBackoff.
	for retry, wantMax := range []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		400 * time.Millisecond, // capped
		400 * time.Millisecond, // still capped
	} {
		for i := 0; i < 50; i++ {
			if d := c.backoff(retry, 0); d < 0 || d > wantMax {
				t.Fatalf("backoff(%d) = %s outside [0, %s]", retry, d, wantMax)
			}
		}
	}
	// A server Retry-After longer than the window always wins.
	if d := c.backoff(0, 2*time.Second); d != 2*time.Second {
		t.Fatalf("backoff with Retry-After = %s, want 2s", d)
	}
	// Pathological retry counts must clamp to MaxBackoff, not overflow
	// the exponential window negative (which would panic Int63n).
	for _, retry := range []int{32, 33, 63, 64, 1 << 20} {
		if d := c.backoff(retry, 0); d < 0 || d > 400*time.Millisecond {
			t.Fatalf("backoff(%d) = %s outside [0, 400ms]", retry, d)
		}
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := New(ts.URL, Options{
		MaxAttempts: 10,
		Rand:        rand.New(rand.NewSource(1)),
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // the caller gives up while the client is waiting
			return ctx.Err()
		},
	})
	err := c.Do(ctx, http.MethodGet, "/x", nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestHealthzAgainstRealServer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" || r.Method != http.MethodGet {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte("ok\n"))
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz: %v", err)
	}
}

// TestRetriesThroughFlakySequences drives the client against servers
// that fail once and then recover — the load-shed (429) and transient
// internal-error (500) flavors a clustered deployment produces — and
// checks the call succeeds on the second attempt with a jittered
// backoff inside the configured window.
func TestRetriesThroughFlakySequences(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first int
	}{
		{"shed-then-ok", http.StatusTooManyRequests},
		{"500-then-ok", http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) == 1 {
					w.WriteHeader(tc.first)
					return
				}
				w.Write([]byte(`{"ok":true}`))
			}))
			defer ts.Close()

			var delays []time.Duration
			c := New(ts.URL, Options{
				MaxAttempts: 3,
				BaseBackoff: 20 * time.Millisecond,
				MaxBackoff:  80 * time.Millisecond,
				Rand:        rand.New(rand.NewSource(7)),
				Sleep:       recordingSleep(&delays),
			})
			var out struct {
				OK bool `json:"ok"`
			}
			if err := c.Do(context.Background(), http.MethodPost, "/x", map[string]int{}, &out); err != nil {
				t.Fatalf("Do: %v", err)
			}
			if got := calls.Load(); got != 2 {
				t.Fatalf("server saw %d calls, want 2", got)
			}
			if len(delays) != 1 {
				t.Fatalf("recorded %d backoffs, want 1: %v", len(delays), delays)
			}
			// Full jitter over the first window: 0 <= d <= BaseBackoff.
			if delays[0] < 0 || delays[0] > 20*time.Millisecond {
				t.Fatalf("first backoff %s outside [0, 20ms]", delays[0])
			}
		})
	}
}

// TestBackoffClampedUnderPersistentFailure checks that a long failure
// streak never waits beyond MaxBackoff per retry, however many attempts
// the policy allows.
func TestBackoffClampedUnderPersistentFailure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	var delays []time.Duration
	c := New(ts.URL, Options{
		MaxAttempts: 8,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  40 * time.Millisecond,
		Rand:        rand.New(rand.NewSource(3)),
		Sleep:       recordingSleep(&delays),
	})
	err := c.Do(context.Background(), http.MethodPost, "/x", map[string]int{}, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("Do = %v, want APIError 500 after exhaustion", err)
	}
	if len(delays) != 7 {
		t.Fatalf("recorded %d backoffs, want 7", len(delays))
	}
	for i, d := range delays {
		if d < 0 || d > 40*time.Millisecond {
			t.Fatalf("backoff %d = %s escapes the 40ms clamp", i, d)
		}
	}
}

// TestDeadlineBoundsRealBackoff uses the real context-aware sleep: a
// server that always 500s plus a multi-second backoff must not hold a
// caller past its deadline.
func TestDeadlineBoundsRealBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(ts.URL, Options{
		MaxAttempts: 5,
		BaseBackoff: 10 * time.Second,
		MaxBackoff:  10 * time.Second,
		Rand:        rand.New(rand.NewSource(9)),
		// Default Sleep: the real context-aware wait.
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Do(ctx, http.MethodPost, "/x", map[string]int{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Do returned after %s; backoff ignored the deadline", elapsed)
	}
}

// TestMaxBodyBytesTruncation: a reply past Options.MaxBodyBytes fails
// with *TruncatedError and is not retried; an exactly-at-limit reply
// decodes.
func TestMaxBodyBytesTruncation(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprintf(w, `{"pad":%q}`, strings.Repeat("x", 4096))
	}))
	defer ts.Close()

	var delays []time.Duration
	c := New(ts.URL, Options{
		MaxBodyBytes: 256,
		Sleep:        recordingSleep(&delays),
		Rand:         rand.New(rand.NewSource(1)),
	})
	err := c.Do(context.Background(), http.MethodGet, "/x", nil, &struct{}{})
	var trunc *TruncatedError
	if !errors.As(err, &trunc) {
		t.Fatalf("err = %v, want *TruncatedError", err)
	}
	if trunc.Limit != 256 {
		t.Fatalf("TruncatedError.Limit = %d, want 256", trunc.Limit)
	}
	// Truncation is deterministic: the client must not have retried.
	if calls.Load() != 1 || len(delays) != 0 {
		t.Fatalf("truncated reply was retried (calls=%d, sleeps=%d)", calls.Load(), len(delays))
	}

	// An exactly-at-limit body must still pass.
	body := `{"ok":true}`
	c2 := New(ts.URL, Options{MaxBodyBytes: int64(len(body))})
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(body))
	}))
	defer ts2.Close()
	c2.base = ts2.URL
	var out struct {
		OK bool `json:"ok"`
	}
	if err := c2.Do(context.Background(), http.MethodGet, "/x", nil, &out); err != nil || !out.OK {
		t.Fatalf("exactly-at-limit body: err=%v ok=%v, want clean decode", err, out.OK)
	}
}
