package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for deterministic breaker
// tests; safe to read from a server's handler goroutines.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (fc *fakeClock) now() time.Time {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.t
}

func (fc *fakeClock) advance(d time.Duration) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.t = fc.t.Add(d)
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(3, 10*time.Second, fc.now)

	// Two failures then a success: the consecutive counter must reset.
	for i := 0; i < 2; i++ {
		done, err := b.Acquire()
		if err != nil {
			t.Fatalf("acquire %d while closed: %v", i, err)
		}
		done(true)
	}
	done, err := b.Acquire()
	if err != nil {
		t.Fatalf("acquire after 2 failures: %v", err)
	}
	done(false)
	if state, fails := b.Snapshot(); state != "closed" || fails != 0 {
		t.Fatalf("after success got (%s, %d), want (closed, 0)", state, fails)
	}

	// Three consecutive failures trip it open.
	for i := 0; i < 3; i++ {
		done, err := b.Acquire()
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		done(true)
	}
	if state, _ := b.Snapshot(); state != "open" {
		t.Fatalf("after 3 failures state = %s, want open", state)
	}

	// While open and inside the cooldown: fast-fail with the remaining
	// cooldown as Retry-After.
	fc.advance(4 * time.Second)
	_, err = b.Acquire()
	var open BreakerOpenError
	if !errors.As(err, &open) {
		t.Fatalf("acquire while open = %v, want BreakerOpenError", err)
	}
	if open.RetryAfter != 6*time.Second {
		t.Fatalf("RetryAfter = %s, want 6s", open.RetryAfter)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(1, 10*time.Second, fc.now)

	done, err := b.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	done(true) // threshold 1: first failure trips it
	if state, _ := b.Snapshot(); state != "open" {
		t.Fatalf("state = %s, want open", state)
	}

	// Past the cooldown a single probe is admitted…
	fc.advance(11 * time.Second)
	probe, err := b.Acquire()
	if err != nil {
		t.Fatalf("probe not admitted after cooldown: %v", err)
	}
	// …and while it is in flight, everyone else is refused.
	if _, err := b.Acquire(); err == nil {
		t.Fatal("second caller admitted during half-open probe")
	}
	// A failed probe re-opens with a fresh cooldown window.
	probe(true)
	if state, _ := b.Snapshot(); state != "open" {
		t.Fatalf("state after failed probe = %s, want open", state)
	}
	fc.advance(9 * time.Second) // 9 < 10: still inside the NEW cooldown
	if _, err := b.Acquire(); err == nil {
		t.Fatal("admitted inside re-opened cooldown; openedAt was not reset")
	}
}

func TestBreakerRecoversViaHalfOpenProbe(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(2, 5*time.Second, fc.now)

	for i := 0; i < 2; i++ {
		done, err := b.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		done(true)
	}
	if state, _ := b.Snapshot(); state != "open" {
		t.Fatalf("state = %s, want open", state)
	}

	fc.advance(6 * time.Second)
	probe, err := b.Acquire()
	if err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	probe(false)
	if state, fails := b.Snapshot(); state != "closed" || fails != 0 {
		t.Fatalf("after successful probe got (%s, %d), want (closed, 0)", state, fails)
	}
	// Fully recovered: ordinary traffic flows again.
	done, err := b.Acquire()
	if err != nil {
		t.Fatalf("closed breaker refused traffic: %v", err)
	}
	done(false)
}

func TestBreakerStaleClosedOutcomeIgnored(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(1, time.Second, fc.now)

	// A slow call acquired while closed…
	slow, err := b.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// …meanwhile a fast call trips the breaker, the cooldown passes, and a
	// probe re-closes it.
	fast, err := b.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	fast(true)
	fc.advance(2 * time.Second)
	probe, err := b.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	probe(true) // re-open
	// The slow call's late failure must not disturb the open state's
	// bookkeeping (it is from a previous closed era).
	slow(true)
	if state, _ := b.Snapshot(); state != "open" {
		t.Fatalf("state = %s, want open", state)
	}
}

// TestBreakerHalfOpenSingleProbeUnderRace hammers a cooled-down open
// breaker with racing callers across several half-open windows: each
// window must admit exactly one probe, and a failed probe must start a
// fresh window that again admits exactly one.
func TestBreakerHalfOpenSingleProbeUnderRace(t *testing.T) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(1, time.Second, fc.now)

	done, err := b.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	done(true) // trip open

	for window := 0; window < 3; window++ {
		fc.advance(2 * time.Second) // past the cooldown: half-open
		var (
			admitted atomic.Int32
			probe    func(bool)
			mu       sync.Mutex
			wg       sync.WaitGroup
		)
		start := make(chan struct{})
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if d, err := b.Acquire(); err == nil {
					admitted.Add(1)
					mu.Lock()
					probe = d
					mu.Unlock()
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := admitted.Load(); got != 1 {
			t.Fatalf("window %d admitted %d probes, want exactly 1", window, got)
		}
		if window < 2 {
			probe(true) // fail the probe: re-open, fresh cooldown
			if state, _ := b.Snapshot(); state != "open" {
				t.Fatalf("window %d: state after failed probe = %s, want open", window, state)
			}
		} else {
			probe(false) // final window recovers
			if state, fails := b.Snapshot(); state != "closed" || fails != 0 {
				t.Fatalf("after successful probe got (%s, %d), want (closed, 0)", state, fails)
			}
		}
	}

	// Recovered: concurrent ordinary traffic all admitted again.
	var refused atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := b.Acquire()
			if err != nil {
				refused.Add(1)
				return
			}
			d(false)
		}()
	}
	wg.Wait()
	if refused.Load() != 0 {
		t.Fatalf("closed breaker refused %d of 16 concurrent callers", refused.Load())
	}
}
