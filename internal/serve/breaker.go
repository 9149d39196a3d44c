package serve

import (
	"fmt"
	"sync"
	"time"
)

// Breaker states. The mapping onto the chaos failure-model matrix is
// documented in DESIGN.md: closed ≈ fault-free operation, open ≈
// crash-stop of the expensive path (fail fast, shed to callers), and
// half-open ≈ the recovery probe that re-admits traffic only after
// evidence the path is healthy again.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// BreakerOpenError is returned by Acquire while the breaker is serving
// fast-fails; RetryAfter is the remaining cooldown.
type BreakerOpenError struct{ RetryAfter time.Duration }

func (e BreakerOpenError) Error() string {
	return fmt.Sprintf("circuit breaker open; retry in %s", e.RetryAfter)
}

// Breaker is a consecutive-failure circuit breaker around an expensive
// or remote path. It trips open after threshold consecutive failures
// (timeouts or engine errors), fast-fails every caller for a cooldown,
// then admits exactly one half-open probe; the probe's outcome decides
// between re-closing and re-opening. The clock is injected so tests
// drive the state machine deterministically.
//
// It guards capserved's engine paths and, exported, each shard of the
// cluster coordinator (internal/serve/cluster). A nil *Breaker admits
// every call: a coordinator's pipeline has none of its own, because its
// breakers sit on its shards.
type Breaker struct {
	mu        sync.Mutex
	now       func() time.Time
	threshold int
	cooldown  time.Duration

	state    int
	fails    int // consecutive failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker builds a breaker; zero/negative arguments take defaults
// (threshold 5, cooldown 10s, wall clock).
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 10 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{now: now, threshold: threshold, cooldown: cooldown}
}

// Acquire asks to run one protected call. On success it returns a done
// callback that MUST be invoked with whether the call failed; on refusal
// it returns BreakerOpenError carrying the remaining cooldown.
func (b *Breaker) Acquire() (done func(failed bool), err error) {
	if b == nil {
		return func(bool) {}, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		remaining := b.cooldown - b.now().Sub(b.openedAt)
		if remaining > 0 {
			return nil, BreakerOpenError{RetryAfter: remaining}
		}
		b.state = breakerHalfOpen
		b.probing = false
		fallthrough
	case breakerHalfOpen:
		if b.probing {
			return nil, BreakerOpenError{RetryAfter: b.cooldown}
		}
		b.probing = true
		return b.probeDone, nil
	default: // closed
		return b.closedDone, nil
	}
}

// probeDone settles a half-open probe.
func (b *Breaker) probeDone(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if failed {
		b.state = breakerOpen
		b.openedAt = b.now()
		return
	}
	b.state = breakerClosed
	b.fails = 0
}

// closedDone settles a call admitted while closed.
func (b *Breaker) closedDone(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerClosed {
		// A concurrent probe already resolved the state; stale outcomes
		// from the closed era must not flap it.
		return
	}
	if !failed {
		b.fails = 0
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
	}
}

// Reset force-closes the breaker and zeroes its failure count. The
// cluster prober calls it on readmission: health probes just proved the
// path works, so the ejected-era failures are stale evidence and the
// readmitted shard should take traffic immediately rather than serve a
// cooldown it already paid in probe time.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// Snapshot reports the state name and consecutive-failure count for varz.
func (b *Breaker) Snapshot() (state string, fails int) {
	if b == nil {
		return "closed", 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open", b.fails
	case breakerHalfOpen:
		return "half-open", b.fails
	default:
		return "closed", b.fails
	}
}
