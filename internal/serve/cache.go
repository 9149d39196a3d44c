package serve

import (
	"container/list"
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// LRU is a plain mutex-guarded LRU over string keys. In capserved the
// values are the decoded verdict structs of deterministic queries, so
// hits can be served without touching the analysis engine (or, on a
// cluster coordinator, any shard) at all.
type LRU struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

// NewLRU builds an LRU holding at most max entries (≤ 0 means 1024).
func NewLRU(max int) *LRU {
	if max <= 0 {
		max = 1024
	}
	return &LRU{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value and marks it most recently used.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes key, evicting from the cold end past max.
func (c *LRU) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
	}
}

// Len reports the current entry count.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Range calls fn for each entry from most to least recently used,
// stopping early when fn returns false. Keys and values are snapshotted
// under the lock and fn runs outside it, so fn may use the cache (and
// recency order is the order at snapshot time) — /v1/warm/export uses
// this to enumerate the hot set without stalling the serving path.
func (c *LRU) Range(fn func(key string, val any) bool) {
	c.mu.Lock()
	snap := make([]lruEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		snap = append(snap, *el.Value.(*lruEntry))
	}
	c.mu.Unlock()
	for _, e := range snap {
		if !fn(e.key, e.val) {
			return
		}
	}
}

// flightCall is one in-flight singleflight computation.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// resultCache combines the LRU with singleflight deduplication: at most
// one computation per key runs at a time, concurrent callers for the
// same key share its outcome, and successes are persisted in the LRU.
//
// The LRU is the only in-memory verdict tier. When a warm store is
// attached (Config.WarmStorePath), its newest verdicts are preloaded
// into the LRU at boot — so a restarted node answers recently computed
// queries without re-running the engine — and every fresh success is
// appended to the store; nothing else remembers a verdict the LRU has
// evicted, so memory stays bounded by CacheEntries.
//
// The computation runs fn under a context supplied by the server (its
// lifetime context plus the compute budget), NOT the callers' request
// contexts — a caller that disconnects mid-flight must not kill work
// other callers are waiting on. Every caller, leader included, stops
// waiting when its own context expires; the computation itself keeps
// running and its result lands in the LRU for later requests.
type resultCache struct {
	lru   *LRU
	mu    sync.Mutex
	calls map[string]*flightCall
	// onPanic, when set, records a compute-fn panic (metrics + log) and
	// returns a diagnostic ID for the client-facing error.
	onPanic func(key string, p any, stack []byte) string
	// persist appends a fresh success to the warm store (nil: no store).
	persist func(key string, val any)
	hits    atomic.Int64
	misses  atomic.Int64
	shared  atomic.Int64
}

// errComputePanic is how a panic inside a compute fn reaches waiters:
// the computation runs on its own goroutine (no HTTP recover middleware
// above it), so the runner converts the panic into this error instead
// of letting it kill the process or leave the key poisoned.
type errComputePanic struct {
	p      any
	DiagID string
}

func (e errComputePanic) Error() string {
	return fmt.Sprintf("internal error in computation (diag %s): %v", e.DiagID, e.p)
}

func newResultCache(max int) *resultCache {
	return &resultCache{lru: NewLRU(max), calls: make(map[string]*flightCall)}
}

// do returns the cached or computed value for key. cached reports an LRU
// hit; shared reports that the value came from another caller's
// in-flight computation. Errors are never cached.
func (rc *resultCache) do(ctx context.Context, key string, fn func() (any, error)) (val any, cached, shared bool, err error) {
	v, call, shared := rc.start(key, fn)
	if call == nil {
		return v, true, false, nil
	}
	if err := wait(ctx, call.done, nil); err != nil {
		return nil, false, shared, err
	}
	return call.val, false, shared, call.err
}

// start is the non-blocking half of do: an LRU hit returns its value
// and a nil call; otherwise call is key's in-flight computation, led
// here (fn runs on its own goroutine) or joined when shared.
func (rc *resultCache) start(key string, fn func() (any, error)) (val any, call *flightCall, shared bool) {
	if v, ok := rc.peek(key); ok {
		return v, nil, false
	}
	rc.mu.Lock()
	if call, ok := rc.calls[key]; ok {
		rc.mu.Unlock()
		rc.shared.Add(1)
		return nil, call, true
	}
	call = &flightCall{done: make(chan struct{})}
	rc.calls[key] = call
	rc.mu.Unlock()

	rc.misses.Add(1)
	// The computation runs on its own goroutine so the leader, like every
	// follower, stops waiting when its own context expires — the work
	// keeps running under the compute context fn captured, and later
	// callers pick up its result. The leader does NOT pass ctx to fn.
	go rc.run(key, call, fn)
	return nil, call, false
}

// wait blocks until done is closed or ctx expires, running stalled (when
// non-nil) once the wait has lasted batchFlushAfter.
func wait(ctx context.Context, done <-chan struct{}, stalled func()) error {
	var stall <-chan time.Time
	if stalled != nil {
		t := time.NewTimer(batchFlushAfter)
		defer t.Stop()
		stall = t.C
	}
	for {
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-stall:
			stall = nil
			stalled()
		}
	}
}

// peek consults only the LRU and never computes. The handlers call it
// first, so a hit builds nothing a computation needs, and a batch keeps
// serving hits while the breaker holds off fresh engine work.
func (rc *resultCache) peek(key string) (any, bool) {
	v, ok := rc.lru.Get(key)
	if ok {
		rc.hits.Add(1)
	}
	return v, ok
}

// run executes one singleflight computation (key "": a detached one,
// neither registered nor cached). Cleanup is unconditional:
// even when fn panics, the call is deregistered and done is closed, so
// waiters fail fast instead of blocking on a permanently poisoned key.
func (rc *resultCache) run(key string, call *flightCall, fn func() (any, error)) {
	defer func() {
		if p := recover(); p != nil {
			e := errComputePanic{p: p}
			if rc.onPanic != nil {
				e.DiagID = rc.onPanic(key, p, debug.Stack())
			}
			call.val, call.err = nil, e
		}
		if key != "" {
			if call.err == nil {
				rc.lru.Put(key, call.val)
				if rc.persist != nil {
					rc.persist(key, call.val)
				}
			}
			rc.mu.Lock()
			delete(rc.calls, key)
			rc.mu.Unlock()
		}
		close(call.done)
	}()
	call.val, call.err = fn()
}
