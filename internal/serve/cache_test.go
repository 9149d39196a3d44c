package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// do is the blocking form of start, as a request waits on it: the
// cached or computed value for key. cached reports an LRU hit; shared
// reports that the value came from another caller's in-flight
// computation.
func (rc *resultCache) do(ctx context.Context, key string, fn func() (any, error)) (val any, cached, shared bool, err error) {
	e, call, shared := rc.start(key, fn)
	if call == nil {
		return e.val, true, false, nil
	}
	if err := wait(ctx, call.done, nil); err != nil {
		return nil, false, shared, err
	}
	return call.val, false, shared, call.err
}

func TestLRUEviction(t *testing.T) {
	c := NewLRU(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	// "a" is now most recent, so inserting "c" must evict "b".
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; LRU order not respected")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted although it was most recently used")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing after insert")
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
	// Updating an existing key must not grow the cache.
	c.Put("a", 99)
	if got := c.Len(); got != 2 {
		t.Fatalf("len after update = %d, want 2", got)
	}
	if v, _ := c.Get("a"); v != 99 {
		t.Fatalf("a = %v, want 99", v)
	}
}

func TestResultCacheHit(t *testing.T) {
	rc := newResultCache(8)
	calls := 0
	fn := func() (any, error) { calls++; return "v", nil }

	v, cached, shared, err := rc.do(context.Background(), "k", fn)
	if err != nil || v != "v" || cached || shared {
		t.Fatalf("first do = (%v, %v, %v, %v)", v, cached, shared, err)
	}
	v, cached, _, err = rc.do(context.Background(), "k", fn)
	if err != nil || v != "v" || !cached {
		t.Fatalf("second do = (%v, cached=%v, %v), want cache hit", v, cached, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if rc.hits.Load() != 1 || rc.misses.Load() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", rc.hits.Load(), rc.misses.Load())
	}
}

func TestResultCacheErrorsNotCached(t *testing.T) {
	rc := newResultCache(8)
	boom := errors.New("boom")
	calls := 0
	_, _, _, err := rc.do(context.Background(), "k", func() (any, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, cached, _, err := rc.do(context.Background(), "k", func() (any, error) { calls++; return "ok", nil })
	if err != nil || v != "ok" || cached {
		t.Fatalf("retry after error = (%v, cached=%v, %v); error was cached", v, cached, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
}

func TestResultCacheSingleflight(t *testing.T) {
	rc := newResultCache(8)
	const followers = 8
	var running atomic.Int32
	block := make(chan struct{})
	leaderIn := make(chan struct{})

	fn := func() (any, error) {
		running.Add(1)
		close(leaderIn)
		<-block
		return "shared-value", nil
	}

	var wg sync.WaitGroup
	results := make(chan struct {
		v      any
		shared bool
		err    error
	}, followers+1)
	launch := func() {
		defer wg.Done()
		v, _, shared, err := rc.do(context.Background(), "k", fn)
		results <- struct {
			v      any
			shared bool
			err    error
		}{v, shared, err}
	}

	wg.Add(1)
	go launch()
	<-leaderIn // leader is inside fn; everyone else must join it
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go launch()
	}
	// Followers register before we unblock: wait until all are accounted
	// for as shared joiners.
	deadline := time.After(5 * time.Second)
	for rc.shared.Load() < followers {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d followers joined the flight", rc.shared.Load(), followers)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(block)
	wg.Wait()
	close(results)

	sharedCount := 0
	for r := range results {
		if r.err != nil || r.v != "shared-value" {
			t.Fatalf("result = (%v, %v)", r.v, r.err)
		}
		if r.shared {
			sharedCount++
		}
	}
	if got := running.Load(); got != 1 {
		t.Fatalf("fn ran %d times under singleflight, want 1", got)
	}
	if sharedCount != followers {
		t.Fatalf("%d callers reported shared, want %d", sharedCount, followers)
	}
}

// TestResultCachePanicDoesNotPoisonKey is the regression test for the
// poisoned-flight bug: a panicking compute fn must deregister the call
// and release every waiter with an error, and the key must compute
// normally afterwards — not block all comers until restart.
func TestResultCachePanicDoesNotPoisonKey(t *testing.T) {
	rc := newResultCache(8)
	var diags atomic.Int32
	rc.onPanic = func(key string, p any, stack []byte) string {
		diags.Add(1)
		if key != "k" || p != "kaboom" || len(stack) == 0 {
			t.Errorf("onPanic(%q, %v, %d bytes)", key, p, len(stack))
		}
		return "diag-test-1"
	}

	inFn := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := rc.do(context.Background(), "k", func() (any, error) {
			close(inFn)
			<-release
			panic("kaboom")
		})
		leaderDone <- err
	}()
	<-inFn

	// A follower joins the doomed flight before the panic fires.
	followerDone := make(chan error, 1)
	go func() {
		_, _, _, err := rc.do(context.Background(), "k", func() (any, error) {
			return nil, fmt.Errorf("follower must not compute")
		})
		followerDone <- err
	}()
	for rc.shared.Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	var cp errComputePanic
	for _, ch := range []chan error{leaderDone, followerDone} {
		select {
		case err := <-ch:
			if !errors.As(err, &cp) || cp.DiagID != "diag-test-1" {
				t.Fatalf("waiter err = %v, want errComputePanic with diag-test-1", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter blocked on a poisoned key")
		}
	}
	if diags.Load() != 1 {
		t.Fatalf("panic recorded %d times, want once (not once per waiter)", diags.Load())
	}

	// The key must be live again: a fresh fn computes and caches.
	v, cached, shared, err := rc.do(context.Background(), "k", func() (any, error) { return "recovered", nil })
	if err != nil || v != "recovered" || cached || shared {
		t.Fatalf("post-panic do = (%v, %v, %v, %v), want a fresh computation", v, cached, shared, err)
	}
}

// TestResultCacheLeaderHonorsOwnContext pins the deadline contract: the
// first caller for a key (the singleflight leader) must stop waiting
// when its own context expires, while the computation keeps running and
// its result still lands in the LRU for later requests.
func TestResultCacheLeaderHonorsOwnContext(t *testing.T) {
	rc := newResultCache(8)
	inFn := make(chan struct{})
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := rc.do(ctx, "k", func() (any, error) {
			close(inFn)
			<-release
			return "late-value", nil
		})
		leaderDone <- err
	}()
	<-inFn
	cancel()
	select {
	case err := <-leaderDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("leader err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leader ignored its own context and blocked on the computation")
	}

	// The abandoned computation finishes and feeds the cache.
	close(release)
	deadline := time.After(5 * time.Second)
	for {
		v, cached, _, err := rc.do(context.Background(), "k", func() (any, error) { return "fresh", nil })
		if err != nil {
			t.Fatalf("follow-up do: %v", err)
		}
		if cached {
			if v != "late-value" {
				t.Fatalf("cached value = %v, want the abandoned computation's late-value", v)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("abandoned computation never populated the LRU")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestResultCacheFollowerContextCancel(t *testing.T) {
	rc := newResultCache(8)
	block := make(chan struct{})
	leaderIn := make(chan struct{})
	go rc.do(context.Background(), "k", func() (any, error) {
		close(leaderIn)
		<-block
		return "v", nil
	})
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := rc.do(ctx, "k", func() (any, error) {
			return nil, fmt.Errorf("follower must not compute")
		})
		done <- err
	}()
	// Give the follower a moment to join, then cancel it; the leader stays
	// blocked, proving the follower's exit is independent.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower did not return")
	}
	close(block)
}
