package serve

import (
	"context"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// gatedQuery is a test-only verdict class whose computation signals
// entered and then blocks until release closes: a slow compute whose
// leader and followers a test can line up.
type gatedQuery struct {
	entered chan<- struct{}
	release <-chan struct{}
}

func (q *gatedQuery) resolve() (string, error) { return "test-gated-key", nil }
func (q *gatedQuery) limit(*Config) error      { return nil }
func (q *gatedQuery) compute(_ *Server, ctx context.Context) (any, error) {
	q.entered <- struct{}{}
	select {
	case <-q.release:
		return "ok", nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// serverTiming matches a Server-Timing value: one metric with its
// duration in milliseconds to three decimals.
var serverTiming = regexp.MustCompile(`^(compute|shared);dur=(\d+\.\d{3})$`)

// checkServerTiming checks a reply's Server-Timing header: metric
// "compute", "shared", or "" for none, and a duration of at least min.
func checkServerTiming(t *testing.T, where string, h http.Header, metric string, min time.Duration) {
	t.Helper()
	vals := h.Values("Server-Timing")
	if metric == "" {
		if len(vals) != 0 {
			t.Fatalf("%s: Server-Timing %q, want none", where, vals)
		}
		return
	}
	if len(vals) != 1 {
		t.Fatalf("%s: Server-Timing %q, want one %s metric", where, vals, metric)
	}
	m := serverTiming.FindStringSubmatch(vals[0])
	if m == nil || m[1] != metric {
		t.Fatalf("%s: Server-Timing %q, want %s;dur=<ms, 3 decimals>", where, vals[0], metric)
	}
	if ms, _ := strconv.ParseFloat(m[2], 64); ms < float64(min)/float64(time.Millisecond) {
		t.Fatalf("%s: Server-Timing %q, want at least %v", where, vals[0], min)
	}
}

// TestServerTimingLeaderFollowerHit: with a slow compute, the request
// that runs it is answered with Server-Timing compute;dur=, one that
// waits on it (a singleflight follower) with shared;dur=, and a later
// hit with no Server-Timing at all. The verdict body is the same for
// the leader and the follower.
func TestServerTimingLeaderFollowerHit(t *testing.T) {
	const hold = 20 * time.Millisecond
	// Two heavy slots: admission runs before the cache, so with one
	// (GOMAXPROCS 1) the follower would queue behind the leader.
	s, ts := testServer(t, Config{AnalysisConcurrency: 2})
	entered, release := make(chan struct{}, 1), make(chan struct{})
	cl := &Class{Path: "/test/gated", newQuery: func() query { return &gatedQuery{entered: entered, release: release} }}
	s.mux.Handle("POST /test/gated", s.protect(classHeavy, s.handleQuery(cl)))

	type reply struct {
		h    http.Header
		body string
	}
	replies := make([]reply, 2)
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/test/gated", "application/json", strings.NewReader(`{}`))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d = %d (%v): %s", i, resp.StatusCode, err, raw)
			}
			replies[i] = reply{resp.Header, string(raw)}
		}()
	}
	send(0)
	<-entered // the leader's computation is running
	send(1)
	for deadline := time.Now().Add(5 * time.Second); s.cache.shared.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			wg.Wait()
			t.Fatal("the second request never joined the first one's computation")
		}
	}
	time.Sleep(hold)
	close(release)
	wg.Wait()
	if t.Failed() {
		return
	}
	checkServerTiming(t, "leader", replies[0].h, "compute", hold)
	checkServerTiming(t, "follower", replies[1].h, "shared", hold)
	if replies[0].body != replies[1].body {
		t.Fatalf("leader body %q, follower body %q: a verdict body is a function of its key", replies[0].body, replies[1].body)
	}

	resp, raw := postJSON(t, ts.URL+"/test/gated", `{}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "ok") {
		t.Fatalf("hit = %d: %s", resp.StatusCode, raw)
	}
	checkServerTiming(t, "hit", resp.Header, "", 0)
}

// TestServerTimingBatchHasNone: a batch stream's headers go out before
// its items finish, so a batch reply carries no Server-Timing, for its
// misses as for its hits.
func TestServerTimingBatchHasNone(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := `{"items":[{"scheme":"S1","horizon":3},{"scheme":"S1","horizon":4}]}`
	for _, round := range []string{"misses", "hits"} {
		resp, raw := postJSON(t, ts.URL+"/v1/solve/batch", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: batch = %d: %s", round, resp.StatusCode, raw)
		}
		checkServerTiming(t, "batch of "+round, resp.Header, "", 0)
	}
}
