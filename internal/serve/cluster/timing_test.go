package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

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

// TestCoordinatorServerTiming: behind a coordinator whose one shard
// holds every /v1/solvable request until released, the request whose
// shard call the coordinator runs is answered with Server-Timing
// compute;dur=, one that joins it (a singleflight follower at the
// coordinator) with shared;dur=, and a later coordinator hit with no
// Server-Timing. Leader and follower get the same body, and neither
// body carries timing.
func TestCoordinatorServerTiming(t *testing.T) {
	const hold = 20 * time.Millisecond
	const body = `{"scheme":"S1","horizon":5}`
	entered, release := make(chan struct{}, 1), make(chan struct{})
	node := serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler()
	bk := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == serve.Solvable.Path {
			entered <- struct{}{}
			<-release
		}
		node.ServeHTTP(w, r)
	}))
	defer bk.Close()
	co, ts := startCoordinator(t, Config{Backends: []string{bk.URL}, HedgeDelay: time.Minute})

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
			resp, err := http.Post(ts.URL+serve.Solvable.Path, "application/json", strings.NewReader(body))
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
	<-entered // the leader's shard call is held at the shard
	send(1)
	for deadline := time.Now().Add(5 * time.Second); co.srv.Varz().SingleflightShared == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			wg.Wait()
			t.Fatal("the second request never joined the first one's shard call")
		}
	}
	time.Sleep(hold)
	close(release)
	wg.Wait()
	if t.Failed() {
		return
	}
	checkServerTiming(t, "coordinator leader", replies[0].h, "compute", hold)
	checkServerTiming(t, "coordinator follower", replies[1].h, "shared", hold)
	if replies[0].body != replies[1].body {
		t.Fatalf("leader body %q, follower body %q: a verdict body is a function of its key", replies[0].body, replies[1].body)
	}
	for _, k := range []string{"shared", "elapsedMs"} {
		if strings.Contains(replies[0].body, `"`+k+`"`) {
			t.Fatalf("coordinator body carries %q: %s", k, replies[0].body)
		}
	}

	resp, raw := post(t, ts.URL+serve.Solvable.Path, "", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cluster-Cache") != "hit" {
		t.Fatalf("repeat = %d (X-Cluster-Cache %q), want a 200 hit: %s", resp.StatusCode, resp.Header.Get("X-Cluster-Cache"), raw)
	}
	checkServerTiming(t, "coordinator hit", resp.Header, "", 0)
}
