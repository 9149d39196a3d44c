package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
)

// --- ring rebalance quality (consistent-hash minimal disruption) ------

// ownersByBase maps a key sample to the OWNING member's base URL (URLs,
// not indices — indices shift when the member slice changes).
func ownersByBase(members []string, keys []string) map[string]string {
	r := NewRing(members, 64)
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		out[k] = members[r.Replicas(k, 1)[0]]
	}
	return out
}

func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("solvable|%032x|h=9", uint64(i)*2654435761)
	}
	return keys
}

// TestRingRebalanceOnLeave: removing one member of N must reassign
// exactly that member's keys (≈1/N of them) and leave every other
// key's owner untouched.
func TestRingRebalanceOnLeave(t *testing.T) {
	const n = 5
	members := ringMembers(n)
	keys := sampleKeys(20000)
	before := ownersByBase(members, keys)

	gone := members[2]
	after := ownersByBase(append(append([]string{}, members[:2]...), members[3:]...), keys)

	moved := 0
	for _, k := range keys {
		if before[k] != after[k] {
			moved++
			if before[k] != gone {
				t.Fatalf("key %q moved from surviving member %s to %s", k, before[k], after[k])
			}
		} else if before[k] == gone {
			t.Fatalf("key %q still owned by removed member %s", k, gone)
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.5/n || frac > 2.0/n {
		t.Fatalf("leave moved %.1f%% of keys, want ≈ 1/N = %.1f%%", 100*frac, 100.0/n)
	}
}

// TestRingRebalanceOnJoin: adding an (N+1)-th member must move ≈1/(N+1)
// of the keys, all of them TO the newcomer.
func TestRingRebalanceOnJoin(t *testing.T) {
	const n = 5
	members := ringMembers(n + 1)
	keys := sampleKeys(20000)
	before := ownersByBase(members[:n], keys)
	after := ownersByBase(members, keys)
	newcomer := members[n]

	moved := 0
	for _, k := range keys {
		if before[k] != after[k] {
			moved++
			if after[k] != newcomer {
				t.Fatalf("key %q moved to %s, not the joining member", k, after[k])
			}
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.5/(n+1) || frac > 2.0/(n+1) {
		t.Fatalf("join moved %.1f%% of keys, want ≈ 1/(N+1) = %.1f%%", 100*frac, 100.0/(n+1))
	}
}

// TestRingVnodeSkewBounds: ownership stays within skew bounds across
// several membership sizes — the property that makes "≈1/N" meaningful.
func TestRingVnodeSkewBounds(t *testing.T) {
	keys := sampleKeys(30000)
	for _, n := range []int{2, 4, 7} {
		members := ringMembers(n)
		counts := make(map[string]int, n)
		owners := ownersByBase(members, keys)
		for _, k := range keys {
			counts[owners[k]]++
		}
		for _, m := range members {
			frac := float64(counts[m]) / float64(len(keys))
			if frac < 0.45/float64(n) || frac > 1.8/float64(n) {
				t.Fatalf("n=%d: member %s owns %.1f%% of keys (want within [%.1f%%, %.1f%%])",
					n, m, 100*frac, 45.0/float64(n), 180.0/float64(n))
			}
		}
	}
}

// --- admin surface ----------------------------------------------------

func getMembers(t *testing.T, base string) membersResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster/members")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr membersResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	return mr
}

// TestMembershipAdminAPI drives the full join/leave surface: the table
// reads back, joins swap epochs and serve traffic, duplicates and
// unknowns are rejected with the right statuses, and the last member is
// protected.
func TestMembershipAdminAPI(t *testing.T) {
	_, ts, _ := testCluster(t, 2, nil)

	mr := getMembers(t, ts.URL)
	if len(mr.Members) != 2 || mr.Routable != 2 || mr.Epoch != 1 {
		t.Fatalf("boot members = %+v, want 2 active at epoch 1", mr)
	}

	// Join a third, freshly started backend.
	nd := &node{}
	nd.live = serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler()
	nd.ts = httptest.NewServer(nd)
	defer nd.ts.Close()
	resp, raw := postJSON(t, ts.URL+"/v1/cluster/members", fmt.Sprintf(`{"backend":%q}`, nd.ts.URL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join = %d: %s", resp.StatusCode, raw)
	}
	mr = getMembers(t, ts.URL)
	if len(mr.Members) != 3 || mr.Routable != 3 || mr.Epoch != 2 {
		t.Fatalf("post-join members = %+v, want 3 active at epoch 2", mr)
	}

	// Traffic still answers across the new epoch.
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"scheme":"S2","minus":["%s(.)"],"horizon":4}`, strings.Repeat("w", i+1))
		r2, raw2 := postJSON(t, ts.URL+"/v1/solvable", body)
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("query %d after join = %d: %s", i, r2.StatusCode, raw2)
		}
	}

	// Duplicate join → 409; garbage URL → 400.
	resp, _ = postJSON(t, ts.URL+"/v1/cluster/members", fmt.Sprintf(`{"backend":%q}`, nd.ts.URL))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate join = %d, want 409", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/cluster/members", `{"backend":"not-a-url"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage join = %d, want 400", resp.StatusCode)
	}

	// Leave: unknown → 404, known → epoch bump, last member → 409.
	del := func(backend string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cluster/members?backend="+backend, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	if code := del("http://127.0.0.1:1"); code != http.StatusNotFound {
		t.Fatalf("unknown leave = %d, want 404", code)
	}
	if code := del(nd.ts.URL); code != http.StatusOK {
		t.Fatalf("leave = %d, want 200", code)
	}
	mr = getMembers(t, ts.URL)
	if len(mr.Members) != 2 || mr.Epoch != 3 {
		t.Fatalf("post-leave members = %+v, want 2 at epoch 3", mr)
	}
	if code := del(mr.Members[0].Backend); code != http.StatusOK {
		t.Fatalf("second leave = %d, want 200", code)
	}
	if code := del(mr.Members[1].Backend); code != http.StatusConflict {
		t.Fatalf("last-member leave = %d, want 409", code)
	}
}

// --- prober lifecycle -------------------------------------------------

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stateOf reads a member's lifecycle state from the coordinator's
// stats, or "" when the coordinator does not know base.
func stateOf(t *testing.T, coURL, base string) string {
	t.Helper()
	for _, sh := range clusterStats(t, coURL).Shards {
		if sh.Backend == base {
			return sh.State
		}
	}
	return ""
}

// TestProberEjectsAndReadmits is the self-healing acceptance path: a
// killed backend is ejected from routing within the probe budget (its
// request counter freezes — no more hedges spent on it), and after a
// restart it is readmitted automatically with its breaker closed.
func TestProberEjectsAndReadmits(t *testing.T) {
	_, ts, nodes := testCluster(t, 3, func(cfg *Config) {
		cfg.ProbeInterval = 25 * time.Millisecond
		cfg.ProbeTimeout = 100 * time.Millisecond
		cfg.ProbeFailThreshold = 2
		cfg.ProbeRecoverThreshold = 2
	})

	nodes[1].kill()
	waitFor(t, 5*time.Second, "ejection of the killed backend", func() bool {
		return stateOf(t, ts.URL, nodes[1].ts.URL) == "ejected"
	})
	st := clusterStats(t, ts.URL)
	if st.Backends != 2 || st.Membership.Routable != 2 {
		t.Fatalf("routable = %d after ejection, want 2", st.Membership.Routable)
	}
	if st.Membership.Ejections < 1 {
		t.Fatalf("ejections = %d, want >= 1", st.Membership.Ejections)
	}

	// The ejected shard is out of routing: fresh keyed traffic must not
	// touch it (its request counter freezes — hedge rate back to
	// baseline), and every request still answers.
	var deadReqs int64 = -1
	for _, sh := range st.Shards {
		if sh.Backend == nodes[1].ts.URL {
			deadReqs = sh.Requests
		}
	}
	for i := 0; i < 10; i++ {
		body := fmt.Sprintf(`{"scheme":"S2","minus":["%s(.)"],"horizon":4}`, strings.Repeat("b", i+1))
		resp, raw := postJSON(t, ts.URL+"/v1/solvable", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d with ejected backend = %d: %s", i, resp.StatusCode, raw)
		}
	}
	st = clusterStats(t, ts.URL)
	for _, sh := range st.Shards {
		if sh.Backend == nodes[1].ts.URL && sh.Requests != deadReqs {
			t.Fatalf("ejected shard still took traffic: %d → %d requests", deadReqs, sh.Requests)
		}
	}

	// Restart → automatic readmission, breaker closed, back in routing.
	nodes[1].restart(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	waitFor(t, 5*time.Second, "readmission of the restarted backend", func() bool {
		return stateOf(t, ts.URL, nodes[1].ts.URL) == "active"
	})
	st = clusterStats(t, ts.URL)
	if st.Membership.Routable != 3 || st.Membership.Readmissions < 1 {
		t.Fatalf("after restart: routable=%d readmissions=%d, want 3 and >=1",
			st.Membership.Routable, st.Membership.Readmissions)
	}
	for _, sh := range st.Shards {
		if sh.Backend == nodes[1].ts.URL && sh.Breaker != "closed" {
			t.Fatalf("readmitted shard breaker = %q, want closed", sh.Breaker)
		}
	}
}

// --- rejoin without replay --------------------------------------------

// backendRequests reads a backend's API request count from its /varz.
func backendRequests(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vz serve.Varz
	if err := json.NewDecoder(resp.Body).Decode(&vz); err != nil {
		t.Fatal(err)
	}
	return vz.Requests
}

// TestRejoinServedFromCoordinatorLRU pins why a joining or readmitted
// member needs no verdict replay: the coordinator's LRU answers every
// key it has served, so after a cold backend joins and another is
// ejected and readmitted cold, repeats of earlier requests are all
// coordinator hits and never reach either newcomer.
func TestRejoinServedFromCoordinatorLRU(t *testing.T) {
	_, ts, nodes := testCluster(t, 2, func(cfg *Config) {
		cfg.ProbeInterval = 25 * time.Millisecond
		cfg.ProbeTimeout = 100 * time.Millisecond
		cfg.ProbeFailThreshold = 2
		cfg.ProbeRecoverThreshold = 2
	})

	bodies := make([]string, 20)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"scheme":"S2","minus":["%s(.)"],"horizon":3}`,
			strings.Repeat("w", i%5+1)+strings.Repeat("b", i/5+1))
		resp, raw := postJSON(t, ts.URL+"/v1/solvable", bodies[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed query %d = %d: %s", i, resp.StatusCode, raw)
		}
	}

	// Join a cold backend through the admin API.
	jts := httptest.NewServer(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	defer jts.Close()
	resp, raw := postJSON(t, ts.URL+"/v1/cluster/members", fmt.Sprintf(`{"backend":%q}`, jts.URL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join = %d: %s", resp.StatusCode, raw)
	}

	// Let the prober eject another backend and readmit it cold.
	nodes[1].kill()
	waitFor(t, 5*time.Second, "ejection of the killed backend", func() bool {
		return stateOf(t, ts.URL, nodes[1].ts.URL) == "ejected"
	})
	nodes[1].restart(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	waitFor(t, 5*time.Second, "readmission of the restarted backend", func() bool {
		return stateOf(t, ts.URL, nodes[1].ts.URL) == "active"
	})
	if st := clusterStats(t, ts.URL); st.Membership.Routable != 3 || st.Membership.Readmissions < 1 {
		t.Fatalf("routable=%d readmissions=%d, want 3 and >= 1",
			st.Membership.Routable, st.Membership.Readmissions)
	}

	for i, body := range bodies {
		resp, raw := postJSON(t, ts.URL+"/v1/solvable", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat query %d = %d: %s", i, resp.StatusCode, raw)
		}
		if tier := resp.Header.Get("X-Cluster-Cache"); tier != "hit" {
			t.Fatalf("repeat query %d X-Cluster-Cache = %q, want hit", i, tier)
		}
	}
	for _, base := range []string{jts.URL, nodes[1].ts.URL} {
		if n := backendRequests(t, base); n != 0 {
			t.Fatalf("newcomer %s took %d requests, want 0", base, n)
		}
	}
}

// --- membership churn under load (the chaos campaign, compressed) -----

// TestClusterChurnDifferential runs a seeded chaos.ChurnSchedule —
// kill/restart (prober path) and leave/join (admin path) — against a
// 3-node cluster while fresh keyed queries flow, and checks every
// verdict against a single reference node. The at-most-one-disrupted
// schedule plus replicas=2 means availability must stay ≈100%.
func TestClusterChurnDifferential(t *testing.T) {
	co, ts, nodes := testCluster(t, 3, func(cfg *Config) {
		cfg.ProbeInterval = 25 * time.Millisecond
		cfg.ProbeTimeout = 100 * time.Millisecond
		cfg.ProbeFailThreshold = 2
		cfg.ProbeRecoverThreshold = 2
	})
	ref := httptest.NewServer(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
	defer ref.Close()

	const duration = 2400 * time.Millisecond
	events := chaos.ChurnSchedule(42, chaos.ChurnPlan{
		Backends: 3,
		Duration: duration,
		Pairs:    2,
	})
	if len(events) != 4 {
		t.Fatalf("schedule has %d events, want 4", len(events))
	}

	var applied atomic.Int64
	start := time.Now()
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for _, ev := range events {
			time.Sleep(time.Until(start.Add(ev.At)))
			nd := nodes[ev.Target]
			switch ev.Kind {
			case chaos.ChurnKill:
				nd.kill()
			case chaos.ChurnRestart:
				nd.restart(serve.New(serve.Config{MaxHorizon: 13, Logf: quietLogf}).Handler())
			case chaos.ChurnLeave:
				req, _ := http.NewRequest(http.MethodDelete,
					ts.URL+"/v1/cluster/members?backend="+nd.ts.URL, nil)
				if r, err := http.DefaultClient.Do(req); err == nil {
					r.Body.Close()
				}
			case chaos.ChurnJoin:
				r, err := http.Post(ts.URL+"/v1/cluster/members", "application/json",
					strings.NewReader(fmt.Sprintf(`{"backend":%q}`, nd.ts.URL)))
				if err == nil {
					r.Body.Close()
				}
			}
			applied.Add(1)
		}
	}()

	total, ok := 0, 0
	for i := 0; time.Since(start) < duration; i++ {
		// Fresh cache key every iteration: churn must be survived by
		// routing, not by the coordinator cache.
		word := make([]byte, 5)
		for bit := range word {
			if i&(1<<bit) != 0 {
				word[bit] = 'w'
			} else {
				word[bit] = 'b'
			}
		}
		body := fmt.Sprintf(`{"scheme":"S2","minus":["%s(.)"],"horizon":3}`, word)
		total++
		cresp, craw := postJSON(t, ts.URL+"/v1/solvable", body)
		if cresp.StatusCode != http.StatusOK {
			continue
		}
		ok++
		rresp, rraw := postJSON(t, ref.URL+"/v1/solvable", body)
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("reference failed: %d", rresp.StatusCode)
		}
		var cv, rv verdict
		json.Unmarshal(craw, &cv)
		json.Unmarshal(rraw, &rv)
		if !cv.equal(rv) {
			t.Fatalf("verdict drifted under churn: cluster %+v vs single %+v (query %s)", cv, rv, body)
		}
		time.Sleep(15 * time.Millisecond)
	}
	<-churnDone

	if applied.Load() != int64(len(events)) {
		t.Fatalf("only %d/%d churn events applied", applied.Load(), len(events))
	}
	if total < 20 {
		t.Fatalf("only %d requests issued; churn window too short to mean anything", total)
	}
	avail := float64(ok) / float64(total)
	if avail < 0.99 {
		t.Fatalf("availability %.3f under churn (%d/%d), want >= 0.99", avail, ok, total)
	}

	// The coordinator converges back to full membership: every node is
	// restarted/rejoined by schedule construction.
	waitFor(t, 5*time.Second, "post-churn convergence to 3 routable members", func() bool {
		st := clusterStats(t, ts.URL)
		return st.Membership.Routable == 3
	})
	st := clusterStats(t, ts.URL)
	if st.Membership.EpochSwaps < 2 {
		t.Fatalf("epochSwaps = %d after churn, want >= 2", st.Membership.EpochSwaps)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := co.Shutdown(ctx); err != nil {
		t.Fatalf("post-churn shutdown: %v", err)
	}
}
