package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ca "repro"
	"repro/internal/serve/wire"
)

// firstCalls draws the first n calls of a workload's stream.
func firstCalls(w *workload, seed int64, n int) []*call {
	next := w.gen(seed)
	out := make([]*call, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func sameCalls(a, b []*call) bool {
	for i := range a {
		if a[i].path != b[i].path || a[i].binary != b[i].binary || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		if !sameCalls(firstCalls(w, 7, 300), firstCalls(w, 7, 300)) {
			t.Errorf("%s: seed 7 gave two different request lists", w.name)
		}
		if sameCalls(firstCalls(w, 7, 300), firstCalls(w, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w.name)
		}
	}
}

// TestMissWorkloadsNeverRepeatAKey holds the miss workloads to their
// claim: every item names a question no earlier item asked.
func TestMissWorkloadsNeverRepeatAKey(t *testing.T) {
	for _, name := range []string{"miss-writes", "enum-heavy"} {
		w, _ := workloadByName(name)
		seen := map[string]bool{}
		for _, c := range firstCalls(w, 3, 3000) {
			for _, q := range c.items {
				if seen[q.key()] || (q.kind != qNet && q.minus == "") {
					t.Fatalf("%s: %s repeats or names a warmed scheme", name, q.key())
				}
				seen[q.key()] = true
			}
		}
	}
}

func TestHotSetFitsTheCache(t *testing.T) {
	qs := hotSet()
	if len(qs) >= 1024 {
		t.Fatalf("hot set has %d keys, more than the default LRU", len(qs))
	}
	for _, q := range qs {
		if q.kind == qNet {
			continue
		}
		sch, err := q.scheme()
		if err != nil || !sch.OverGamma() {
			t.Fatalf("%s: not a Γ scheme (%v)", q.key(), err)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) dist {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(i+1) * time.Millisecond
		}
		return newDist(xs)
	}
	for _, tc := range []struct {
		n    int
		want float64 // percentile actually reported for a requested p99
	}{{1000, 0.99}, {999, 0.98}, {100, 0.90}, {15, 0.5}} {
		v, p := sample(tc.n).tail(0.99)
		if p != tc.want {
			t.Errorf("n=%d: reported p%.0f, want p%.0f", tc.n, p*100, tc.want*100)
		}
		if beyond := tc.n - int(v/time.Millisecond); p > 0.5 && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
		}
	}
}

// TestOpenLoopChargesStallFromDueTime stalls the first request of an
// open loop behind a single connection: every call that came due during
// the stall must carry the wait from its due time, not from its send.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		_ = json.NewEncoder(w).Encode(wire.Solvable{Scheme: "S1", Horizon: 3})
	}))
	defer srv.Close()
	d := newLoader(srv.URL, 1, nil)
	defer d.close()
	q := query{kind: qFixed, base: "S1", h: 3}
	s := &stream{next: func() *call { return (bodies)(nil).single(q, false) }}
	var mu sync.Mutex
	var recs []record
	start := time.Now()
	openLoop(context.Background(), d, s, 50, 200*time.Millisecond, func(_ int, r record) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	})
	if len(recs) < 8 {
		t.Fatalf("only %d calls in a 200ms window at 50/s", len(recs))
	}
	for _, r := range recs {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if wait := stall - r.due.Sub(start); r.latency < wait-30*time.Millisecond {
			t.Errorf("call due at +%v took %v, less than the %v it waited for the stall",
				r.due.Sub(start), r.latency, wait)
		}
	}
}

func TestOracleRejectsWrongVerdicts(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		q     query
		wrong func(*verdict)
	}{
		{query{kind: qClassify, base: "AlmostFair"}, func(v *verdict) { v.solvable = !v.solvable }},
		{query{kind: qFixed, base: "K2", minus: "w(.)", h: 3}, func(v *verdict) { v.solvable = !v.solvable }},
		{query{kind: qFixed, base: "S1", h: 4}, func(v *verdict) { v.comps++ }},
		{query{kind: qMin, base: "K2", h: 6}, func(v *verdict) { v.horizon++ }},
		{query{kind: qMin, base: "S2", minus: "x(w)", h: 6}, func(v *verdict) { v.found, v.solvable = true, true }},
		{query{kind: qNet, edges: "0-1,1-2", f: 1, h: 2}, func(v *verdict) { v.solvable = true }},
	} {
		want, err := newOracleRun().expectation(ctx, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q.key(), err)
		}
		if err := check(tc.q, want, want); err != nil {
			t.Errorf("%s: the oracle rejects its own verdict: %v", tc.q.key(), err)
		}
		got := want
		tc.wrong(&got)
		if check(tc.q, want, got) == nil {
			t.Errorf("%s: a wrong verdict %+v passed", tc.q.key(), got)
		}
	}
}

// TestRoundBoundMatchesClassifier cross-checks the oracle's prefix-count
// round bound against Classify's Corollary III.14 bound on the automata
// miss-writes sends.
func TestRoundBoundMatchesClassifier(t *testing.T) {
	w, _ := workloadByName("miss-writes")
	ctx := context.Background()
	o := newOracleRun()
	checked := 0
	for _, c := range firstCalls(w, 5, 40) {
		for _, q := range c.items {
			sch, err := q.scheme()
			if err != nil {
				t.Fatal(err)
			}
			cl, err := o.expectation(ctx, query{kind: qClassify, base: q.base, minus: q.minus})
			if err != nil {
				t.Fatal(err)
			}
			min, err := o.expectation(ctx, query{kind: qMin, base: q.base, minus: q.minus, h: missMaxHorizon})
			if err != nil {
				t.Fatal(err)
			}
			want := cl.minRounds >= 0 && cl.minRounds <= missMaxHorizon
			if min.found != want || (want && min.horizon != cl.minRounds) {
				t.Errorf("%s: round bound found=%v h=%d, Classify MinRounds=%d", sch.Name(), min.found, min.horizon, cl.minRounds)
			}
			checked++
		}
	}
	if checked < 40 {
		t.Fatalf("checked only %d automata", checked)
	}
}

// TestS2MinusMatchesS2Reference backs the oracle's shortcut: a direct
// Analyze of S2 minus a scenario equals Analyze(S2) at the same horizon.
func TestS2MinusMatchesS2Reference(t *testing.T) {
	ctx := context.Background()
	s2, _ := ca.SchemeByName("S2")
	for _, minus := range []string{"(x)", "w(b)", ".x(wb)", "bb(.)"} {
		q := query{kind: qFixed, base: "S2", minus: minus, h: 5}
		sch, err := q.scheme()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ca.Analyze(ctx, ca.RoundsRequest{Scheme: sch, Horizon: q.h})
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := ca.Analyze(ctx, ca.RoundsRequest{Scheme: s2, Horizon: q.h})
		if got.Analysis != ref.Analysis {
			t.Errorf("S2 minus %s: %+v, S2: %+v", minus, got.Analysis, ref.Analysis)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metric
// tables in step: the result line carries exactly the listed names.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	if len(spec.EndToEnd) != len(gated) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the result line %d", len(spec.EndToEnd), len(gated))
	}
	for i, m := range spec.EndToEnd {
		if i < len(gated) && (m.Name != gated[i] || m.Unit != units[m.Name]) {
			t.Errorf("end_to_end[%d] = %s (%s), want %s (%s)", i, m.Name, m.Unit, gated[i], units[gated[i]])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the traced run %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per_layer[%d] = %s (%s), want %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
