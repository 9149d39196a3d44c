package main

import (
	"context"
	"fmt"
	"strings"
	"sync"

	ca "repro"
	"repro/internal/serve/wire"
)

// verdict is the part of one reply the oracle compares. Engine blocks
// are never compared: on VerdictOnly runs (MinRounds, net-solvable)
// they depend on which worker finds the first mixed component.
type verdict struct {
	status int // the item's HTTP status (batch lines carry their own)
	cached bool

	solvable bool
	found    bool // MinRounds search outcome
	horizon  int
	configs  int
	exact    string
	comps    int
	mixed    int

	complete  bool // classify: Theorem III.8 applies exactly
	decided   bool // classify: a solvability verdict was given
	minRounds int  // classify: Corollary III.14 round bound, -1 when absent

	n, f, rounds, conn int // net: size, budget, rounds, c(G)
	theoremV1          bool
}

func fromSolvable(s *wire.Solvable) verdict {
	v := verdict{status: 200, cached: s.Cached, solvable: s.Solvable, horizon: s.Horizon,
		configs: s.Configs, exact: s.ConfigsExact, comps: s.Components, mixed: s.MixedComponents}
	if s.Found != nil {
		v.found = *s.Found
	}
	return v
}

func fromNet(s *wire.NetSolvable) verdict {
	return verdict{status: 200, cached: s.Cached, solvable: s.Solvable, n: s.N, f: s.F,
		rounds: s.Rounds, conn: s.EdgeConnectivity, theoremV1: s.TheoremV1}
}

// classifyReply is the /v1/classify body, as far as the oracle reads it.
type classifyReply struct {
	Complete  bool  `json:"complete"`
	Solvable  *bool `json:"solvable"`
	MinRounds *int  `json:"minRounds"`
	Cached    bool  `json:"cached"`
}

func fromClassify(c *classifyReply) verdict {
	v := verdict{status: 200, cached: c.Cached, complete: c.Complete, minRounds: -1}
	if c.Solvable != nil {
		v.decided, v.solvable = true, *c.Solvable
	}
	if c.MinRounds != nil {
		v.minRounds = *c.MinRounds
	}
	return v
}

// oracleRun computes expectations independently of the server:
// Theorem III.8 (Classify) for classifications; for horizons, Corollary
// III.14 on the scheme's own automaton (solvable in h rounds iff some
// word of Γ^h is not a prefix of the scheme) plus a direct Analyze for
// the exhaustive counts; AnalyzeNet and Theorem V.1's necessary
// condition for graphs. It memoizes the S2 reference analyses.
type oracleRun struct {
	mu sync.Mutex
	s2 map[int]ca.RoundsReport // horizon → Analyze(S2)
}

func newOracleRun() *oracleRun { return &oracleRun{s2: map[int]ca.RoundsReport{}} }

func (o *oracleRun) expectation(ctx context.Context, q query) (verdict, error) {
	if q.kind == qNet {
		return netExpectation(ctx, q)
	}
	sch, err := q.scheme()
	if err != nil {
		return verdict{}, err
	}
	switch q.kind {
	case qClassify:
		res, cerr := ca.Classify(sch)
		if res == nil {
			return verdict{}, cerr
		}
		v := verdict{status: 200, complete: res.Complete, minRounds: -1}
		if cerr == nil {
			v.decided, v.solvable = true, res.Solvable
			if res.MinRounds != ca.Unbounded {
				v.minRounds = res.MinRounds
			}
		}
		return v, nil
	case qFixed:
		rep, err := o.analyze(ctx, q, sch)
		if err != nil {
			return verdict{}, err
		}
		v := verdict{status: 200, solvable: rep.Solvable, horizon: q.h, configs: rep.Configs,
			comps: rep.Components, mixed: rep.MixedComponents}
		if rep.ConfigsExact != nil {
			v.exact = rep.ConfigsExact.String()
		}
		if want, ok := solvableIn(sch, q.h); ok && want != rep.Solvable {
			return verdict{}, fmt.Errorf("Analyze says solvable=%v at h=%d, the round bound says %v", rep.Solvable, q.h, want)
		}
		return v, nil
	case qMin:
		v := verdict{status: 200, horizon: q.h}
		if !sch.OverGamma() {
			if ok, decided := solvableIn(sch, q.h); !decided || ok {
				return verdict{}, fmt.Errorf("no round bound for %s", q.key())
			}
			return v, nil
		}
		if r := roundBound(sch); r >= 0 && r <= q.h {
			v.solvable, v.found, v.horizon = true, true, r
		}
		return v, nil
	}
	return verdict{}, fmt.Errorf("unknown query kind %d", q.kind)
}

// analyze is the direct exhaustive analysis behind a fixed-horizon
// verdict. S2 is Σ^ω: removing finitely many scenarios from it leaves
// every finite word a prefix, and an analysis at horizon h depends on
// the length-h prefixes alone, so each S2-minus key is checked against
// Analyze(S2, h), computed once per horizon
// (TestS2MinusMatchesS2Reference holds the two equal).
func (o *oracleRun) analyze(ctx context.Context, q query, sch *ca.Scheme) (ca.RoundsReport, error) {
	if q.base != "S2" {
		return ca.Analyze(ctx, ca.RoundsRequest{Scheme: sch, Horizon: q.h})
	}
	o.mu.Lock()
	rep, ok := o.s2[q.h]
	o.mu.Unlock()
	if ok {
		return rep, nil
	}
	s2, err := ca.SchemeByName("S2")
	if err != nil {
		return rep, err
	}
	if rep, err = ca.Analyze(ctx, ca.RoundsRequest{Scheme: s2, Horizon: q.h}); err != nil {
		return rep, err
	}
	o.mu.Lock()
	o.s2[q.h] = rep
	o.mu.Unlock()
	return rep, nil
}

// roundBound is Corollary III.14's p for a Γ scheme: the smallest r
// with Γ^r ⊄ Pref(L), or -1 when every word is a prefix. Dead states of
// the automaton are absorbing, so a word leaves Pref(L) exactly when
// its run steps into one; a breadth-first walk over live states finds
// the shortest such word.
func roundBound(sch *ca.Scheme) int {
	a := sch.Automaton()
	live := a.NBA().LiveStates()
	if !live[a.Start] {
		return 0
	}
	depth := map[int]int{int(a.Start): 0}
	queue := []int{int(a.Start)}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, next := range a.Delta[q] {
			n := int(next)
			if !live[n] {
				return depth[q] + 1
			}
			if _, seen := depth[n]; !seen {
				depth[n] = depth[q] + 1
				queue = append(queue, n)
			}
		}
	}
	return -1
}

// solvableIn decides r-round solvability without the engine. Over Γ it
// is Corollary III.14/Proposition III.15: solvable iff r ≥ roundBound.
// Over Σ only the impossibility side is decided: when r lost-both
// rounds are a prefix, neither process ever hears the other.
func solvableIn(sch *ca.Scheme, r int) (solvable, decided bool) {
	if sch.OverGamma() {
		p := roundBound(sch)
		return p >= 0 && p <= r, true
	}
	if sch.AcceptsPrefix(ca.MustWord(strings.Repeat("x", r))) {
		return false, true
	}
	return false, false
}

func netExpectation(ctx context.Context, q query) (verdict, error) {
	g, err := ca.ParseEdgeList("custom", q.edges)
	if err != nil {
		return verdict{}, err
	}
	rep, err := ca.AnalyzeNet(ctx, ca.NetAnalysisRequest{Graph: g, F: q.f, Horizon: q.h, VerdictOnly: true})
	if err != nil {
		return verdict{}, err
	}
	c := g.EdgeConnectivity()
	if rep.Solvable && q.f >= c {
		return verdict{}, fmt.Errorf("AnalyzeNet solves %s with f=%d ≥ c(G)=%d, against Theorem V.1", q.edges, q.f, c)
	}
	return verdict{status: 200, solvable: rep.Solvable, n: g.N(), f: q.f, rounds: q.h, conn: c, theoremV1: q.f < c}, nil
}

// check compares one reply item with the oracle's verdict.
func check(q query, want, got verdict) error {
	if got.status != 200 {
		return fmt.Errorf("status %d", got.status)
	}
	mismatch := func(field string, w, g any) error {
		return fmt.Errorf("%s: %s = %v, oracle says %v", q.key(), field, g, w)
	}
	switch q.kind {
	case qClassify:
		switch {
		case got.complete != want.complete:
			return mismatch("complete", want.complete, got.complete)
		case got.decided != want.decided:
			return mismatch("decided", want.decided, got.decided)
		case got.solvable != want.solvable:
			return mismatch("solvable", want.solvable, got.solvable)
		case got.minRounds != want.minRounds:
			return mismatch("minRounds", want.minRounds, got.minRounds)
		}
	case qFixed:
		switch {
		case got.solvable != want.solvable:
			return mismatch("solvable", want.solvable, got.solvable)
		case got.horizon != want.horizon:
			return mismatch("horizon", want.horizon, got.horizon)
		case got.configs != want.configs || got.exact != want.exact:
			return mismatch("configs", want.configs, got.configs)
		case got.comps != want.comps:
			return mismatch("components", want.comps, got.comps)
		case got.mixed != want.mixed:
			return mismatch("mixedComponents", want.mixed, got.mixed)
		}
	case qMin:
		switch {
		case got.found != want.found || got.solvable != want.found:
			return mismatch("found", want.found, got.found)
		case got.horizon != want.horizon:
			return mismatch("horizon", want.horizon, got.horizon)
		}
	case qNet:
		switch {
		case got.solvable && q.f >= want.conn:
			return fmt.Errorf("%s: solvable with f=%d ≥ c(G)=%d contradicts Theorem V.1", q.key(), q.f, want.conn)
		case got.solvable != want.solvable:
			return mismatch("solvable", want.solvable, got.solvable)
		case got.conn != want.conn || got.theoremV1 != want.theoremV1:
			return mismatch("edgeConnectivity", want.conn, got.conn)
		case got.n != want.n || got.f != want.f || got.rounds != want.rounds:
			return mismatch("instance", fmt.Sprint(want.n, want.f, want.rounds), fmt.Sprint(got.n, got.f, got.rounds))
		}
	}
	return nil
}

// oracle holds one verdict per distinct query of a run.
type oracle map[string]verdict

// buildOracle computes the expectation of every distinct query with
// `workers` goroutines. A query the oracle cannot decide keeps its
// error, and every reply to it then counts as wrong.
func buildOracle(ctx context.Context, qs []query, workers int) (oracle, map[string]error) {
	o, failed, run := oracle{}, map[string]error{}, newOracleRun()
	var mu sync.Mutex
	jobs := make(chan query)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range jobs {
				v, err := run.expectation(ctx, q)
				mu.Lock()
				if err != nil {
					failed[q.key()] = err
				} else {
					o[q.key()] = v
				}
				mu.Unlock()
			}
		}()
	}
	seen := map[string]bool{}
	for _, q := range qs {
		if k := q.key(); !seen[k] {
			seen[k] = true
			jobs <- q
		}
	}
	close(jobs)
	wg.Wait()
	return o, failed
}
