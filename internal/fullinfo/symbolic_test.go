package fullinfo

import (
	"context"
	"errors"
	"math"
	"math/big"
	"testing"
)

// gammaStepper enumerates the chain problem a SymbolicSpec describes,
// with exactly the semantics chain.chainStepper has after re-keying by
// child offset: action 0 loses black's message (white receives
// nothing), action 1 delivers both, action 2 loses white's (black
// receives nothing). It lets the symbolic backend be differentially
// tested against honest enumeration on arbitrary specs, inside the
// package, without compiling schemes.
type gammaStepper struct{ spec SymbolicSpec }

func (g gammaStepper) NumProcs() int     { return 2 }
func (g gammaStepper) NumActions() int   { return g.spec.Base }
func (g gammaStepper) Root() (int, bool) { return g.spec.Start, g.spec.Start >= 0 }

func (g gammaStepper) Step(ctx *Ctx, state, a int, views, next []int) (int, bool) {
	ns := g.spec.Next[state*g.spec.Base+a]
	if ns < 0 {
		return 0, false
	}
	rw, rb := views[1], views[0]
	if a == 0 {
		rw = -1
	}
	if a == 2 {
		rb = -1
	}
	next[0] = ctx.View(views[0], rw)
	next[1] = ctx.View(views[1], rb)
	return int(ns), true
}

func (g gammaStepper) SymbolicSpec() (SymbolicSpec, bool) { return g.spec, true }

// universalSpec admits every Γ word: one state, all letters live.
func universalSpec() SymbolicSpec {
	return SymbolicSpec{Base: 3, Start: 0, Next: []int32{0, 0, 0}}
}

// splitSpec kills the middle letter, so every index's surviving
// children are gapped (offsets 0 and 2): the interval frontier
// fragments geometrically.
func splitSpec() SymbolicSpec {
	return SymbolicSpec{Base: 3, Start: 0, Next: []int32{0, -1, 0}}
}

func TestParseBackendMode(t *testing.T) {
	cases := map[string]BackendMode{
		"": BackendAuto, "auto": BackendAuto,
		"enumerate": BackendEnumerate, "enum": BackendEnumerate,
		"symbolic": BackendSymbolic, "sym": BackendSymbolic,
	}
	for in, want := range cases {
		got, err := ParseBackendMode(in)
		if err != nil || got != want {
			t.Errorf("ParseBackendMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseBackendMode("frobnicate"); err == nil {
		t.Error("ParseBackendMode accepted garbage")
	}
	for _, m := range []BackendMode{BackendAuto, BackendEnumerate, BackendSymbolic} {
		back, err := ParseBackendMode(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v → %q → %v, %v", m, m.String(), back, err)
		}
	}
	if BackendMode(99).String() == "" {
		t.Error("out-of-range mode has no String")
	}
}

// TestSymbolicMatchesEnumerate is the in-package differential: on a
// family of specs covering the uniform fast path, dead letters,
// parity-dependent splits, and the empty language, the symbolic
// backend must reproduce the enumerating analysis exactly.
func TestSymbolicMatchesEnumerate(t *testing.T) {
	specs := map[string]SymbolicSpec{
		"universal": universalSpec(),
		"empty":     {Base: 3, Start: -1},
		"split":     splitSpec(),
		"no-loss":   {Base: 3, Start: 0, Next: []int32{-1, 0, -1}},
		"two-state": {Base: 3, Start: 0, Next: []int32{1, 0, 0, -1, 1, 1}},
		"swap":      {Base: 3, Start: 0, Next: []int32{1, 1, 1, 0, 0, 0}},
		"fair-ish":  {Base: 3, Start: 0, Next: []int32{1, 0, 2, 1, 1, -1, -1, 2, 2}},
	}
	for name, spec := range specs {
		st := gammaStepper{spec: spec}
		for r := 0; r <= 6; r++ {
			want, _, err := RunChecked(context.Background(), st, r, Options{Backend: BackendEnumerate})
			if err != nil {
				t.Fatalf("%s r=%d enumerate: %v", name, r, err)
			}
			got, _, err := RunChecked(context.Background(), st, r, Options{Backend: BackendSymbolic})
			if err != nil {
				t.Fatalf("%s r=%d symbolic: %v", name, r, err)
			}
			if got != want {
				t.Fatalf("%s r=%d: symbolic %+v != enumerate %+v", name, r, got, want)
			}
			auto, _, err := RunChecked(context.Background(), st, r, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if auto != want {
				t.Fatalf("%s r=%d: auto %+v != enumerate %+v", name, r, auto, want)
			}
		}
	}
}

// TestSymbolicDeepHorizon pushes the universal chain to depth 45 —
// 4·3^45 configurations, unreachable by enumeration — and checks the
// saturation contract: scalar fields pin to their maxima while
// ConfigsExact carries the exact count.
func TestSymbolicDeepHorizon(t *testing.T) {
	var last Stats
	eng := NewEngine(gammaStepper{spec: universalSpec()}, Options{Observer: func(s Stats) { last = s }})
	res, err := eng.ExtendTo(context.Background(), 45)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Exp(big.NewInt(3), big.NewInt(45), nil)
	want.Lsh(want, 2) // 4·3^45
	if res.Configs != math.MaxInt64 {
		t.Fatalf("Configs = %d, want saturated MaxInt64", res.Configs)
	}
	if res.ConfigsExact == nil || res.ConfigsExact.Cmp(want) != 0 {
		t.Fatalf("ConfigsExact = %v, want %v", res.ConfigsExact, want)
	}
	if res.Vertices != math.MaxInt {
		t.Fatalf("Vertices = %d, want saturated MaxInt", res.Vertices)
	}
	// The full chain is one mixed component: unsolvable at every horizon.
	if res.Solvable || res.Components != 1 || res.MixedComponents != 1 {
		t.Fatalf("universal chain at depth 45: %+v", res)
	}
	if eng.Horizon() != 45 || eng.FrontierLen() != 1 {
		t.Fatalf("engine gauges: horizon=%d frontier=%d, want 45 and 1 interval", eng.Horizon(), eng.FrontierLen())
	}
	if last.SymbolicRounds == 0 || last.Intervals != 1 || last.IntervalsPeak != 1 || last.SymbolicFallbacks != 0 {
		t.Fatalf("symbolic stats: %+v", last)
	}
	if last.FragmentationRatio() != 1 {
		t.Fatalf("FragmentationRatio = %v, want 1", last.FragmentationRatio())
	}
}

// TestSymbolicBelowOverflowKeepsExactNil pins the comparability
// contract: in int64 range, ConfigsExact stays nil so Result values
// remain ==-comparable across backends.
func TestSymbolicBelowOverflowKeepsExactNil(t *testing.T) {
	res, _, err := RunChecked(context.Background(), gammaStepper{spec: universalSpec()}, 10, Options{Backend: BackendSymbolic})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConfigsExact != nil {
		t.Fatalf("ConfigsExact = %v at depth 10, want nil", res.ConfigsExact)
	}
	if res.Configs != 4*pow3(10) {
		t.Fatalf("Configs = %d, want %d", res.Configs, 4*pow3(10))
	}
}

// TestSymbolicFragmentationFallback: with a tiny interval budget the
// split spec fragments immediately; RunChecked must fall back to
// enumeration, produce the enumerating answer, and record exactly one
// fallback event.
func TestSymbolicFragmentationFallback(t *testing.T) {
	st := gammaStepper{spec: splitSpec()}
	for r := 0; r <= 6; r++ {
		want, _, err := RunChecked(context.Background(), st, r, Options{Backend: BackendEnumerate})
		if err != nil {
			t.Fatal(err)
		}
		var last Stats
		got, _, err := RunChecked(context.Background(), st, r, Options{
			Backend:              BackendSymbolic,
			SymbolicMaxIntervals: 2,
			Observer:             func(s Stats) { last = s },
		})
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if got != want {
			t.Fatalf("r=%d: fallback %+v != enumerate %+v", r, got, want)
		}
		// Depth ≤ 1 fits two intervals, so the symbolic run succeeds there.
		if r >= 2 && last.SymbolicFallbacks != 1 {
			t.Fatalf("r=%d: SymbolicFallbacks = %d, want 1 (stats %+v)", r, last.SymbolicFallbacks, last)
		}
	}
}

// TestSymbolicEngineFallbackReplay: the incremental engine drops its
// symbolic frontier on fragmentation and replays the enumeration from
// the roots; results must match a purely enumerating engine round by
// round, before and after the switch.
func TestSymbolicEngineFallbackReplay(t *testing.T) {
	st := gammaStepper{spec: splitSpec()}
	var fallbacks int
	sym := NewEngine(st, Options{
		SymbolicMaxIntervals: 4,
		Observer:             func(s Stats) { fallbacks += s.SymbolicFallbacks },
	})
	ref := NewEngine(st, Options{Backend: BackendEnumerate})
	for r := 0; r <= 7; r++ {
		want, err := ref.ExtendTo(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sym.ExtendTo(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("r=%d: %+v != %+v", r, got, want)
		}
		if sym.Horizon() != r {
			t.Fatalf("r=%d: Horizon()=%d", r, sym.Horizon())
		}
	}
	if fallbacks != 1 {
		t.Fatalf("observed %d fallbacks across the run, want 1", fallbacks)
	}
}

// TestBackendSymbolicWithoutChainStructure: requesting the symbolic
// backend on a Stepper with no chain structure degrades to enumeration
// and records the degradation.
func TestBackendSymbolicWithoutChainStructure(t *testing.T) {
	var last Stats
	got, _, err := RunChecked(context.Background(), binStepper{}, 4, Options{
		Backend:  BackendSymbolic,
		Observer: func(s Stats) { last = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := run(t, binStepper{}, 4, Options{})
	if got != want {
		t.Fatalf("degraded symbolic %+v != reference %+v", got, want)
	}
	if last.SymbolicFallbacks != 1 || last.SymbolicRounds != 0 {
		t.Fatalf("degradation not recorded: %+v", last)
	}

	// Same through the incremental engine.
	var engLast Stats
	eng := NewEngine(binStepper{}, Options{Backend: BackendSymbolic, Observer: func(s Stats) { engLast = s }})
	inc, err := eng.ExtendTo(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if inc != want {
		t.Fatalf("engine degraded symbolic %+v != reference %+v", inc, want)
	}
	if engLast.SymbolicFallbacks != 1 {
		t.Fatalf("engine degradation not recorded: %+v", engLast)
	}
}

// TestSymbolicMinimize: states with identical residual languages must
// merge — the swap automaton (two universal states exchanging on every
// letter) collapses to one.
func TestSymbolicMinimize(t *testing.T) {
	swap := SymbolicSpec{Base: 3, Start: 0, Next: []int32{1, 1, 1, 0, 0, 0}}
	min := swap.minimize()
	if min.numStates() != 1 {
		t.Fatalf("swap automaton minimized to %d states, want 1", min.numStates())
	}
	// Distinguishable states must stay apart: split's dead middle letter
	// versus a universal state.
	two := SymbolicSpec{Base: 3, Start: 0, Next: []int32{1, -1, 1, 1, 1, 1}}
	if got := two.minimize().numStates(); got != 2 {
		t.Fatalf("distinguishable pair minimized to %d states, want 2", got)
	}
}

// TestNormalizeSpans covers the merge discipline: empty, singleton,
// adjacency (merge), gaps (keep), containment, and unsorted input.
func TestNormalizeSpans(t *testing.T) {
	sp := func(lo, hi int64) span { return span{lo: big.NewInt(lo), hi: big.NewInt(hi)} }
	render := func(spans []span) [][2]int64 {
		var out [][2]int64
		for _, s := range spans {
			out = append(out, [2]int64{s.lo.Int64(), s.hi.Int64()})
		}
		return out
	}
	cases := []struct {
		in, want []span
	}{
		{nil, nil},
		{[]span{sp(5, 5)}, []span{sp(5, 5)}},
		{[]span{sp(0, 1), sp(2, 3)}, []span{sp(0, 3)}},                     // adjacent
		{[]span{sp(0, 1), sp(3, 4)}, []span{sp(0, 1), sp(3, 4)}},           // gapped
		{[]span{sp(0, 9), sp(2, 3)}, []span{sp(0, 9)}},                     // contained
		{[]span{sp(6, 8), sp(0, 2), sp(3, 4)}, []span{sp(0, 4), sp(6, 8)}}, // unsorted
	}
	for i, c := range cases {
		got := normalizeSpans(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: %v, want %v", i, render(got), render(c.want))
		}
		for j := range got {
			if got[j].lo.Cmp(c.want[j].lo) != 0 || got[j].hi.Cmp(c.want[j].hi) != 0 {
				t.Fatalf("case %d: %v, want %v", i, render(got), render(c.want))
			}
		}
	}
}

// TestSymbolicFragmentedErrorKeepsFrontier: a failed step leaves the
// engine at its previous depth with the frontier intact, so retrying
// with a bigger budget (or falling back) starts from consistent state.
func TestSymbolicFragmentedErrorKeepsFrontier(t *testing.T) {
	e := newSymEngine(splitSpec(), Options{SymbolicMaxIntervals: 2})
	_, err := e.extendTo(context.Background(), 6)
	if !errors.Is(err, errSymbolicFragmented) {
		t.Fatalf("err = %v, want errSymbolicFragmented", err)
	}
	if e.depth >= 6 || e.intervals == 0 || e.intervals > 2 {
		t.Fatalf("post-error frontier: depth=%d intervals=%d", e.depth, e.intervals)
	}
	// The intact frontier still produces the analysis for its own depth.
	res, err := e.extendTo(context.Background(), e.depth)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := RunChecked(context.Background(), gammaStepper{spec: splitSpec()}, e.depth, Options{Backend: BackendEnumerate})
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Fatalf("frontier analysis %+v != enumerate %+v", res, want)
	}
}

// TestStatsSymbolicMerge pins the aggregation policy of the new
// instrumentation fields: rounds and fallbacks accumulate, interval
// gauges track the latest snapshot, the peak keeps its maximum.
func TestStatsSymbolicMerge(t *testing.T) {
	var agg Stats
	agg.Merge(Stats{SymbolicRounds: 3, Intervals: 5, IntervalRuns: 2, IntervalsPeak: 7, SymbolicFallbacks: 1})
	agg.Merge(Stats{SymbolicRounds: 2, Intervals: 1, IntervalRuns: 1, IntervalsPeak: 4})
	if agg.SymbolicRounds != 5 || agg.SymbolicFallbacks != 1 {
		t.Fatalf("accumulating fields: %+v", agg)
	}
	if agg.Intervals != 1 || agg.IntervalRuns != 1 || agg.IntervalsPeak != 7 {
		t.Fatalf("gauge fields: %+v", agg)
	}
	frag := Stats{Intervals: 6, IntervalRuns: 4}
	if got := frag.FragmentationRatio(); got != 1.5 {
		t.Fatalf("FragmentationRatio = %v, want 1.5", got)
	}
	var zero Stats
	if got := zero.FragmentationRatio(); got != 1 {
		t.Fatalf("FragmentationRatio of zero stats = %v, want 1", got)
	}
	// Config counts saturate instead of wrapping: a deep symbolic
	// MinRounds sweep merges several already-saturated rounds.
	sat := Stats{Configs: math.MaxInt64 - 1}
	sat.Merge(Stats{Configs: math.MaxInt64})
	sat.Merge(Stats{Configs: 17})
	if sat.Configs != math.MaxInt64 {
		t.Fatalf("Configs = %d, want saturated MaxInt64", sat.Configs)
	}
}
