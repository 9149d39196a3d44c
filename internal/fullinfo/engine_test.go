package fullinfo

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

// binStepper is a toy two-process problem over a two-letter alphabet
// {deliver, drop}: on deliver both processes learn each other's view, on
// drop neither does. Every history is admissible. After r rounds the
// configurations with at least one deliver collapse per input
// assignment, and the all-drop chains keep processes at their initial
// views, so the indistinguishability structure is easy to predict for
// small r.
type binStepper struct{ link bool }

func (binStepper) NumProcs() int     { return 2 }
func (binStepper) NumActions() int   { return 2 }
func (binStepper) Root() (int, bool) { return 0, true }
func (s binStepper) Step(ctx *Ctx, state, a int, views, next []int) (int, bool) {
	r0, r1 := -1, -1
	if a == 0 {
		r0, r1 = views[1], views[0]
	}
	next[0] = ctx.In.View(views[0], r0)
	next[1] = ctx.In.View(views[1], r1)
	return 0, true
}

// deadStepper admits nothing.
type deadStepper struct{ binStepper }

func (deadStepper) Root() (int, bool) { return 0, false }

// run is RunChecked failing the test on error.
func run(t *testing.T, st Stepper, r int, opt Options) (Result, *Graph) {
	t.Helper()
	res, g, err := RunChecked(context.Background(), st, r, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, g
}

func pow2(r int) int64 {
	return int64(1) << r
}

func pow3(r int) int64 {
	v := int64(1)
	for i := 0; i < r; i++ {
		v *= 3
	}
	return v
}

func TestEngineSequentialParallelAgree(t *testing.T) {
	for r := 0; r <= 6; r++ {
		seq, _ := run(t, binStepper{}, r, Options{})
		par, _ := run(t, binStepper{}, r, Options{Parallel: true, Workers: 4})
		if seq != par {
			t.Fatalf("r=%d: sequential %+v != parallel %+v", r, seq, par)
		}
		if want := int64(4) * pow2(r); seq.Configs != want {
			t.Fatalf("r=%d: Configs=%d want %d", r, seq.Configs, want)
		}
		if !seq.Exhaustive {
			t.Fatalf("r=%d: not exhaustive", r)
		}
	}
}

func TestEngineDropChainsNeverSolvable(t *testing.T) {
	// With this toy stepper the all-drop chain gives each process a
	// view depending only on its own input, so configs 00 and 01 share
	// process 0's vertex, 01 and 11 share process 1's vertex: one big
	// component containing both unanimous configs. Never solvable.
	for r := 1; r <= 5; r++ {
		res, _ := run(t, binStepper{}, r, Options{Parallel: true, Workers: 3})
		if res.Solvable {
			t.Fatalf("r=%d: expected unsolvable, got %+v", r, res)
		}
		if res.MixedComponents == 0 {
			t.Fatalf("r=%d: expected a mixed component", r)
		}
	}
}

// TestEngineEarlyExit: an unsolvable horizon under EarlyExit reports its
// verdict alone — on the fused sequential scan (r=6) and on the chunked
// parallel one (r=12, past parMinFrontier) alike.
func TestEngineEarlyExit(t *testing.T) {
	for _, r := range []int{6, 12} {
		res, _ := run(t, binStepper{}, r, Options{Parallel: true, Workers: 4, EarlyExit: true})
		if res != (Result{}) {
			t.Fatalf("r=%d: early exit must report the bare verdict, got %+v", r, res)
		}
	}
}

func TestEngineEmptyRoot(t *testing.T) {
	res, g := run(t, deadStepper{}, 3, Options{BuildGraph: true})
	if !res.Solvable || !res.Exhaustive || res.Configs != 0 || res.Components != 0 {
		t.Fatalf("empty root: %+v", res)
	}
	if g == nil || g.NumVertices() != 0 {
		t.Fatalf("empty root graph: %+v", g)
	}
}

func TestEngineZeroRounds(t *testing.T) {
	// r=0: four configs, each a clique over two initial-view vertices.
	// Vertices: (0, init0), (0, init1), (1, init0), (1, init1).
	res, g := run(t, binStepper{}, 0, Options{BuildGraph: true})
	if res.Configs != 4 || res.Vertices != 4 {
		t.Fatalf("r=0: %+v", res)
	}
	if g.NumVertices() != 4 {
		t.Fatalf("graph vertices = %d", g.NumVertices())
	}
	seen := 0
	g.EachVertex(func(proc, view int, has0, has1 bool) {
		seen++
		if view != InitView(0) && view != InitView(1) {
			t.Fatalf("unexpected vertex view %d", view)
		}
	})
	if seen != 4 {
		t.Fatalf("EachVertex visited %d", seen)
	}
}

// TestEngineBuildGraphParallel: the graph kept from a chunked final scan
// lists exactly the vertices, with the same unanimity flags, as the one
// kept from a sequential scan.
func TestEngineBuildGraphParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("large frontier")
	}
	const r = 11 // frontier 4·2^11 = 8192 ≥ parMinFrontier
	type vtx struct{ proc, view int }
	collect := func(opt Options) (Result, map[vtx][2]bool) {
		opt.BuildGraph = true
		res, g := run(t, binStepper{}, r, opt)
		got := map[vtx][2]bool{}
		g.EachVertex(func(proc, view int, has0, has1 bool) {
			got[vtx{proc, view}] = [2]bool{has0, has1}
		})
		if len(got) != g.NumVertices() || g.NumVertices() != res.Vertices {
			t.Fatalf("graph lists %d vertices, NumVertices %d, Result %d", len(got), g.NumVertices(), res.Vertices)
		}
		return res, got
	}
	seqRes, seq := collect(Options{})
	parRes, par := collect(Options{Parallel: true, Workers: 4})
	if seqRes != parRes || len(seq) != len(par) {
		t.Fatalf("parallel %+v (%d vertices) != sequential %+v (%d vertices)", parRes, len(par), seqRes, len(seq))
	}
	for v, fl := range seq {
		if par[v] != fl {
			t.Fatalf("vertex %+v: parallel flags %v, sequential %v", v, par[v], fl)
		}
	}
}

// TestEngineOptionsContract pins the Engine's documented Options
// behavior (see the Engine doc comment).
func TestEngineOptionsContract(t *testing.T) {
	t.Run("workers-resolved", func(t *testing.T) {
		cases := []struct {
			opt  Options
			want int
		}{
			{Options{}, 1},
			{Options{Workers: 8}, 1}, // Workers without Parallel is inert
			{Options{Parallel: true, Workers: 3}, 3},
			{Options{Parallel: true}, runtime.GOMAXPROCS(0)},
		}
		for _, c := range cases {
			var last Stats
			c.opt.Observer = func(s Stats) { last = s }
			eng := NewEngine(binStepper{}, c.opt)
			if _, err := eng.ExtendTo(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			if last.Workers != c.want {
				t.Fatalf("opt %+v: Workers=%d want %d", c.opt, last.Workers, c.want)
			}
		}
	})

	t.Run("parallel-grow-matches-sequential", func(t *testing.T) {
		// 4·2^10 = 4096 = parMinFrontier, so rounds 11+ take the
		// chunked-worker path; the results must stay bit-identical.
		var last Stats
		seq := NewEngine(binStepper{}, Options{})
		par := NewEngine(binStepper{}, Options{Parallel: true, Workers: 4, Observer: func(s Stats) { last = s }})
		for r := 10; r <= 12; r++ {
			want, err := seq.ExtendTo(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.ExtendTo(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("r=%d: parallel %+v != sequential %+v", r, got, want)
			}
		}
		if last.WorkerForks == 0 || last.Absorbed == 0 {
			t.Fatalf("parallel rounds never forked workers: %+v", last)
		}
	})
}

func TestInternerAbsorb(t *testing.T) {
	shared := NewInterner(nil)
	a := shared.View(InitView(0), -1)
	child := NewInterner(shared)
	// Hit on the parent: no new id.
	if got := child.View(InitView(0), -1); got != a {
		t.Fatalf("child parent-hit = %d want %d", got, a)
	}
	b := child.View(InitView(1), a)
	tup := child.Tuple([]int{a, b, -1})
	c := child.View(a, tup)
	trans := shared.absorb(child)
	// Canonical ids must resolve to the same structures.
	wantB := shared.View(InitView(1), a)
	if trans[b-child.base] != wantB {
		t.Fatalf("b translated to %d want %d", trans[b-child.base], wantB)
	}
	wantTup := shared.Tuple([]int{a, wantB, -1})
	if trans[tup-child.base] != wantTup {
		t.Fatalf("tuple translated to %d want %d", trans[tup-child.base], wantTup)
	}
	if got, want := trans[c-child.base], shared.View(a, wantTup); got != want {
		t.Fatalf("c translated to %d want %d", got, want)
	}
}

func TestInternerTwoChildrenConverge(t *testing.T) {
	shared := NewInterner(nil)
	c1 := NewInterner(shared)
	c2 := NewInterner(shared)
	x1 := c1.View(InitView(0), InitView(1))
	x2 := c2.View(InitView(0), InitView(1))
	t1 := shared.absorb(c1)
	t2 := shared.absorb(c2)
	if t1[x1-c1.base] != t2[x2-c2.base] {
		t.Fatalf("same view canonicalized differently: %d vs %d",
			t1[x1-c1.base], t2[x2-c2.base])
	}
}

func TestInternerTupleHitZeroAllocs(t *testing.T) {
	in := NewInterner(nil)
	vals := []int{7, -1, 3, 12, -1}
	in.Tuple(vals)
	if a := testing.AllocsPerRun(200, func() { in.Tuple(vals) }); a != 0 {
		t.Fatalf("Tuple hit allocates %v/op, want 0", a)
	}
	// Parent hits from a fork stay allocation-free too.
	child := NewInterner(in)
	if a := testing.AllocsPerRun(200, func() { child.Tuple(vals) }); a != 0 {
		t.Fatalf("forked Tuple parent-hit allocates %v/op, want 0", a)
	}
}

func BenchmarkInternerTupleHit(b *testing.B) {
	in := NewInterner(nil)
	vals := []int{7, -1, 3, 12, -1}
	in.Tuple(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Tuple(vals)
	}
}

func BenchmarkInternerViewHit(b *testing.B) {
	in := NewInterner(nil)
	v := in.View(InitView(0), -1)
	w := in.View(InitView(1), v)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.View(InitView(1), w-w+v) // defeat trivial hoisting
	}
}

func TestCompUFFlags(t *testing.T) {
	var u compUF
	a, b, c := u.add(), u.add(), u.add()
	u.mark(a, flagHas0)
	u.mark(b, flagHas1)
	if u.mixed != 0 || u.roots != 3 {
		t.Fatalf("pre-union: mixed=%d roots=%d", u.mixed, u.roots)
	}
	u.union(a, b)
	if u.mixed != 1 || u.roots != 2 {
		t.Fatalf("post-union: mixed=%d roots=%d", u.mixed, u.roots)
	}
	u.union(b, c) // absorbing an unflagged singleton keeps mixed count
	if u.mixed != 1 || u.roots != 1 {
		t.Fatalf("post-union2: mixed=%d roots=%d", u.mixed, u.roots)
	}
	u.mark(c, flagHas0) // already mixed: no double count
	if u.mixed != 1 {
		t.Fatalf("re-mark: mixed=%d", u.mixed)
	}
}

func TestCompUFMergeTwoMixed(t *testing.T) {
	var u compUF
	a, b := u.add(), u.add()
	u.mark(a, flagMixed)
	u.mark(b, flagMixed)
	if u.mixed != 2 {
		t.Fatalf("mixed=%d", u.mixed)
	}
	u.union(a, b)
	if u.mixed != 1 || u.roots != 1 {
		t.Fatalf("merged: mixed=%d roots=%d", u.mixed, u.roots)
	}
}

// panicStepper panics once a node reaches depth ≥ 2.
type panicStepper struct{ binStepper }

func (s panicStepper) Step(ctx *Ctx, state, a int, views, next []int) (int, bool) {
	if state >= 1 {
		panic("stepper exploded")
	}
	s.binStepper.Step(ctx, state, a, views, next)
	return state + 1, true
}

func TestRunCheckedStepperPanicIsolated(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		_, _, err := RunChecked(context.Background(), panicStepper{}, 4,
			Options{Parallel: parallel, Workers: 4})
		if err == nil {
			t.Fatalf("parallel=%v: panicking Stepper returned no error", parallel)
		}
		if !strings.Contains(err.Error(), "stepper exploded") {
			t.Fatalf("parallel=%v: error lost the panic value: %v", parallel, err)
		}
	}
}

func TestRunCheckedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallel := range []bool{false, true} {
		res, _, err := RunChecked(ctx, binStepper{}, 8, Options{Parallel: parallel, Workers: 2})
		if err == nil {
			t.Fatalf("parallel=%v: cancelled run returned no error", parallel)
		}
		if res.Exhaustive {
			t.Fatalf("parallel=%v: cancelled run claims exhaustive analysis", parallel)
		}
	}
}
