package fullinfo

import (
	"context"
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

func TestEngineDropChainsNeverSolvable(t *testing.T) {
	// With this toy stepper the all-drop chain gives each process a
	// view depending only on its own input, so configs 00 and 01 share
	// process 0's vertex, 01 and 11 share process 1's vertex: one big
	// component containing both unanimous configs. Never solvable.
	for r := 1; r <= 5; r++ {
		res, _ := run(t, binStepper{}, r, Options{})
		if res.Solvable {
			t.Fatalf("r=%d: expected unsolvable, got %+v", r, res)
		}
		if res.MixedComponents == 0 {
			t.Fatalf("r=%d: expected a mixed component", r)
		}
	}
}

// TestEngineEarlyExit: an unsolvable horizon under EarlyExit reports its
// verdict alone — on the horizon-0 scan (r=0) and on the fused
// grow-and-scan sweep (r=6) alike.
func TestEngineEarlyExit(t *testing.T) {
	for _, r := range []int{0, 6} {
		res, _ := run(t, binStepper{}, r, Options{EarlyExit: true})
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

// TestEngineOptionsContract pins the Engine's documented Options
// behavior (see the Engine doc comment).
func TestEngineOptionsContract(t *testing.T) {
	t.Run("early-exit-fused-and-rescan-agree", func(t *testing.T) {
		// ExtendTo(r) settles horizon r on the fused grow-and-scan sweep
		// (r=0 on the standalone scan); a second ExtendTo(r) re-scans the
		// same frontier. Both report the bare verdict, and the early exit
		// never truncates the frontier the next round grows from.
		eng := NewEngine(binStepper{}, Options{EarlyExit: true})
		for r := 0; r <= 6; r++ {
			for _, pass := range []string{"sweep", "re-scan"} {
				res, err := eng.ExtendTo(context.Background(), r)
				if err != nil {
					t.Fatal(err)
				}
				if res != (Result{}) {
					t.Fatalf("r=%d %s: early exit must report the bare verdict, got %+v", r, pass, res)
				}
			}
			if got := eng.FrontierLen(); got != engFrontierWant(r) {
				t.Fatalf("r=%d: early exit left a frontier of %d nodes, want %d", r, got, engFrontierWant(r))
			}
		}
	})

	t.Run("zero-value-is-exhaustive", func(t *testing.T) {
		// The zero Options is the standard configuration: every horizon
		// is scanned to the end, unsolvable or not.
		for r := 0; r <= 4; r++ {
			res, g := run(t, binStepper{}, r, Options{})
			if !res.Exhaustive || res.Configs != int64(engFrontierWant(r)) || g != nil {
				t.Fatalf("r=%d: zero Options gave %+v (graph %v)", r, res, g)
			}
		}
	})
}

func TestInternerTupleHitZeroAllocs(t *testing.T) {
	in := newInterner(true)
	vals := []int{7, -1, 3, 12, -1}
	in.Tuple(vals)
	if a := testing.AllocsPerRun(200, func() { in.Tuple(vals) }); a != 0 {
		t.Fatalf("Tuple hit allocates %v/op, want 0", a)
	}
}

func BenchmarkInternerTupleHit(b *testing.B) {
	in := newInterner(true)
	vals := []int{7, -1, 3, 12, -1}
	in.Tuple(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Tuple(vals)
	}
}

func BenchmarkInternerViewHit(b *testing.B) {
	in := newInterner(true)
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
	_, _, err := RunChecked(context.Background(), panicStepper{}, 4, Options{})
	if err == nil {
		t.Fatal("panicking Stepper returned no error")
	}
	if !strings.Contains(err.Error(), "stepper exploded") {
		t.Fatalf("error lost the panic value: %v", err)
	}
}

func TestRunCheckedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := RunChecked(ctx, binStepper{}, 8, Options{})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if res.Exhaustive {
		t.Fatal("cancelled run claims exhaustive analysis")
	}
}
