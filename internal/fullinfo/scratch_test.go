package fullinfo

import (
	"context"
	"errors"
	"testing"
)

// triStepper is a three-action two-process toy (deliver both, drop
// both, deliver 0→1 only) shaped differently from binStepper, so
// interleaving the two through one Scratch catches stale arena state.
type triStepper struct{}

func (triStepper) NumProcs() int     { return 2 }
func (triStepper) NumActions() int   { return 3 }
func (triStepper) Root() (int, bool) { return 0, true }
func (triStepper) Step(ctx *Ctx, state, a int, views, next []int) (int, bool) {
	r0, r1 := -1, -1
	switch a {
	case 0:
		r0, r1 = views[1], views[0]
	case 2:
		r1 = views[0]
	}
	next[0] = ctx.In.View(views[0], r0)
	next[1] = ctx.In.View(views[1], r1)
	return 0, true
}

// forgetStepper drops without recording the null reception, so distinct
// histories reach equal views: a stepper that is not history-injective,
// whose counts must stay exact without any frontier compression.
type forgetStepper struct{}

func (forgetStepper) NumProcs() int     { return 2 }
func (forgetStepper) NumActions() int   { return 2 }
func (forgetStepper) Root() (int, bool) { return 0, true }
func (forgetStepper) Step(ctx *Ctx, state, a int, views, next []int) (int, bool) {
	if a == 0 {
		next[0] = ctx.In.View(views[0], views[1])
		next[1] = ctx.In.View(views[1], views[0])
	} else {
		next[0] = views[0]
		next[1] = views[1]
	}
	return 0, true
}

// scratchCases is the stepper/horizon matrix the differential tests
// sweep; the mix of shapes is what stresses arena reset.
var scratchCases = []struct {
	name string
	st   Stepper
	r    int
}{
	{"bin0", binStepper{}, 0},
	{"bin4", binStepper{}, 4},
	{"tri3", triStepper{}, 3},
	{"forget5", forgetStepper{}, 5},
	{"dead3", deadStepper{}, 3},
	{"bin6", binStepper{}, 6},
	{"tri5", triStepper{}, 5},
}

func TestScratchRunCheckedDifferential(t *testing.T) {
	// One shared Scratch across the whole interleaved sequence.
	scr := NewScratch()
	for _, tc := range scratchCases {
		want, _, err := RunChecked(context.Background(), tc.st, tc.r, Options{})
		if err != nil {
			t.Fatalf("%s fresh: %v", tc.name, err)
		}
		got, _, err := RunChecked(context.Background(), tc.st, tc.r, Options{Scratch: scr})
		if err != nil {
			t.Fatalf("%s scratch: %v", tc.name, err)
		}
		if got != want {
			t.Fatalf("%s: scratch %+v != fresh %+v", tc.name, got, want)
		}
		if scr.inUse {
			t.Fatalf("%s: scratch still marked in use after RunChecked", tc.name)
		}
	}
}

func TestScratchEngineDifferential(t *testing.T) {
	scr := NewScratch()
	for _, tc := range scratchCases {
		fresh := NewEngine(tc.st, Options{})
		reused := NewEngine(tc.st, Options{Scratch: scr})
		for r := 0; r <= tc.r; r++ {
			want, err := fresh.ExtendTo(context.Background(), r)
			if err != nil {
				t.Fatalf("%s fresh r=%d: %v", tc.name, r, err)
			}
			got, err := reused.ExtendTo(context.Background(), r)
			if err != nil {
				t.Fatalf("%s scratch r=%d: %v", tc.name, r, err)
			}
			if got != want {
				t.Fatalf("%s r=%d: scratch %+v != fresh %+v", tc.name, r, got, want)
			}
		}
		reused.Release()
	}
}

func TestScratchInUseFallsBack(t *testing.T) {
	scr := NewScratch()
	if !scr.acquire() {
		t.Fatal("fresh scratch did not acquire")
	}
	// The arena is busy: runs must fall back to fresh allocation and
	// still be correct, leaving the arena claimed by its real owner.
	want, _, _ := RunChecked(context.Background(), binStepper{}, 4, Options{})
	got, _, err := RunChecked(context.Background(), binStepper{}, 4, Options{Scratch: scr})
	if err != nil || got != want {
		t.Fatalf("busy-scratch run: got %+v, %v; want %+v", got, err, want)
	}
	if !scr.inUse {
		t.Fatal("fallback run released a scratch it did not own")
	}
	scr.release()
}

func TestEngineUseAfterRelease(t *testing.T) {
	scr := NewScratch()
	eng := NewEngine(binStepper{}, Options{Scratch: scr})
	if _, err := eng.ExtendTo(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	eng.Release()
	if _, err := eng.ExtendTo(context.Background(), 3); !errors.Is(err, errEngineReleased) {
		t.Fatalf("ExtendTo after Release: err=%v, want errEngineReleased", err)
	}
	// The arena must be reusable by the next run.
	eng2 := NewEngine(binStepper{}, Options{Scratch: scr})
	if eng2.scr != scr {
		t.Fatal("scratch not re-acquirable after Release")
	}
	eng2.Release()
}

func TestScratchBuildGraphIgnored(t *testing.T) {
	scr := NewScratch()
	res, g, err := RunChecked(context.Background(), binStepper{}, 3,
		Options{BuildGraph: true, Scratch: scr})
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || g.NumVertices() != res.Vertices {
		t.Fatalf("BuildGraph result malformed: %+v, graph %v", res, g)
	}
	if scr.inUse {
		t.Fatal("BuildGraph run claimed the scratch")
	}
	// A later scratch run must not corrupt the retained graph's counts.
	if _, _, err := RunChecked(context.Background(), binStepper{}, 5, Options{Scratch: scr}); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != res.Vertices {
		t.Fatal("scratch run mutated a retained BuildGraph result")
	}
}
