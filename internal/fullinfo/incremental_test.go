package fullinfo

import (
	"context"
	"strings"
	"testing"
)

func TestEngineExtendMatchesRun(t *testing.T) {
	eng := NewEngine(binStepper{}, Options{})
	for r := 0; r <= 6; r++ {
		got, err := eng.ExtendTo(context.Background(), r)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		want, _ := run(t, binStepper{}, r, Options{})
		if got != want {
			t.Fatalf("r=%d: Extend %+v != Run %+v", r, got, want)
		}
		if eng.Horizon() != r {
			t.Fatalf("r=%d: Horizon()=%d", r, eng.Horizon())
		}
	}
}

func TestEngineExtendToBelowHorizon(t *testing.T) {
	eng := NewEngine(binStepper{}, Options{})
	if _, err := eng.ExtendTo(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExtendTo(context.Background(), 1); err == nil {
		t.Fatal("ExtendTo below the current horizon must fail")
	}
	// A same-horizon re-scan stays legal.
	if _, err := eng.ExtendTo(context.Background(), 2); err != nil {
		t.Fatalf("same-horizon re-scan: %v", err)
	}
}

func TestEngineExtendEmptyRoot(t *testing.T) {
	eng := NewEngine(deadStepper{}, Options{})
	for r := 0; r <= 3; r++ {
		res, err := eng.ExtendTo(context.Background(), r)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if !res.Solvable || !res.Exhaustive || res.Configs != 0 {
			t.Fatalf("r=%d: %+v", r, res)
		}
	}
}

func TestEngineExtendEarlyExitVerdict(t *testing.T) {
	eng := NewEngine(binStepper{}, Options{EarlyExit: true})
	for r := 0; r <= 5; r++ {
		res, err := eng.ExtendTo(context.Background(), r)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		want, _ := run(t, binStepper{}, r, Options{})
		if res.Solvable != want.Solvable {
			t.Fatalf("r=%d: early-exit verdict %v, want %v", r, res.Solvable, want.Solvable)
		}
	}
}

func TestEngineObserverPerRound(t *testing.T) {
	var snaps []Stats
	eng := NewEngine(binStepper{}, Options{Observer: func(s Stats) { snaps = append(snaps, s) }})
	for r := 0; r <= 3; r++ {
		if _, err := eng.ExtendTo(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if len(snaps) != 4 {
		t.Fatalf("observer called %d times, want 4", len(snaps))
	}
	for i, s := range snaps {
		if s.Horizon != i {
			t.Fatalf("snapshot %d: Horizon=%d", i, s.Horizon)
		}
		if s.Configs != 4*pow2(i) {
			t.Fatalf("snapshot %d: Configs=%d want %d", i, s.Configs, 4*pow2(i))
		}
		if s.Subtrees != engFrontierWant(i) {
			t.Fatalf("snapshot %d: Subtrees=%d", i, s.Subtrees)
		}
	}
	// Views interned grows monotonically and NewViews sums to the total.
	total := 0
	for _, s := range snaps {
		total += s.NewViews
	}
	if total != snaps[len(snaps)-1].ViewsInterned {
		t.Fatalf("NewViews sum %d != final ViewsInterned %d", total, snaps[len(snaps)-1].ViewsInterned)
	}
}

// engFrontierWant: binStepper admits every history, so the frontier at
// horizon r is 4·2^r nodes.
func engFrontierWant(r int) int { return int(4 * pow2(r)) }

func TestEngineObserverOnRun(t *testing.T) {
	var got []Stats
	res, _, err := RunChecked(context.Background(), binStepper{}, 3,
		Options{Observer: func(s Stats) { got = append(got, s) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("observer called %d times, want 1", len(got))
	}
	s := got[0]
	if s.Horizon != 3 || s.Rounds != 3 || s.Configs != res.Configs || s.Vertices != res.Vertices {
		t.Fatalf("run stats %+v vs result %+v", s, res)
	}
	if s.Subtrees != engFrontierWant(3) {
		t.Fatalf("run stats missing frontier info: %+v", s)
	}
	if s.WorkerForks != 0 || s.Absorbed != 0 {
		t.Fatalf("deprecated fork gauges must stay zero: %+v", s)
	}
}

func TestEngineExtendCancelIsRetryable(t *testing.T) {
	eng := NewEngine(binStepper{}, Options{})
	if _, err := eng.ExtendTo(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Extend(ctx); err == nil {
		t.Fatal("cancelled Extend returned no error")
	}
	if eng.Horizon() != 2 {
		t.Fatalf("cancelled Extend moved the horizon to %d", eng.Horizon())
	}
	// The same call succeeds with a live context and agrees with Run.
	got, err := eng.Extend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := run(t, binStepper{}, 3, Options{})
	if got != want {
		t.Fatalf("retried Extend %+v != Run %+v", got, want)
	}
}

func TestEngineExtendStepperPanicPoisons(t *testing.T) {
	eng := NewEngine(panicStepper{}, Options{})
	if _, err := eng.ExtendTo(context.Background(), 1); err != nil {
		t.Fatalf("horizon 1 should not panic yet: %v", err)
	}
	_, err := eng.Extend(context.Background())
	if err == nil || !strings.Contains(err.Error(), "stepper exploded") {
		t.Fatalf("want stepper panic error, got %v", err)
	}
	if _, err2 := eng.Extend(context.Background()); err2 == nil {
		t.Fatal("poisoned engine accepted another Extend")
	}
}
