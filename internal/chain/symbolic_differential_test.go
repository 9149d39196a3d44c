package chain

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fullinfo"
	"repro/internal/omission"
	"repro/internal/scheme"
)

// analyzeBackend runs the fixed-horizon analysis with an explicit
// backend selection.
func analyzeBackend(t *testing.T, s *scheme.Scheme, r int, b fullinfo.BackendMode) Report {
	t.Helper()
	rep, err := Analyze(context.Background(), Request{
		Scheme: s, Horizon: r,
		Engine: &fullinfo.Options{Backend: b},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSymbolicMatchesEnumerateAllSchemes is the tentpole differential:
// on every named scheme — letter-uniform DFAs the interval walk carries
// forever (R1, Fair), fragmenting ones that fall back (TW, S1, K*), and
// Σ schemes the backend refuses (S2, FairSigma) — the symbolic,
// enumerating, and sequential analyses must agree field for field.
func TestSymbolicMatchesEnumerateAllSchemes(t *testing.T) {
	for _, name := range scheme.Names() {
		s, err := scheme.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r <= 5; r++ {
			want := analyzeSequential(s, r)
			enum := analyzeBackend(t, s, r, fullinfo.BackendEnumerate)
			sym := analyzeBackend(t, s, r, fullinfo.BackendSymbolic)
			if enum.Analysis != want {
				t.Errorf("%s r=%d: enumerate %+v != sequential %+v", name, r, enum.Analysis, want)
			}
			if sym.Analysis != want {
				t.Errorf("%s r=%d: symbolic %+v != sequential %+v", name, r, sym.Analysis, want)
			}
			if sym.Found != enum.Found {
				t.Errorf("%s r=%d: symbolic Found=%v enumerate Found=%v", name, r, sym.Found, enum.Found)
			}
		}
	}
}

// TestSymbolicMinRoundsMatches pins the MinRounds search across
// backends on every named scheme: same found horizon, same verdict.
func TestSymbolicMinRoundsMatches(t *testing.T) {
	for _, name := range scheme.Names() {
		s, err := scheme.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var reps [2]Report
		for i, b := range []fullinfo.BackendMode{fullinfo.BackendEnumerate, fullinfo.BackendSymbolic} {
			rep, err := Analyze(context.Background(), Request{
				Scheme: s, Horizon: 6, MinRounds: true, VerdictOnly: true,
				Engine: &fullinfo.Options{Backend: b},
			})
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = rep
		}
		if reps[0].Found != reps[1].Found || reps[0].Rounds != reps[1].Rounds {
			t.Errorf("%s: enumerate (found=%v r=%d) != symbolic (found=%v r=%d)",
				name, reps[0].Found, reps[0].Rounds, reps[1].Found, reps[1].Rounds)
		}
	}
}

// TestDeprecatedSearchMatchesBackends: a MinRounds search with the
// default (auto) backend selection, as the facade's Analyze runs it,
// must coincide with both explicit backends.
func TestDeprecatedSearchMatchesBackends(t *testing.T) {
	for _, name := range scheme.Names() {
		s, err := scheme.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := minRounds(t, s, 6)
		for _, b := range []fullinfo.BackendMode{fullinfo.BackendEnumerate, fullinfo.BackendSymbolic} {
			rep := analyze(t, Request{
				Scheme: s, Horizon: 6, MinRounds: true, VerdictOnly: true,
				Engine: &fullinfo.Options{Backend: b},
			})
			if rep.Found != ok || (ok && rep.Rounds != r) {
				t.Errorf("%s backend %v: (found=%v r=%d) != auto (%v,%d)",
					name, b, rep.Found, rep.Rounds, ok, r)
			}
		}
	}
}

// TestSymbolicHorizonBeyondEnumeration is the headline capability and
// the overflow satellite in one: R1 at horizon 45 has 4·3^45 ≈ 1.2e22
// configurations — no enumeration finishes — yet the symbolic analysis
// answers instantly, saturating Configs and carrying the exact count.
func TestSymbolicHorizonBeyondEnumeration(t *testing.T) {
	s, err := scheme.ByName("R1")
	if err != nil {
		t.Fatal(err)
	}
	rep := analyzeBackend(t, s, 45, fullinfo.BackendSymbolic)
	if rep.Solvable {
		t.Fatal("R1 solvable at horizon 45 — contradicts the Coordinated Attack impossibility")
	}
	if rep.Configs != math.MaxInt {
		t.Fatalf("Configs = %d, want saturated MaxInt", rep.Configs)
	}
	want := omission.Pow3(45)
	want.Lsh(want, 2)
	if rep.ConfigsExact == nil || rep.ConfigsExact.Cmp(want) != 0 {
		t.Fatalf("ConfigsExact = %v, want 4·3^45 = %v", rep.ConfigsExact, want)
	}
	if rep.Stats.SymbolicRounds == 0 || rep.Stats.SymbolicFallbacks != 0 {
		t.Fatalf("R1 should stay symbolic: %+v", rep.Stats)
	}

	// A MinRounds sweep across 41 horizons — each beyond enumeration by
	// its end — completes without finding a solvable one.
	deep, err := Analyze(context.Background(), Request{
		Scheme: s, Horizon: 41, MinRounds: true, VerdictOnly: true,
		Engine: &fullinfo.Options{Backend: fullinfo.BackendSymbolic},
	})
	if err != nil {
		t.Fatal(err)
	}
	if deep.Found {
		t.Fatalf("R1 MinRounds found %d", deep.Rounds)
	}
}

// FuzzSymbolicVsReference is the backend oracle over random DBA
// schemes: whatever automaton Random produces, the symbolic analysis
// (with its fallback) must equal the sequential reference.
func FuzzSymbolicVsReference(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(4))
	f.Add(uint64(42), uint8(3), uint8(5))
	f.Add(uint64(0xfe5a7), uint8(4), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, states, horizon uint8) {
		s := scheme.Random(rand.New(rand.NewSource(int64(seed))), int(states%5)+1)
		r := int(horizon % 7)
		want := analyzeSequential(s, r)
		for _, b := range []fullinfo.BackendMode{fullinfo.BackendSymbolic, fullinfo.BackendAuto} {
			rep, err := Analyze(context.Background(), Request{
				Scheme: s, Horizon: r,
				Engine: &fullinfo.Options{Backend: b},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Analysis != want {
				t.Fatalf("scheme %s r=%d backend %v: %+v != sequential %+v",
					s.Name(), r, b, rep.Analysis, want)
			}
		}
	})
}

// TestSymbolicS1Horizon2IntervalRuns pins an interval gauge that
// capserved's /v1/stats aggregate cannot show: under the default
// backend, S1 at horizon 2 runs both rounds symbolically and covers its
// 7 admissible indices {0,1,3,4,5,7,8} with 3 maximal runs after the
// cross-state merge.
func TestSymbolicS1Horizon2IntervalRuns(t *testing.T) {
	var last fullinfo.Stats
	runs := 0
	rep, err := Analyze(context.Background(), Request{
		Scheme:   scheme.S1(),
		Horizon:  2,
		Observer: func(st fullinfo.Stats) { last = st; runs++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Solvable {
		t.Fatal("S1 at horizon 2 should be solvable")
	}
	if runs != 1 {
		t.Fatalf("observer fired %d times, want 1", runs)
	}
	if last.SymbolicRounds != 2 || last.IntervalRuns != 3 {
		t.Fatalf("S1 h=2: SymbolicRounds=%d IntervalRuns=%d, want 2 and 3", last.SymbolicRounds, last.IntervalRuns)
	}
}
