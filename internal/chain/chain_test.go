package chain

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/classify"
	"repro/internal/omission"
	"repro/internal/scheme"
)

// analyze runs the unified entry point, failing the test on error.
func analyze(t *testing.T, req Request) Report {
	t.Helper()
	rep, err := Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// analyzeAt runs the unified entry point at one fixed horizon.
func analyzeAt(t *testing.T, s *scheme.Scheme, r int) Analysis {
	t.Helper()
	return analyze(t, Request{Scheme: s, Horizon: r}).Analysis
}

// solvableIn is the verdict-only fixed-horizon analysis.
func solvableIn(t *testing.T, s *scheme.Scheme, r int) bool {
	t.Helper()
	return analyze(t, Request{Scheme: s, Horizon: r, VerdictOnly: true}).Solvable
}

// minRounds is the verdict-only MinRounds search up to maxR.
func minRounds(t *testing.T, s *scheme.Scheme, maxR int) (int, bool) {
	t.Helper()
	rep := analyze(t, Request{Scheme: s, Horizon: maxR, MinRounds: true, VerdictOnly: true})
	return rep.Rounds, rep.Found
}

// TestChainStructure verifies Lemma III.4 / Corollary III.5 semantically:
// for every r the 3^r words of Γ^r form a single indistinguishability path
// in index order, and the blind process alternates with the index parity
// (black blind at even ind, white at odd).
func TestChainStructure(t *testing.T) {
	for r := 1; r <= 7; r++ {
		rep := VerifyChainStructure(r)
		if !rep.IsPath {
			t.Fatalf("r=%d: Γ^r is not an index-ordered path", r)
		}
		if rep.Words != int(omission.Pow3Int64(r)) {
			t.Fatalf("r=%d: %d words", r, rep.Words)
		}
		for k, whiteBlind := range rep.BlindProcess {
			if whiteBlind != (k%2 == 1) {
				t.Fatalf("r=%d k=%d: blind process %v, want white iff ind odd", r, k, whiteBlind)
			}
			// Agrees with the omission package's predicate.
			if whiteBlind != omission.IndistinguishableTo(omission.UnIndexInt64(r, int64(k))) {
				t.Fatalf("r=%d k=%d: disagrees with IndistinguishableTo", r, k)
			}
		}
	}
}

// TestGammaOmegaUnsolvableAllHorizons is the operational impossibility of
// the Coordinated Attack Problem for Γ^ω: no r-round algorithm exists for
// any r (the full configuration graph always connects unanimous-0 to
// unanimous-1).
func TestGammaOmegaUnsolvableAllHorizons(t *testing.T) {
	r1 := scheme.R1()
	for r := 0; r <= 6; r++ {
		an := analyzeAt(t, r1, r)
		if an.Solvable {
			t.Fatalf("Γ^ω solvable at horizon %d?!", r)
		}
		if an.MixedComponents == 0 {
			t.Fatalf("r=%d: expected a mixed component", r)
		}
		wantConfigs := 4 * int(omission.Pow3Int64(r))
		if an.Configs != wantConfigs {
			t.Fatalf("r=%d: %d configs, want %d", r, an.Configs, wantConfigs)
		}
	}
}

// TestNamedSchemesBoundedSolvability pins the horizon at which each
// environment becomes bounded-round solvable, matching Corollary III.14 /
// Proposition III.15 exactly.
func TestNamedSchemesBoundedSolvability(t *testing.T) {
	cases := []struct {
		s *scheme.Scheme
		p int // first solvable horizon; -1 = none ≤ 5
	}{
		{scheme.S0(), 1},
		{scheme.TWhite(), 1},
		{scheme.TBlack(), 1},
		{scheme.C1(), 2},
		{scheme.S1(), 2},
		{scheme.R1(), -1},
		{scheme.Fair(), -1},       // solvable, but not in bounded rounds
		{scheme.AlmostFair(), -1}, // likewise
	}
	for _, c := range cases {
		got, ok := minRounds(t, c.s, 5)
		if c.p < 0 {
			if ok {
				t.Errorf("%s: unexpectedly solvable at horizon %d", c.s.Name(), got)
			}
			continue
		}
		if !ok || got != c.p {
			t.Errorf("%s: first solvable horizon = %d (ok=%v), want %d", c.s.Name(), got, ok, c.p)
		}
		// Solvability is monotone in the horizon.
		for r := c.p; r <= c.p+2; r++ {
			if !solvableIn(t, c.s, r) {
				t.Errorf("%s: solvable at %d but not at %d", c.s.Name(), c.p, r)
			}
		}
	}
}

// TestCrossValidationWithClassifier is the THM-III8 experiment: on random
// ω-regular schemes, the automata-theoretic classifier and the exhaustive
// chain analysis must agree:
//
//	r-round solvable  ⟺  solvable ∧ MinRounds ≤ r (MinRounds finite).
func TestCrossValidationWithClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const maxR = 4
	for trial := 0; trial < 50; trial++ {
		s := scheme.Random(rng, 1+rng.Intn(4))
		res, err := classify.Classify(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for r := 0; r <= maxR; r++ {
			want := res.Solvable && res.MinRounds != classify.Unbounded && res.MinRounds <= r
			got := solvableIn(t, s, r)
			if got != want {
				t.Fatalf("%s at horizon %d: chain=%v classifier=%v (solvable=%v minRounds=%d)",
					s.Name(), r, got, want, res.Solvable, res.MinRounds)
			}
		}
	}
}

// TestPairRemovalHorizons: removing a special pair from Γ^ω yields a
// solvable scheme — but never a bounded-round one (its prefix language is
// still all of Γ*).
func TestPairRemovalHorizons(t *testing.T) {
	l := scheme.Minus("R1-pair", scheme.R1(),
		omission.MustScenario("w(b)"), omission.MustScenario(".(b)"))
	for r := 0; r <= 5; r++ {
		if solvableIn(t, l, r) {
			t.Fatalf("pair-removed scheme bounded-solvable at %d", r)
		}
	}
	res, err := classify.Classify(l)
	if err != nil || !res.Solvable || res.MinRounds != classify.Unbounded {
		t.Fatalf("pair-removed scheme: %+v, %v", res, err)
	}
}

func TestAnalyzeEmptyScheme(t *testing.T) {
	s := scheme.Minus("tiny", scheme.S0(), omission.MustScenario("(.)"))
	// S0 minus its only member is empty: vacuously solvable at every
	// horizon (no configurations at all).
	an := analyzeAt(t, s, 2)
	if !an.Solvable || an.Configs != 0 {
		t.Errorf("empty scheme analysis: %+v", an)
	}
}

func TestAnalysisComponentCounts(t *testing.T) {
	// S0 at horizon 1: configurations are ('.', inputs) for 4 inputs.
	// White's view contains black's input and vice versa: all views are
	// distinct, so 4 singleton components, none mixed.
	an := analyzeAt(t, scheme.S0(), 1)
	if an.Configs != 4 || an.Components != 4 || !an.Solvable {
		t.Errorf("S0 horizon 1: %+v", an)
	}
	// Horizon 0: nobody knows anything: the 4 configurations collapse into
	// one component via shared initial views.
	an = analyzeAt(t, scheme.S0(), 0)
	if an.Solvable || an.Components != 1 {
		t.Errorf("S0 horizon 0: %+v", an)
	}
}

// TestProtocolComplex ties the analysis to the topological picture of the
// paper's conclusion: for Γ^ω the complex is a single connected component
// at every horizon (hence unsolvable); for S1 at its solvable horizon the
// complex splits.
func TestProtocolComplex(t *testing.T) {
	for r := 0; r <= 5; r++ {
		c := ProtocolComplex(scheme.R1(), r)
		if !c.Connected {
			t.Fatalf("Γ^ω complex disconnected at r=%d: %+v", r, c)
		}
		// Edges = configurations = 4·3^r; vertices = distinct local views.
		if c.Edges != 4*int(omission.Pow3Int64(r)) {
			t.Fatalf("r=%d: %d edges", r, c.Edges)
		}
	}
	// S1 at horizon 2 is solvable, so the complex has a component
	// structure separating unanimous inputs — in particular > 1 component.
	c := ProtocolComplex(scheme.S1(), 2)
	if c.Connected {
		t.Fatalf("S1 complex connected at its solvable horizon: %+v", c)
	}
	// At horizon 0 everything collapses to a path connecting all inputs.
	c = ProtocolComplex(scheme.S1(), 0)
	if !c.Connected || c.Vertices != 4 || c.Edges != 4 {
		t.Fatalf("horizon-0 complex: %+v", c)
	}
}

// TestLynchWeakValidity reproduces the textbook ([Lyn96]) impossibility
// the paper's Related Works contrasts with: even under the weaker
// validity (unanimous 0 ⇒ 0; unanimous 1 AND no losses ⇒ 1), the
// Coordinated Attack Problem stays unsolvable on Γ^ω at every horizon —
// while genuinely easier than uniform validity on schemes where the
// difference matters.
func TestLynchWeakValidity(t *testing.T) {
	for r := 0; r <= 5; r++ {
		if SolvableLynchInRounds(scheme.R1(), r) {
			t.Fatalf("weak-validity consensus solvable on Γ^ω at r=%d", r)
		}
	}
	// Weak validity is implied by strong validity: wherever the strong
	// problem is solvable, the weak one is too.
	for _, s := range []*scheme.Scheme{scheme.S0(), scheme.S1(), scheme.C1()} {
		strong, _ := minRounds(t, s, 4)
		if !SolvableLynchInRounds(s, strong) {
			t.Fatalf("%s: weak validity harder than strong?!", s.Name())
		}
	}
	// And strictly easier on a witness scheme: under TW ('w' losses only),
	// weak validity is solvable in 0 rounds?? No — agreement still needs a
	// round. Check it becomes solvable no later than the strong variant
	// and strictly earlier somewhere: C1 strong p=2; weak:
	weakP := -1
	for r := 0; r <= 3; r++ {
		if SolvableLynchInRounds(scheme.C1(), r) {
			weakP = r
			break
		}
	}
	strongP, _ := minRounds(t, scheme.C1(), 4)
	if weakP < 0 || weakP > strongP {
		t.Fatalf("C1: weak p=%d vs strong p=%d", weakP, strongP)
	}
	t.Logf("C1: weak-validity first horizon %d, strong %d", weakP, strongP)
}
