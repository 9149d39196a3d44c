package nchain

import (
	"context"
	"testing"
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

// analyzeKn runs the unified entry point for K_n at one fixed horizon.
func analyzeKn(t *testing.T, n, f, r int) Analysis {
	t.Helper()
	return analyze(t, Request{N: n, F: f, Horizon: r}).Analysis
}

// minRounds runs the verdict-only MinRounds search for req, up to
// req.Horizon.
func minRounds(t *testing.T, req Request) (int, bool) {
	t.Helper()
	req.MinRounds, req.VerdictOnly = true, true
	rep := analyze(t, req)
	return rep.Rounds, rep.Found
}

func TestLossPatterns(t *testing.T) {
	// K_3 has 6 directed edges; with f=1 there are 1+6 patterns.
	ps := PatternsUpTo(3, 1)
	if len(ps) != 7 {
		t.Fatalf("|patterns(3,1)| = %d, want 7", len(ps))
	}
	if len(PatternsUpTo(3, 2)) != 1+6+15 {
		t.Fatal("patterns(3,2)")
	}
	if len(PatternsUpTo(3, 0)) != 1 {
		t.Fatal("patterns(3,0)")
	}
	// Dropped/Count round-trip.
	var p LossPattern
	p |= 1 << edgeIndex(3, 0, 2)
	p |= 1 << edgeIndex(3, 2, 1)
	if !p.Dropped(3, 0, 2) || !p.Dropped(3, 2, 1) || p.Dropped(3, 1, 0) {
		t.Error("Dropped")
	}
	if p.Count() != 2 {
		t.Error("Count")
	}
	// Edge indexing is a bijection onto 0..n(n−1)−1.
	seen := map[int]bool{}
	for from := 0; from < 3; from++ {
		for to := 0; to < 3; to++ {
			if from == to {
				continue
			}
			idx := edgeIndex(3, from, to)
			if idx < 0 || idx >= 6 || seen[idx] {
				t.Fatalf("edgeIndex(3,%d,%d) = %d", from, to, idx)
			}
			seen[idx] = true
		}
	}
	// The combinatorial enumeration handles wide-but-sparse instances
	// the historical 2^E sweep could not: K_6 has 30 directed edges.
	if got := len(PatternsUpTo(6, 1)); got != 31 {
		t.Fatalf("|patterns(6,1)| = %d, want 31", got)
	}
	// Only the uint64 mask representation itself still panics (K_9 has
	// 72 directed edges); Analyze guards with errTooLarge long before.
	defer func() {
		if recover() == nil {
			t.Error("patterns past the 64-bit mask must panic")
		}
	}()
	PatternsUpTo(9, 1)
}

// TestTwoProcessesMatchesChain: n=2 must reproduce the two-process
// results — f=0 ⇒ solvable at round 1 (S0); f=1 ⇒ never (Γ^ω... here O_1
// on K_2 includes the double omission? No: f=1 allows at most one loss
// per round = exactly the Γ^ω scheme R1).
func TestTwoProcessesMatchesChain(t *testing.T) {
	if p, ok := minRounds(t, Request{N: 2, F: 0, Horizon: 3}); !ok || p != 1 {
		t.Fatalf("n=2 f=0: %d", p)
	}
	for r := 0; r <= 4; r++ {
		if analyzeKn(t, 2, 1, r).Solvable {
			t.Fatalf("n=2 f=1 solvable at r=%d — contradicts the Coordinated Attack impossibility", r)
		}
	}
}

// TestThresholdK3: Theorem V.1 on K_3 — f=1 < c(K_3)=2 solvable (at the
// flooding horizon n−1 = 2), f=2 unsolvable at every checked horizon.
func TestThresholdK3(t *testing.T) {
	if !Threshold(3, 1) || Threshold(3, 2) {
		t.Error("threshold predicate")
	}
	// f=0: one clean exchange suffices.
	if p, ok := minRounds(t, Request{N: 3, F: 0, Horizon: 2}); !ok || p != 1 {
		t.Fatalf("n=3 f=0: first horizon %d", p)
	}
	// f=1: solvable, and not in a single round.
	p, ok := minRounds(t, Request{N: 3, F: 1, Horizon: 3})
	if !ok {
		t.Fatal("n=3 f=1 should be bounded-round solvable")
	}
	if p != 2 {
		t.Fatalf("n=3 f=1: first horizon %d, want 2 (= n−1, the flooding bound)", p)
	}
	// f=2 = c(K_3): unsolvable.
	for r := 0; r <= 3; r++ {
		if analyzeKn(t, 3, 2, r).Solvable {
			t.Fatalf("n=3 f=2 solvable at r=%d", r)
		}
	}
}

// TestK4LowBudget: n=4, f=1 — the analysis finds the exact horizon
// (flooding needs n−1 = 3, but with only one loss per round full
// dissemination completes in 2).
func TestK4LowBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4 enumeration is heavy")
	}
	p, ok := minRounds(t, Request{N: 4, F: 1, Horizon: 2})
	if !ok || p != 2 {
		t.Fatalf("n=4 f=1: first horizon %d (ok=%v), want 2", p, ok)
	}
}

func TestAnalysisString(t *testing.T) {
	if analyzeKn(t, 2, 0, 1).String() == "" {
		t.Error("empty analysis string")
	}
}
