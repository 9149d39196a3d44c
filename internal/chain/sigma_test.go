package chain

import (
	"testing"

	"repro/internal/buchi"
	"repro/internal/scheme"
)

// TestSigmaSchemes exercises the bounded-horizon analysis beyond Γ —
// double-omission schemes are outside Theorem III.8's regime, but the
// full-information analysis decides their bounded-round solvability.
func TestSigmaSchemes(t *testing.T) {
	// Σ^ω: never solvable at any horizon.
	for r := 0; r <= 4; r++ {
		if solvableIn(t, scheme.S2(), r) {
			t.Fatalf("Σ^ω solvable at horizon %d", r)
		}
	}
	// The all-or-nothing channel with a blackout budget: solvable at
	// exactly k+1 (every length-(k+1) word contains a clean round, which
	// is common knowledge).
	for k := 0; k <= 3; k++ {
		s := scheme.BlackoutBudget(k)
		got, ok := minRounds(t, s, k+3)
		if !ok || got != k+1 {
			t.Fatalf("BX%d: first solvable horizon %d (ok=%v), want %d", k, got, ok, k+1)
		}
	}
	// The unrestricted all-or-nothing channel {., x}^ω: never solvable
	// (the adversary may black out forever).
	allOrNothing := scheme.MustNew("dotx", "{., x}^ω", onlyDotX())
	for r := 0; r <= 4; r++ {
		if solvableIn(t, allOrNothing, r) {
			t.Fatalf("{., x}^ω solvable at horizon %d", r)
		}
	}
	// Σ with at most k lost messages (x costs 2): solvable at k+1 — the
	// f+1 bound extends to the double-omission metric. (With x available
	// but the budget counting it twice, the worst chain is still k single
	// losses... verify the exact horizon experimentally.)
	for k := 0; k <= 2; k++ {
		s := scheme.SigmaAtMostKLostMessages(k)
		got, ok := minRounds(t, s, k+3)
		if !ok || got != k+1 {
			t.Fatalf("ΣK%d: first solvable horizon %d (ok=%v), want %d", k, got, ok, k+1)
		}
	}
	// Γ-scheme with the same budget matches (cross-check against the
	// classifier's Corollary III.14 bound).
	for k := 0; k <= 2; k++ {
		got, ok := minRounds(t, scheme.AtMostKLosses(k), k+3)
		if !ok || got != k+1 {
			t.Fatalf("K%d: horizon %d", k, got)
		}
	}
}

// onlyDotX builds the Σ-DBA for {., x}^ω.
func onlyDotX() *buchi.DBA {
	return &buchi.DBA{
		Alphabet: 4,
		Start:    0,
		Delta: [][]buchi.State{
			{0, 1, 1, 0},
			{1, 1, 1, 1},
		},
		Accepting: []bool{true, false},
	}
}
