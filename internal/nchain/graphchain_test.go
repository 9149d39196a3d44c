package nchain

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
)

// TestGraphAnalyzeMatchesComplete: on complete graphs the generalized
// analysis must agree with the K_n-specific one.
func TestGraphAnalyzeMatchesComplete(t *testing.T) {
	for n := 2; n <= 3; n++ {
		for f := 0; f <= 2; f++ {
			for r := 0; r <= 2; r++ {
				a := analyzeKn(t, n, f, r)
				b := analyze(t, Request{Graph: graph.Complete(n), F: f, Horizon: r}).Analysis
				if a.Solvable != b.Solvable || a.Configs != b.Configs {
					t.Fatalf("n=%d f=%d r=%d: K_n-specific %v vs graph-general %v", n, f, r, a, b)
				}
			}
		}
	}
}

// TestTheoremV1Exhaustive is the strongest Theorem V.1 validation in the
// repository: on small graphs, the full-information analysis quantifies
// over ALL algorithms — for f < c(G) some horizon is solvable; for
// f = c(G) no horizon up to the bound is (and by Theorem V.1, none ever).
func TestTheoremV1Exhaustive(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		maxR int
	}{
		{graph.Path(3), 3},  // c = 1
		{graph.Cycle(3), 3}, // c = 2
		{graph.Path(4), 3},  // c = 1
		{graph.Star(4), 3},  // c = 1
		{graph.Cycle(4), 2}, // c = 2 (keep horizons small: 4 nodes)
	}
	for _, c := range cases {
		conn := c.g.EdgeConnectivity()
		// Below the threshold: solvable at some horizon ≤ n−1.
		for f := 0; f < conn; f++ {
			p, ok := minRounds(t, Request{Graph: c.g, F: f, Horizon: c.g.N() - 1})
			if !ok {
				t.Fatalf("%s f=%d: should be solvable by horizon n−1=%d (Thm V.1 possibility)", c.g.Name(), f, c.g.N()-1)
			}
			if p > c.g.N()-1 {
				t.Fatalf("%s f=%d: horizon %d exceeds the flooding bound", c.g.Name(), f, p)
			}
			t.Logf("%s f=%d: first solvable horizon %d (n−1 = %d)", c.g.Name(), f, p, c.g.N()-1)
		}
		// At the threshold: no algorithm at any checked horizon.
		for r := 0; r <= c.maxR; r++ {
			if analyze(t, Request{Graph: c.g, F: conn, Horizon: r}).Solvable {
				t.Fatalf("%s f=c(G)=%d solvable at horizon %d — contradicts Theorem V.1", c.g.Name(), conn, r)
			}
		}
	}
}

// TestGraphHorizonsBeatFlooding documents where the exact horizon is
// strictly below the flooding bound n−1.
func TestGraphHorizonsBeatFlooding(t *testing.T) {
	// Star(4): c=1, f=0 — the hub hears everyone in round 1, leaves learn
	// the decision in round 2 < n−1 = 3.
	p, ok := minRounds(t, Request{Graph: graph.Star(4), F: 0, Horizon: 3})
	if !ok {
		t.Fatal("star f=0 solvable")
	}
	if p >= 3 {
		t.Fatalf("star-4 f=0: horizon %d, expected < n−1", p)
	}
	t.Logf("star-4 f=0: exact horizon %d (flooding bound 3)", p)
}

// TestGraphPatternsPanicOnLarge: a graph too large for the loss-pattern
// builder is refused up front with errTooLarge, before anything panics.
func TestGraphPatternsPanicOnLarge(t *testing.T) {
	_, err := Analyze(context.Background(), Request{Graph: graph.Complete(6), F: 1, Horizon: 1})
	if !errors.Is(err, errTooLarge) {
		t.Fatalf("K_6: err=%v, want errTooLarge", err)
	}
}
