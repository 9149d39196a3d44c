package nchain

import (
	"context"
	"testing"

	"repro/internal/fullinfo"
	"repro/internal/graph"
)

// nfCase bounds the horizon per (n, f) so the full suite stays fast
// enough to run under -race: the configuration space is
// (#patterns)^r · 2^n.
var nfCases = []struct{ n, f, maxR int }{
	{2, 0, 3}, {2, 1, 3},
	{3, 0, 2}, {3, 1, 2}, {3, 2, 2},
	{4, 0, 2}, {4, 1, 2}, {4, 2, 1}, {4, 3, 1},
	// K_2 at f=1 runs deep: its horizon-8 frontier holds 4·3^8 nodes.
	{2, 1, 8},
}

// TestEngineMatchesSequential pins the engine against the sequential
// reference for K_n over n ∈ {2,3,4}, f ∈ {0..n-1}: identical Analysis
// values.
func TestEngineMatchesSequential(t *testing.T) {
	for _, tc := range nfCases {
		for r := 0; r <= tc.maxR; r++ {
			want := analyzeSequential(tc.n, tc.f, r)
			got := analyze(t, Request{N: tc.n, F: tc.f, Horizon: r}).Analysis
			if got != want {
				t.Errorf("n=%d f=%d r=%d: engine %+v != sequential %+v", tc.n, tc.f, r, got, want)
			}
			if got := analyze(t, Request{N: tc.n, F: tc.f, Horizon: r, VerdictOnly: true}).Solvable; got != want.Solvable {
				t.Errorf("n=%d f=%d r=%d: verdict-only Solvable=%v want %v",
					tc.n, tc.f, r, got, want.Solvable)
			}
		}
	}
}

// graphCases are the arbitrary-topology grid points: path, cycle, and
// star graphs at small horizons.
var graphCases = []struct {
	name string
	g    *graph.Graph
	f, r int
}{
	{"path-3", graph.Path(3), 0, 2},
	{"path-3", graph.Path(3), 1, 2},
	{"cycle-4", graph.Cycle(4), 1, 1},
	{"star-4", graph.Star(4), 0, 2},
	{"star-4", graph.Star(4), 1, 1},
}

// TestGraphEngineMatchesSequential does the same for arbitrary
// topologies.
func TestGraphEngineMatchesSequential(t *testing.T) {
	for _, tc := range graphCases {
		want := graphAnalyzeSequential(tc.g, tc.f, tc.r)
		got := analyze(t, Request{Graph: tc.g, F: tc.f, Horizon: tc.r}).Analysis
		if got != want {
			t.Errorf("%s f=%d r=%d: engine %+v != sequential %+v", tc.name, tc.f, tc.r, got, want)
		}
		if got := analyze(t, Request{Graph: tc.g, F: tc.f, Horizon: tc.r, VerdictOnly: true}).Solvable; got != want.Solvable {
			t.Errorf("%s f=%d r=%d: verdict-only Solvable=%v want %v",
				tc.name, tc.f, tc.r, got, want.Solvable)
		}
	}
}

// TestMinRoundsMatchesThreshold re-pins Theorem V.1 on the early-exit
// search path: on K_n, (n, f) is eventually solvable iff f < n−1, and
// flooding's n−1 rounds are known to suffice.
func TestMinRoundsMatchesThreshold(t *testing.T) {
	for n := 2; n <= 3; n++ {
		for f := 0; f < n; f++ {
			r, ok := minRounds(t, Request{N: n, F: f, Horizon: n})
			if ok != Threshold(n, f) {
				t.Errorf("n=%d f=%d: MinRounds ok=%v, Threshold=%v", n, f, ok, Threshold(n, f))
			}
			if ok && r > n-1 {
				t.Errorf("n=%d f=%d: MinRounds=%d exceeds flooding bound %d", n, f, r, n-1)
			}
		}
	}
}

// TestIncrementalExtendMatchesRestart pins the incremental engine on
// the (n, f, r) grid: one Engine extended round by round must report
// exactly the analysis of the sequential reference, rebuilt from
// scratch at every horizon.
func TestIncrementalExtendMatchesRestart(t *testing.T) {
	ctx := context.Background()
	for _, tc := range nfCases {
		eng := fullinfo.NewEngine(knStepper(tc.n, tc.f), fullinfo.Options{})
		for r := 0; r <= tc.maxR; r++ {
			got, err := eng.ExtendTo(ctx, r)
			if err != nil {
				t.Fatalf("n=%d f=%d r=%d: %v", tc.n, tc.f, r, err)
			}
			if an, want := analysisOf(tc.n, tc.f, r, got), analyzeSequential(tc.n, tc.f, r); an != want {
				t.Errorf("n=%d f=%d r=%d: incremental %+v != sequential %+v", tc.n, tc.f, r, an, want)
			}
		}
	}
}

// TestGraphIncrementalExtendMatchesRestart does the same on arbitrary
// topologies.
func TestGraphIncrementalExtendMatchesRestart(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		g    *graph.Graph
		f    int
		maxR int
	}{
		{"path-3", graph.Path(3), 1, 2},
		{"cycle-4", graph.Cycle(4), 1, 1},
		{"star-4", graph.Star(4), 0, 2},
	}
	for _, tc := range cases {
		eng := fullinfo.NewEngine(graphStepper(tc.g, tc.f), fullinfo.Options{})
		for r := 0; r <= tc.maxR; r++ {
			got, err := eng.ExtendTo(ctx, r)
			if err != nil {
				t.Fatalf("%s f=%d r=%d: %v", tc.name, tc.f, r, err)
			}
			if an, want := analysisOf(tc.g.N(), tc.f, r, got), graphAnalyzeSequential(tc.g, tc.f, r); an != want {
				t.Errorf("%s f=%d r=%d: incremental %+v != sequential %+v", tc.name, tc.f, r, an, want)
			}
		}
	}
}

// TestAnalyzeMinRoundsMatchesRestartSearch drives the MinRounds mode of
// the unified entry point against the naive restart search over the
// sequential reference, for both K_n and graph requests.
func TestAnalyzeMinRoundsMatchesRestartSearch(t *testing.T) {
	ctx := context.Background()
	for _, tc := range nfCases {
		wantR, wantOK := 0, false
		for r := 0; r <= tc.maxR; r++ {
			if analyzeSequential(tc.n, tc.f, r).Solvable {
				wantR, wantOK = r, true
				break
			}
		}
		rep, err := Analyze(ctx, Request{N: tc.n, F: tc.f, Horizon: tc.maxR, MinRounds: true, VerdictOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Found != wantOK || (wantOK && rep.Rounds != wantR) {
			t.Errorf("n=%d f=%d: MinRounds found=%v rounds=%d, want found=%v rounds=%d",
				tc.n, tc.f, rep.Found, rep.Rounds, wantOK, wantR)
		}
		if wantOK {
			exact := analyzeSequential(tc.n, tc.f, rep.Rounds)
			if rep.Analysis != exact {
				t.Errorf("n=%d f=%d: found-horizon analysis %+v != sequential %+v",
					tc.n, tc.f, rep.Analysis, exact)
			}
		}
	}
	star := graph.Star(4)
	wantR, wantOK := 0, false
	for r := 0; r <= 3; r++ {
		if graphAnalyzeSequential(star, 0, r).Solvable {
			wantR, wantOK = r, true
			break
		}
	}
	rep, err := Analyze(ctx, Request{Graph: star, F: 0, Horizon: 3, MinRounds: true, VerdictOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Found != wantOK || rep.Rounds != wantR {
		t.Errorf("star-4 f=0: MinRounds %+v, want found=%v at %d", rep.Analysis, wantOK, wantR)
	}
}
