package chain

import (
	"context"
	"testing"

	"repro/internal/fullinfo"
	"repro/internal/scheme"
)

// TestEngineMatchesSequential pins the tentpole guarantee: the engine
// returns an Analysis identical — field for field — to the sequential
// materialize-then-union reference, for every named scheme at horizons
// 1..5.
func TestEngineMatchesSequential(t *testing.T) {
	for _, name := range scheme.Names() {
		s, err := scheme.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= 5; r++ {
			want := analyzeSequential(s, r)
			got := analyze(t, Request{Scheme: s, Horizon: r}).Analysis
			if got != want {
				t.Errorf("%s r=%d: engine %+v != sequential %+v", name, r, got, want)
			}
			if got := solvableIn(t, s, r); got != want.Solvable {
				t.Errorf("%s r=%d: verdict-only Solvable=%v, sequential Solvable=%v",
					name, r, got, want.Solvable)
			}
		}
	}
}

// TestIncrementalExtendMatchesRestart pins the incremental engine: one
// Engine extended round by round must report exactly the analysis of
// the sequential reference, rebuilt from scratch at every horizon, for
// every named scheme.
func TestIncrementalExtendMatchesRestart(t *testing.T) {
	ctx := context.Background()
	for _, name := range scheme.Names() {
		s, err := scheme.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng := fullinfo.NewEngine(newChainStepper(s), fullinfo.Options{})
		for r := 0; r <= 5; r++ {
			got, err := eng.ExtendTo(ctx, r)
			if err != nil {
				t.Fatalf("%s r=%d: %v", name, r, err)
			}
			if an, want := analysisOf(r, got), analyzeSequential(s, r); an != want {
				t.Errorf("%s r=%d: incremental %+v != sequential %+v", name, r, an, want)
			}
		}
	}
}

// TestAnalyzeMinRoundsMatchesRestartSearch pins the MinRounds mode of
// the unified entry point (incremental under the hood) against the
// naive restart-per-horizon search over the sequential reference.
func TestAnalyzeMinRoundsMatchesRestartSearch(t *testing.T) {
	ctx := context.Background()
	const maxR = 5
	for _, name := range scheme.Names() {
		s, err := scheme.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wantR, wantOK := 0, false
		for r := 0; r <= maxR; r++ {
			if analyzeSequential(s, r).Solvable {
				wantR, wantOK = r, true
				break
			}
		}
		rep, err := Analyze(ctx, Request{Scheme: s, Horizon: maxR, MinRounds: true, VerdictOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Found != wantOK || (wantOK && rep.Rounds != wantR) {
			t.Errorf("%s: MinRounds found=%v rounds=%d, want found=%v rounds=%d",
				name, rep.Found, rep.Rounds, wantOK, wantR)
		}
		if wantOK {
			// The found horizon's scan never early-exits (no mixed
			// component exists there), so its counts must be exact.
			exact := analyzeSequential(s, rep.Rounds)
			if rep.Analysis != exact {
				t.Errorf("%s: found-horizon analysis %+v != sequential %+v", name, rep.Analysis, exact)
			}
		}
		// Unsolvable horizons contribute no counts, so only a found
		// horizon's configurations show in the aggregate.
		if rep.Stats.WallNanos == 0 || (wantOK && rep.Stats.Configs < int64(rep.Configs)) {
			t.Errorf("%s: MinRounds stats not populated: %+v", name, rep.Stats)
		}
	}
}

// TestAnalyzeSequentialModeMatchesEngine pins the public entry point
// against the sequential reference walk.
func TestAnalyzeSequentialModeMatchesEngine(t *testing.T) {
	ctx := context.Background()
	for _, name := range scheme.Names() {
		s, err := scheme.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r <= 4; r++ {
			seq := analyzeSequential(s, r)
			eng, err := Analyze(ctx, Request{Scheme: s, Horizon: r})
			if err != nil {
				t.Fatal(err)
			}
			if seq != eng.Analysis {
				t.Errorf("%s r=%d: sequential %+v != engine %+v", name, r, seq, eng.Analysis)
			}
		}
	}
}

// TestEngineEarlyExitVerdicts: with early exit the verdict must still
// match the reference on both solvable and unsolvable instances, and an
// unsolvable horizon reports its verdict alone.
func TestEngineEarlyExitVerdicts(t *testing.T) {
	for _, name := range scheme.Names() {
		s, err := scheme.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= 4; r++ {
			want := analyzeSequential(s, r)
			got := analyze(t, Request{Scheme: s, Horizon: r, VerdictOnly: true}).Analysis
			if got.Solvable != want.Solvable {
				t.Errorf("%s r=%d: early-exit Solvable=%v want %v", name, r, got.Solvable, want.Solvable)
			}
			if !want.Solvable && got != (Analysis{Rounds: r}) {
				t.Errorf("%s r=%d: unsolvable early-exit horizon reported counts: %+v", name, r, got)
			}
		}
	}
}

// TestProtocolComplexMatchesEnumeration cross-checks the engine-backed
// ProtocolComplex against a direct recount over the legacy enumeration.
func TestProtocolComplexMatchesEnumeration(t *testing.T) {
	for _, name := range []string{"S0", "S1", "R1", "K2"} {
		s, err := scheme.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= 4; r++ {
			configs := enumerate(s, r)
			type vtx struct{ proc, view int }
			index := map[vtx]int{}
			idOf := func(v vtx) int {
				if id, ok := index[v]; ok {
					return id
				}
				id := len(index)
				index[v] = id
				return id
			}
			var edges [][2]int
			for _, c := range configs {
				edges = append(edges, [2]int{idOf(vtx{0, c.viewW}), idOf(vtx{1, c.viewB})})
			}
			uf := newUnionFind(len(index))
			for _, e := range edges {
				uf.union(e[0], e[1])
			}
			comps := map[int]bool{}
			for i := 0; i < len(index); i++ {
				comps[uf.find(i)] = true
			}
			got := ProtocolComplex(s, r)
			if got.Vertices != len(index) || got.Edges != len(edges) || got.Components != len(comps) {
				t.Errorf("%s r=%d: ProtocolComplex %+v, want V=%d E=%d C=%d",
					name, r, got, len(index), len(edges), len(comps))
			}
		}
	}
}
