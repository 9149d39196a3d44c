package nchain

import (
	"context"
	"errors"
	"sort"
	"testing"

	"repro/internal/fullinfo"
	"repro/internal/graph"
)

// TestPatternsUpToMatchesSweep pins the combinatorial subset builder
// against the historical filter-a-2^E-sweep semantics, order included,
// on every edge count the old guard allowed.
func TestPatternsUpToMatchesSweep(t *testing.T) {
	for edges := 0; edges <= 12; edges++ {
		for f := 0; f <= 3; f++ {
			var want []LossPattern
			for p := LossPattern(0); p < 1<<edges; p++ {
				if p.Count() <= f {
					want = append(want, p)
				}
			}
			got := patternsUpTo(edges, f)
			if len(got) != len(want) {
				t.Fatalf("E=%d f=%d: %d patterns, want %d", edges, f, len(got), len(want))
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("E=%d f=%d: patterns not in ascending mask order", edges, f)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("E=%d f=%d: pattern[%d] = %b, want %b", edges, f, i, got[i], want[i])
				}
			}
		}
	}
	// Negative budget means no patterns at all, not a panic.
	if got := patternsUpTo(6, -1); len(got) != 0 {
		t.Fatalf("negative budget produced %d patterns", len(got))
	}
}

// TestEdgeCapBackendAware pins the centralized size guard: a 11-cycle
// (22 directed edges) exceeds the default cap but is admitted — and
// correctly analyzed — when the request opts into the symbolic backend;
// a 14-cycle (28 directed edges) exceeds even the raised cap.
func TestEdgeCapBackendAware(t *testing.T) {
	ctx := context.Background()
	c11 := graph.Cycle(11)
	if _, err := Analyze(ctx, Request{Graph: c11, F: 1, Horizon: 1}); !errors.Is(err, errTooLarge) {
		t.Fatalf("cycle(11) default: err=%v, want errTooLarge", err)
	}
	rep, err := Analyze(ctx, Request{
		Graph: c11, F: 1, Horizon: 1, VerdictOnly: true,
		Engine: &fullinfo.Options{Backend: fullinfo.BackendSymbolic},
	})
	if err != nil {
		t.Fatalf("cycle(11) symbolic: %v", err)
	}
	// One round cannot flood an 11-cycle: must be unsolvable at r=1.
	if rep.Solvable {
		t.Fatal("cycle(11) f=1 solvable at r=1")
	}
	// The loss steppers have no chain structure, so the explicit
	// symbolic request degrades to enumeration and says so.
	if rep.Stats.SymbolicFallbacks == 0 {
		t.Fatalf("degradation not recorded: %+v", rep.Stats)
	}
	if _, err := Analyze(ctx, Request{
		Graph: graph.Cycle(14), F: 1, Horizon: 1,
		Engine: &fullinfo.Options{Backend: fullinfo.BackendSymbolic},
	}); !errors.Is(err, errTooLarge) {
		t.Fatalf("cycle(14) symbolic: err=%v, want errTooLarge", err)
	}
}

// TestBackendGridMatchesSequential threads every backend through the
// n-process analysis on a small grid of instances: identical Analysis
// regardless of backend, identical to the sequential reference.
func TestBackendGridMatchesSequential(t *testing.T) {
	ctx := context.Background()
	cases := []Request{
		{N: 2, F: 1, Horizon: 3},
		{N: 3, F: 1, Horizon: 2},
		{N: 3, F: 2, Horizon: 2},
		{Graph: graph.Cycle(4), F: 1, Horizon: 2},
	}
	for _, base := range cases {
		var want Analysis
		if base.Graph != nil {
			want = graphAnalyzeSequential(base.Graph, base.F, base.Horizon)
		} else {
			want = analyzeSequential(base.N, base.F, base.Horizon)
		}
		for _, b := range []fullinfo.BackendMode{fullinfo.BackendAuto, fullinfo.BackendEnumerate, fullinfo.BackendSymbolic} {
			req := base
			req.Engine = &fullinfo.Options{Backend: b}
			got, err := Analyze(ctx, req)
			if err != nil {
				t.Fatalf("backend %v: %v", b, err)
			}
			if got.Analysis != want {
				t.Errorf("n=%d f=%d r=%d backend %v: %+v != sequential %+v",
					want.N, want.F, want.Rounds, b, got.Analysis, want)
			}
		}
	}
}
