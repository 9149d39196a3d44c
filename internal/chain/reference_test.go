package chain

import (
	"fmt"
	"testing"

	"repro/internal/scheme"
	"repro/internal/sim"
)

// analyzeSequential computes the r-round solvability analysis with the
// original single-threaded materialize-then-union algorithm. It is the
// reference implementation the streaming engine is differentially
// tested against — the only place the sequential walk exists.
func analyzeSequential(s *scheme.Scheme, r int) Analysis {
	configs := enumerate(s, r)
	uf := newUnionFind(len(configs))
	// Same white view (including same white input, which the view id
	// already encodes) ⇒ same component; likewise for black.
	byViewW := map[int]int{}
	byViewB := map[int]int{}
	for i, c := range configs {
		if j, ok := byViewW[c.viewW]; ok {
			uf.union(i, j)
		} else {
			byViewW[c.viewW] = i
		}
		if j, ok := byViewB[c.viewB]; ok {
			uf.union(i, j)
		} else {
			byViewB[c.viewB] = i
		}
	}
	type compInfo struct{ has0, has1 bool }
	comps := map[int]*compInfo{}
	for i, c := range configs {
		root := uf.find(i)
		ci := comps[root]
		if ci == nil {
			ci = &compInfo{}
			comps[root] = ci
		}
		if c.inputs == [2]sim.Value{0, 0} {
			ci.has0 = true
		}
		if c.inputs == [2]sim.Value{1, 1} {
			ci.has1 = true
		}
	}
	an := Analysis{Rounds: r, Configs: len(configs), Components: len(comps)}
	for _, ci := range comps {
		if ci.has0 && ci.has1 {
			an.MixedComponents++
		}
	}
	an.Solvable = an.MixedComponents == 0
	return an
}

// BenchmarkChainsSequential is the sequential side of the engine
// ablation; BenchmarkChainsEngine in the root package runs the same
// horizons on the streaming enumerating engine.
func BenchmarkChainsSequential(b *testing.B) {
	for _, r := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			s := scheme.R1()
			for i := 0; i < b.N; i++ {
				if analyzeSequential(s, r).Solvable {
					b.Fatal("Γ^ω solvable?!")
				}
			}
		})
	}
}
