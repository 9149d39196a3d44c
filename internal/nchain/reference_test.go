package nchain

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// The materializing single-threaded reference walks: test oracles for
// the streaming engine, with the view interner only they use.

type viewKey struct {
	prev int
	// recv packs the received views: an interned tuple id.
	recv int
}

type interner struct {
	views  map[viewKey]int
	tuples map[string]int
	next   int
}

func newInterner() *interner {
	return &interner{views: map[viewKey]int{}, tuples: map[string]int{}}
}

func (in *interner) view(prev, recv int) int {
	k := viewKey{prev, recv}
	if id, ok := in.views[k]; ok {
		return id
	}
	in.next++
	id := in.next
	in.views[k] = id
	return id
}

// tuple interns a received-views vector (−1 for "nothing received").
func (in *interner) tuple(vals []int) int {
	key := fmt.Sprint(vals)
	if id, ok := in.tuples[key]; ok {
		return id
	}
	in.next++
	id := in.next
	in.tuples[key] = id
	return id
}

// analyzeSequential decides r-round binary consensus for n processes on
// K_n under at most f losses per round with the original single-threaded
// materialize-then-union algorithm. It is the reference implementation
// the streaming engine is differentially tested against. Input vectors
// range over {0,1}^n.
func analyzeSequential(n, f, r int) Analysis {
	patterns := PatternsUpTo(n, f)
	in := newInterner()

	type cfg struct {
		views  []int
		inputs int // bitmask of the input vector
	}
	var configs []cfg

	var walk func(depth int, views []int, inputs int)
	walk = func(depth int, views []int, inputs int) {
		if depth == r {
			configs = append(configs, cfg{append([]int(nil), views...), inputs})
			return
		}
		for _, p := range patterns {
			next := make([]int, n)
			recv := make([]int, n)
			for to := 0; to < n; to++ {
				vals := make([]int, 0, n-1)
				for from := 0; from < n; from++ {
					if from == to {
						continue
					}
					if p.Dropped(n, from, to) {
						vals = append(vals, -1)
					} else {
						vals = append(vals, views[from])
					}
				}
				recv[to] = in.tuple(vals)
			}
			for i := 0; i < n; i++ {
				next[i] = in.view(views[i], recv[i])
			}
			walk(depth+1, next, inputs)
		}
	}

	initViewOf := func(inputs, i int) int {
		// Initial views: distinct per input bit (identity is implicit in
		// the per-process component grouping).
		return -2 - ((inputs >> i) & 1)
	}
	for inputs := 0; inputs < 1<<n; inputs++ {
		views := make([]int, n)
		for i := 0; i < n; i++ {
			views[i] = initViewOf(inputs, i)
		}
		walk(0, views, inputs)
	}

	// Union-find over configs: same view at the same process index ⇒ same
	// component.
	parent := make([]int, len(configs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	type pv struct{ proc, view int }
	byView := map[pv]int{}
	for idx, c := range configs {
		for i, v := range c.views {
			k := pv{i, v}
			if j, ok := byView[k]; ok {
				union(idx, j)
			} else {
				byView[k] = idx
			}
		}
	}

	all1 := 1<<n - 1
	type compInfo struct{ has0, has1 bool }
	comps := map[int]*compInfo{}
	for idx, c := range configs {
		root := find(idx)
		ci := comps[root]
		if ci == nil {
			ci = &compInfo{}
			comps[root] = ci
		}
		if c.inputs == 0 {
			ci.has0 = true
		}
		if c.inputs == all1 {
			ci.has1 = true
		}
	}
	an := Analysis{N: n, F: f, Rounds: r, Configs: len(configs), Components: len(comps)}
	for _, ci := range comps {
		if ci.has0 && ci.has1 {
			an.MixedComponents++
		}
	}
	an.Solvable = an.MixedComponents == 0
	return an
}

// graphAnalyzeSequential is the original single-threaded
// materialize-then-union analysis for arbitrary topologies — the
// reference implementation the streaming engine is differentially
// tested against.
func graphAnalyzeSequential(g *graph.Graph, f, r int) Analysis {
	n := g.N()
	patterns := graphPatterns(g, f)
	in := newInterner()

	type cfg struct {
		views  []int
		inputs int
	}
	var configs []cfg

	dir := directedEdges(g)
	var walk func(depth int, views []int, inputs int)
	walk = func(depth int, views []int, inputs int) {
		if depth == r {
			configs = append(configs, cfg{append([]int(nil), views...), inputs})
			return
		}
		for _, p := range patterns {
			recv := make([]int, n)
			for to := 0; to < n; to++ {
				vals := make([]int, 0, g.Degree(to))
				for _, from := range g.Neighbors(to) {
					if p&(1<<dirIndex(dir, from, to)) != 0 {
						vals = append(vals, -1)
					} else {
						vals = append(vals, views[from])
					}
				}
				recv[to] = in.tuple(vals)
			}
			next := make([]int, n)
			for i := 0; i < n; i++ {
				next[i] = in.view(views[i], recv[i])
			}
			walk(depth+1, next, inputs)
		}
	}

	for inputs := 0; inputs < 1<<n; inputs++ {
		views := make([]int, n)
		for i := 0; i < n; i++ {
			views[i] = -2 - ((inputs >> i) & 1)
		}
		walk(0, views, inputs)
	}

	parent := make([]int, len(configs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	type pv struct{ proc, view int }
	byView := map[pv]int{}
	for idx, c := range configs {
		for i, v := range c.views {
			k := pv{i, v}
			if j, ok := byView[k]; ok {
				ra, rb := find(idx), find(j)
				if ra != rb {
					parent[rb] = ra
				}
			} else {
				byView[k] = idx
			}
		}
	}

	all1 := 1<<n - 1
	type compInfo struct{ has0, has1 bool }
	comps := map[int]*compInfo{}
	for idx, c := range configs {
		root := find(idx)
		ci := comps[root]
		if ci == nil {
			ci = &compInfo{}
			comps[root] = ci
		}
		if c.inputs == 0 {
			ci.has0 = true
		}
		if c.inputs == all1 {
			ci.has1 = true
		}
	}
	an := Analysis{N: n, F: f, Rounds: r, Configs: len(configs), Components: len(comps)}
	for _, ci := range comps {
		if ci.has0 && ci.has1 {
			an.MixedComponents++
		}
	}
	an.Solvable = an.MixedComponents == 0
	return an
}

// BenchmarkNProcAnalyzeSequential is the sequential side of the
// n-process engine ablation; BenchmarkNProcAnalyzeEngine in the root
// package runs the same instance on the streaming engine.
func BenchmarkNProcAnalyzeSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !analyzeSequential(3, 1, 2).Solvable {
			b.Fatal("K3 f=1 solvable at 2")
		}
	}
}
