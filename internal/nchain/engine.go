package nchain

import (
	"math"

	"repro/internal/fullinfo"
	"repro/internal/graph"
)

// recvEdge is one in-edge of a process: the sender and the loss-pattern
// bit that drops the message.
type recvEdge struct {
	from int
	bit  int
}

// lossStepper adapts the n-process loss-pattern analysis (K_n or an
// arbitrary graph) to the fullinfo engine: actions are loss patterns,
// every pattern sequence is admissible (trivial one-state automaton),
// and a step interns each process's received-views tuple and next view.
type lossStepper struct {
	n        int
	patterns []LossPattern
	recv     [][]recvEdge // per receiving process, its in-edges in order
}

// knStepper builds the stepper for the complete graph K_n with at most f
// losses per round, matching the sequential reference's enumeration order.
func knStepper(n, f int) lossStepper {
	st := lossStepper{n: n, patterns: PatternsUpTo(n, f), recv: make([][]recvEdge, n)}
	for to := 0; to < n; to++ {
		for from := 0; from < n; from++ {
			if from == to {
				continue
			}
			st.recv[to] = append(st.recv[to], recvEdge{from: from, bit: edgeIndex(n, from, to)})
		}
	}
	return st
}

// graphStepper builds the stepper for an arbitrary topology, matching
// graphAnalyzeSequential's directed-edge order.
func graphStepper(g *graph.Graph, f int) lossStepper {
	n := g.N()
	dir := directedEdges(g)
	st := lossStepper{n: n, patterns: graphPatterns(g, f), recv: make([][]recvEdge, n)}
	for to := 0; to < n; to++ {
		for _, from := range g.Neighbors(to) {
			st.recv[to] = append(st.recv[to], recvEdge{from: from, bit: dirIndex(dir, from, to)})
		}
	}
	return st
}

func (st lossStepper) NumProcs() int     { return st.n }
func (st lossStepper) NumActions() int   { return len(st.patterns) }
func (st lossStepper) Root() (int, bool) { return 0, true }

func (st lossStepper) Step(ctx *fullinfo.Ctx, state, a int, views, next []int) (int, bool) {
	p := st.patterns[a]
	for to := 0; to < st.n; to++ {
		edges := st.recv[to]
		vals := ctx.Buf(len(edges))
		for i, e := range edges {
			if p&(1<<e.bit) != 0 {
				vals[i] = -1
			} else {
				vals[i] = views[e.from]
			}
		}
		next[to] = ctx.In.View(views[to], ctx.In.Tuple(vals))
	}
	return 0, true
}

func analysisOf(n, f, r int, res fullinfo.Result) Analysis {
	configs := int(math.MaxInt)
	if res.Configs <= math.MaxInt {
		configs = int(res.Configs)
	}
	return Analysis{
		N: n, F: f, Rounds: r,
		Configs:         configs,
		Components:      res.Components,
		MixedComponents: res.MixedComponents,
		Solvable:        res.Solvable,
		ConfigsExact:    res.ConfigsExact,
	}
}
