package nchain

import (
	"context"
	"errors"

	"repro/internal/fullinfo"
	"repro/internal/graph"
)

// Request selects one n-process bounded-round solvability computation:
// K_N under at most F losses per round when Graph is nil, or an
// arbitrary connected topology otherwise.
type Request struct {
	// N is the process count for the complete-graph analysis. Ignored
	// (taken from Graph) when Graph is non-nil.
	N int
	// F is the per-round message-loss budget.
	F int
	// Graph, when non-nil, analyzes the scheme O_F^ω on this topology
	// instead of K_N.
	Graph *graph.Graph
	// Horizon is the round horizon r — or the search cap when
	// MinRounds is set.
	Horizon int
	// MinRounds searches the smallest solvable r ≤ Horizon on the
	// incremental engine (horizon r+1 extends the horizon-r frontier).
	MinRounds bool
	// VerdictOnly lets the engine abandon a horizon on the first mixed
	// component; an unsolvable horizon then reports its verdict alone
	// (every count zero), a solvable one its exact counts.
	VerdictOnly bool
	// Engine optionally tunes the streaming engine; nil means the zero
	// fullinfo.Options. EarlyExit and Observer are managed by
	// Analyze.
	Engine *fullinfo.Options
	// Observer receives one fullinfo.Stats snapshot per engine run or
	// per incremental round.
	Observer func(fullinfo.Stats)
}

// Report is the outcome of Analyze; see chain.Report for the field
// conventions (Found, partial counts, aggregated Stats).
type Report struct {
	Analysis
	Found bool
	Stats fullinfo.Stats
}

var (
	errBadProcs = errors.New("nchain: Analyze requires N ≥ 2 or a Graph")
	errTooLarge = errors.New("nchain: instance too large to enumerate loss patterns (limit 20 directed edges; 26 when the request selects the symbolic backend)")
)

// Analyze is the single analysis entry point of the package. Fixed
// horizons and MinRounds searches both run on one fullinfo.Engine; the
// context bounds the whole computation.
func Analyze(ctx context.Context, req Request) (Report, error) {
	n := req.N
	if req.Graph != nil {
		n = req.Graph.N()
	}
	if n < 2 {
		return Report{}, errBadProcs
	}
	var opt fullinfo.Options
	if req.Engine != nil {
		opt = *req.Engine
	}
	if err := CheckSize(graphEdgeCount(req), opt.Backend); err != nil {
		return Report{}, err
	}
	if req.Horizon < 0 {
		req.Horizon = 0
	}
	var agg fullinfo.Stats
	observe := func(s fullinfo.Stats) {
		agg.Merge(s)
		if req.Observer != nil {
			req.Observer(s)
		}
	}
	var st lossStepper
	if req.Graph != nil {
		st = graphStepper(req.Graph, req.F)
	} else {
		st = knStepper(n, req.F)
	}
	opt.EarlyExit = req.VerdictOnly
	opt.Observer = observe

	eng := fullinfo.NewEngine(st, opt)
	defer eng.Release()
	if !req.MinRounds {
		res, err := eng.ExtendTo(ctx, req.Horizon)
		if err != nil {
			return Report{}, err
		}
		return Report{Analysis: analysisOf(n, req.F, req.Horizon, res), Found: res.Solvable, Stats: agg}, nil
	}
	var last fullinfo.Result
	for r := 0; r <= req.Horizon; r++ {
		res, err := eng.ExtendTo(ctx, r)
		if err != nil {
			return Report{}, err
		}
		if res.Solvable {
			return Report{Analysis: analysisOf(n, req.F, r, res), Found: true, Stats: agg}, nil
		}
		last = res
	}
	return Report{Analysis: analysisOf(n, req.F, req.Horizon, last), Stats: agg}, nil
}

// CheckSize bounds the loss-pattern space of an instance with the given
// undirected edge count before any analysis: a request error, never the
// enumerators' representation panic. Explicitly selecting the symbolic
// backend raises the cap (see maxDirEdgesSymbolic). Analyze runs it, and
// so does a server's request validation, so a request the engine would
// refuse is refused whichever path answers it.
func CheckSize(edges int, backend fullinfo.BackendMode) error {
	limit := maxDirEdges
	if backend == fullinfo.BackendSymbolic {
		limit = maxDirEdgesSymbolic
	}
	if 2*edges > limit {
		return errTooLarge
	}
	return nil
}

// graphEdgeCount returns the undirected edge count of the requested
// topology (K_N when Graph is nil).
func graphEdgeCount(req Request) int {
	if req.Graph != nil {
		return req.Graph.NumEdges()
	}
	return req.N * (req.N - 1) / 2
}
