package chain

import (
	"context"
	"errors"
	"math"

	"repro/internal/fullinfo"
	"repro/internal/scheme"
)

// Request selects one bounded-round solvability computation. The zero
// value (plus a Scheme) asks for an exhaustive analysis at horizon 0.
type Request struct {
	// Scheme is the omission scheme under analysis. Required.
	Scheme *scheme.Scheme
	// Horizon is the round horizon r — or, when MinRounds is set, the
	// largest horizon the search will try.
	Horizon int
	// MinRounds searches for the smallest r ≤ Horizon at which the
	// scheme is solvable instead of analyzing one fixed horizon. The
	// search runs on the incremental engine: horizon r+1 extends the
	// horizon-r frontier rather than rebuilding the tree.
	MinRounds bool
	// VerdictOnly declares that only Report.Solvable (and Found) are
	// needed, letting the engine abandon a horizon on the first mixed
	// component. An unsolvable horizon then reports its verdict alone
	// (every count zero); a solvable one keeps its exact counts.
	VerdictOnly bool
	// Engine optionally tunes the streaming engine; nil means the zero
	// fullinfo.Options. EarlyExit and Observer are managed by
	// Analyze (derived from VerdictOnly and Observer).
	Engine *fullinfo.Options
	// Observer, when non-nil, receives one fullinfo.Stats snapshot per
	// engine run (fixed horizon) or per round (MinRounds search).
	Observer func(fullinfo.Stats)
}

// Report is the outcome of Analyze. For MinRounds requests, Analysis
// describes the found horizon when Found, or the failed top horizon
// otherwise. Stats aggregates the engine work across every round the
// request touched.
type Report struct {
	Analysis
	// Found reports whether a MinRounds search succeeded within the
	// horizon cap. Fixed-horizon requests set it to Solvable.
	Found bool
	// Stats is the aggregated instrumentation for the whole request.
	Stats fullinfo.Stats
}

// errNilScheme is returned for requests missing a scheme.
var errNilScheme = errors.New("chain: Analyze requires a Scheme")

// Analyze is the single analysis entry point of the package. Fixed
// horizons and MinRounds searches both run on one fullinfo.Engine; the
// context bounds the whole computation — deadlines propagate into the
// engine's per-round grow and scan loops.
func Analyze(ctx context.Context, req Request) (Report, error) {
	if req.Scheme == nil {
		return Report{}, errNilScheme
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
	var opt fullinfo.Options
	if req.Engine != nil {
		opt = *req.Engine
	}
	opt.EarlyExit = req.VerdictOnly
	opt.Observer = observe

	eng := fullinfo.NewEngine(newChainStepper(req.Scheme), opt)
	defer eng.Release()
	if !req.MinRounds {
		res, err := eng.ExtendTo(ctx, req.Horizon)
		if err != nil {
			return Report{}, err
		}
		return Report{Analysis: analysisOf(req.Horizon, res), Found: res.Solvable, Stats: agg}, nil
	}
	var last fullinfo.Result
	for r := 0; r <= req.Horizon; r++ {
		res, err := eng.ExtendTo(ctx, r)
		if err != nil {
			return Report{}, err
		}
		if res.Solvable {
			return Report{Analysis: analysisOf(r, res), Found: true, Stats: agg}, nil
		}
		last = res
	}
	return Report{Analysis: analysisOf(req.Horizon, last), Stats: agg}, nil
}

// analysisOf converts an engine result at horizon r. Configs saturates
// at math.MaxInt; when the engine reports an exact big count (symbolic
// horizons past int64), it is carried through ConfigsExact.
func analysisOf(r int, res fullinfo.Result) Analysis {
	configs := int(math.MaxInt)
	if res.Configs <= math.MaxInt {
		configs = int(res.Configs)
	}
	return Analysis{
		Rounds:          r,
		Configs:         configs,
		Components:      res.Components,
		Solvable:        res.Solvable,
		MixedComponents: res.MixedComponents,
		ConfigsExact:    res.ConfigsExact,
	}
}
