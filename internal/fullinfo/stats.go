package fullinfo

// Stats is an instrumentation snapshot of one Engine.Extend/ExtendTo
// call. Every field is a scalar so snapshots can be compared,
// aggregated, and serialized cheaply. Stats travel through
// Options.Observer — never through Result, which stays a pure analysis
// outcome.
type Stats struct {
	// Horizon is the round horizon the snapshot describes.
	Horizon int
	// Rounds is how many rounds of frontier growth this invocation
	// performed (r for a fixed-horizon run, usually 1 for an Extend).
	Rounds int
	// Configs is the number of leaf configurations streamed.
	Configs int64
	// Vertices is the number of distinct (process, view) pairs seen.
	Vertices int
	// Components and MixedComponents mirror the Result fields.
	Components      int
	MixedComponents int
	// Merges counts union operations that actually fused two
	// components (Vertices - Components when the scan is exhaustive).
	Merges int
	// ViewsInterned is the total id count of the canonical interner
	// after the run; NewViews is how many of those this invocation
	// created.
	ViewsInterned int
	NewViews      int
	// WorkerForks is always zero: every round runs on the engine's one
	// goroutine, so no interner is ever forked.
	//
	// Deprecated: kept only because verdictbench/layers.go:311–312
	// still reads it.
	WorkerForks int
	// Absorbed is always zero: no forked interner is ever merged back.
	//
	// Deprecated: kept only because verdictbench/layers.go:311–312
	// still reads it.
	Absorbed int
	// Subtrees is the live frontier length after the invocation.
	Subtrees int
	// SymbolicRounds is how many of this invocation's rounds the
	// symbolic index-interval backend advanced (0 when it never
	// engaged). Intervals is the (state, interval) pair count of the
	// symbolic frontier after the invocation, IntervalRuns the number
	// of maximal index runs those intervals cover when merged across
	// DFA states (runs ≤ intervals; see FragmentationRatio), and
	// IntervalsPeak the largest interval count any round reached.
	SymbolicRounds int
	Intervals      int
	IntervalRuns   int
	IntervalsPeak  int
	// SymbolicFallbacks counts degradations to the enumerating engine:
	// mid-run interval fragmentation under any backend mode, plus — so
	// the demand is auditable — a BackendSymbolic request the backend
	// could not serve at all (no chain structure, or BuildGraph).
	SymbolicFallbacks int
	// WallNanos is the wall-clock duration of the invocation.
	WallNanos int64
}

// FragmentationRatio returns Intervals / IntervalRuns — how many
// (state, interval) pairs the symbolic frontier spends per maximal
// index run, the gauge the fallback threshold is guarding — or 1 when
// the symbolic backend has not run.
func (s *Stats) FragmentationRatio() float64 {
	if s.IntervalRuns == 0 {
		return 1
	}
	return float64(s.Intervals) / float64(s.IntervalRuns)
}

// satAdd64 adds two non-negative counters, saturating at MaxInt64. The
// symbolic backend reports per-round config counts that are themselves
// saturated, so a deep MinRounds aggregate would otherwise wrap.
func satAdd64(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return 1<<63 - 1
}

// merge folds another snapshot into s, accumulating work counters and
// keeping the most recent structural fields. It is what callers use to
// aggregate per-round stats over a MinRounds search.
func (s *Stats) Merge(o Stats) {
	s.Horizon = o.Horizon
	s.Rounds += o.Rounds
	s.Configs = satAdd64(s.Configs, o.Configs)
	s.Vertices = o.Vertices
	s.Components = o.Components
	s.MixedComponents = o.MixedComponents
	s.Merges = o.Merges
	s.ViewsInterned = o.ViewsInterned
	s.NewViews += o.NewViews
	s.Subtrees = o.Subtrees
	s.SymbolicRounds += o.SymbolicRounds
	s.Intervals = o.Intervals
	s.IntervalRuns = o.IntervalRuns
	if o.IntervalsPeak > s.IntervalsPeak {
		s.IntervalsPeak = o.IntervalsPeak
	}
	s.SymbolicFallbacks += o.SymbolicFallbacks
	s.WallNanos += o.WallNanos
}
