package serve

import (
	"sync/atomic"

	"repro/internal/fullinfo"
)

// engineAgg accumulates fullinfo engine instrumentation across every
// analysis the server has computed. The observer fires once per engine
// invocation (or per incremental round of a MinRounds search), so the
// counters keep growing even when the request later times out. Cache
// hits and singleflight followers never re-run the engine and therefore
// never count — /v1/stats measures work done, not requests served.
// Verdict replies carry no engine block, so /v1/stats is where served
// engine work shows.
type engineAgg struct {
	runs          atomic.Int64
	rounds        atomic.Int64
	configs       atomic.Int64
	newViews      atomic.Int64
	wallNanos     atomic.Int64
	symRounds     atomic.Int64
	symFallbacks  atomic.Int64
	intervalsPeak atomic.Int64
}

// observe is the fullinfo Observer hook wired into every engine request.
func (a *engineAgg) observe(st fullinfo.Stats) {
	a.runs.Add(1)
	a.rounds.Add(int64(st.Rounds))
	a.configs.Add(st.Configs)
	a.newViews.Add(int64(st.NewViews))
	a.wallNanos.Add(st.WallNanos)
	a.symRounds.Add(int64(st.SymbolicRounds))
	a.symFallbacks.Add(int64(st.SymbolicFallbacks))
	for {
		peak := a.intervalsPeak.Load()
		if int64(st.IntervalsPeak) <= peak || a.intervalsPeak.CompareAndSwap(peak, int64(st.IntervalsPeak)) {
			break
		}
	}
}

// StatsVarz is the GET /v1/stats aggregate: lifetime engine work plus
// the cache effectiveness needed to interpret it.
type StatsVarz struct {
	EngineRuns      int64 `json:"engineRuns"`
	RoundsAnalyzed  int64 `json:"roundsAnalyzed"`
	ConfigsExplored int64 `json:"configsExplored"`
	ViewsInterned   int64 `json:"viewsInterned"`
	EngineWallNanos int64 `json:"engineWallNanos"`
	// Lifetime symbolic-backend gauges: rounds advanced by the interval
	// walk, fallbacks to enumeration, and the largest interval set any
	// single run reached.
	SymbolicRounds     int64 `json:"symbolicRounds"`
	SymbolicFallbacks  int64 `json:"symbolicFallbacks"`
	IntervalsPeak      int64 `json:"intervalsPeak"`
	CacheHits          int64 `json:"cacheHits"`
	CacheMisses        int64 `json:"cacheMisses"`
	SingleflightShared int64 `json:"singleflightShared"`
}

func (s *Server) statsVarz() StatsVarz {
	return StatsVarz{
		EngineRuns:         s.engine.runs.Load(),
		RoundsAnalyzed:     s.engine.rounds.Load(),
		ConfigsExplored:    s.engine.configs.Load(),
		ViewsInterned:      s.engine.newViews.Load(),
		EngineWallNanos:    s.engine.wallNanos.Load(),
		SymbolicRounds:     s.engine.symRounds.Load(),
		SymbolicFallbacks:  s.engine.symFallbacks.Load(),
		IntervalsPeak:      s.engine.intervalsPeak.Load(),
		CacheHits:          s.cache.hits.Load(),
		CacheMisses:        s.cache.misses.Load(),
		SingleflightShared: s.cache.shared.Load(),
	}
}
