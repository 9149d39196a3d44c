package cli

import (
	"fmt"
	"time"

	coordattack "repro"
)

// engineOptions turns a -backend flag value into engine options for an
// analysis request, shared by every CLI that runs the fullinfo engine.
// The empty string and "auto" keep the engine's own selection.
func engineOptions(backend string) (*coordattack.EngineOptions, error) {
	bm, err := coordattack.ParseEngineBackend(backend)
	if err != nil {
		return nil, err
	}
	return &coordattack.EngineOptions{Backend: bm}, nil
}

// formatEngineStats renders the engine instrumentation of an analysis as
// one -stats output line, shared by every CLI that runs the fullinfo
// engine.
func formatEngineStats(st coordattack.EngineStats) string {
	s := fmt.Sprintf("rounds=%d configs=%d vertices=%d components=%d mixed=%d views=%d merges=%d",
		st.Rounds, st.Configs, st.Vertices, st.Components, st.MixedComponents,
		st.ViewsInterned, st.Merges)
	if st.SymbolicRounds > 0 || st.SymbolicFallbacks > 0 {
		s += fmt.Sprintf(" sym=%d intervals=%d/%d peak=%d frag=%.3f fallbacks=%d",
			st.SymbolicRounds, st.Intervals, st.IntervalRuns, st.IntervalsPeak,
			st.FragmentationRatio(), st.SymbolicFallbacks)
	}
	return s + fmt.Sprintf(" wall=%s", time.Duration(st.WallNanos).Round(time.Microsecond))
}
