//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation adds allocations, so the alloc-budget gates skip.
const raceEnabled = true
