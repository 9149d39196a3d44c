// Package chaos is the fault-injection and chaos-testing runtime layered
// over both simulators (the two-process kernel of internal/sim and the
// network simulator of internal/netsim).
//
// The paper's subject is surviving an adversary — omission schemes over
// Γ (Theorem III.8), mobile omission faults on networks (Theorem V.1) —
// and this package turns that adversary into a first-class, composable,
// seed-replayable layer:
//
//   - Fault injectors (inject.go): crash-stop nodes, burst/blackout
//     omission schedulers, budgeted random droppers, and adversary
//     combinators (sequence, union, budget-cap), all driven by an
//     injected, seeded *rand.Rand — never the global source — so every
//     randomized execution replays from its seed.
//
//   - A trace watchdog (watchdog.go) that checks agreement, validity and
//     termination on every execution, plus the Proposition III.12
//     knowledge invariant for A_w runs, and converts absorbed panics and
//     expired deadlines into structured Violation reports.
//
//   - A greedy scenario shrinker (shrink.go) that minimizes a violating
//     scenario — shortest reproducing prefix, then letters simplified
//     toward '.' — before reporting, so counterexamples arrive small.
//
//   - One campaign loop (campaign.go) that executes N seeded executions
//     against a scheme (RunCampaignCtx) or a graph (RunNetworkCampaignCtx,
//     netcampaign.go), each under a wall-clock deadline with panic
//     isolation, and aggregates a Report; an execution the campaign's own
//     context interrupted ends the sweep instead of becoming a violation,
//     and a shrink that context cuts short ends it too, reporting its
//     violation unminimized.
//
// Everything is deterministic given the campaign seed: per-execution
// seeds are derived with a SplitMix64 step, and each Violation is stamped
// with the seed that reproduces it.
package chaos

import "math/rand"

// NewRand returns a seeded source for injectors and campaigns. Chaos code
// never touches the global math/rand source.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// DeriveSeed maps (campaign seed, execution index) to the execution's own
// seed via a SplitMix64 step, so executions are independent yet
// individually replayable.
func DeriveSeed(master int64, execution int) int64 {
	z := uint64(master) + uint64(execution+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z &^ (1 << 63)) // keep it non-negative for rand.NewSource ergonomics
}
