package coordattack

import (
	"context"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Chaos-testing and hardened-execution layer (internal/chaos): seeded
// fault-injection campaigns over both simulation kernels, consensus and
// Proposition III.12 invariant watchdogs, counterexample shrinking, and
// panic-isolated, deadline-bounded runners.
type (
	// ChaosConfig parameterizes a two-process chaos campaign.
	ChaosConfig = chaos.Config
	// ChaosAlgorithm is an algorithm under chaos test.
	ChaosAlgorithm = chaos.Algorithm
	// NetChaosConfig parameterizes a network chaos campaign.
	NetChaosConfig = chaos.NetConfig
	// ChaosReport aggregates a campaign's outcome.
	ChaosReport = chaos.Report
	// ChaosViolation is one structured, seed-stamped failure.
	ChaosViolation = chaos.Violation
	// ChaosProperty names the guarantee a violation broke.
	ChaosProperty = chaos.Property
	// HardenedTrace is a two-process trace with crash/interrupt metadata.
	HardenedTrace = sim.HardenedTrace
	// NetHardenedTrace is a network trace with crash/interrupt metadata.
	NetHardenedTrace = netsim.HardenedTrace
)

// The violated properties a chaos watchdog can report.
const (
	ChaosPanic       = chaos.PropPanic
	ChaosDeadline    = chaos.PropDeadline
	ChaosAgreement   = chaos.PropAgreement
	ChaosValidity    = chaos.PropValidity
	ChaosTermination = chaos.PropTermination
	ChaosInvariant   = chaos.PropInvariant
)

// RunChaosCampaign executes seeded random two-process executions under
// scenarios sampled from the scheme, checking every trace with the
// consensus watchdog (and optionally the Proposition III.12 invariant);
// the first violation is minimized by the shrinker.
func RunChaosCampaign(cfg ChaosConfig) (*ChaosReport, error) {
	return RunChaosCampaignCtx(context.Background(), cfg)
}

// RunChaosCampaignCtx is RunChaosCampaign under a campaign-wide context,
// re-checked between executions so a cancelled sweep aborts promptly
// with its partial report and ctx.Err().
func RunChaosCampaignCtx(ctx context.Context, cfg ChaosConfig) (*ChaosReport, error) {
	return chaos.RunCampaignCtx(ctx, cfg)
}

// RunNetworkChaosCampaign executes seeded random network executions under
// randomly composed budget-respecting fault injectors.
func RunNetworkChaosCampaign(cfg NetChaosConfig) (*ChaosReport, error) {
	return RunNetworkChaosCampaignCtx(context.Background(), cfg)
}

// RunNetworkChaosCampaignCtx is RunNetworkChaosCampaign under a
// campaign-wide context, re-checked between executions.
func RunNetworkChaosCampaignCtx(ctx context.Context, cfg NetChaosConfig) (*ChaosReport, error) {
	return chaos.RunNetworkCampaignCtx(ctx, cfg)
}

// AWForScheme classifies the scheme and wraps A_w from its witness as the
// campaign subject.
func AWForScheme(s *Scheme) (ChaosAlgorithm, error) { return chaos.AWForScheme(s) }

// RunHardened is the panic-isolating, context-bounded two-process runner:
// a process that panics is crash-stopped with a diagnostic while its
// partner keeps executing, and ctx cancellation/deadline interrupts the
// run at the next round boundary.
func RunHardened(ctx context.Context, white, black Process, inputs [2]Value, src Source, maxRounds int) HardenedTrace {
	return sim.RunHardenedScenario(ctx, white, black, inputs, src, maxRounds)
}

// RunNetworkHardened is the hardened sequential network runner.
func RunNetworkHardened(ctx context.Context, g *Graph, nodes []Node, inputs []Value, adv NetAdversary, maxRounds int) NetHardenedTrace {
	return netsim.RunHardened(ctx, g, nodes, inputs, adv, maxRounds)
}

// RunNetworkConcurrentHardened is the hardened goroutine/CSP network
// runner: one goroutine per node, each isolated so a panicking node fails
// only its own trace and never leaks its server goroutine.
func RunNetworkConcurrentHardened(ctx context.Context, g *Graph, nodes []Node, inputs []Value, adv NetAdversary, maxRounds int) NetHardenedTrace {
	return netsim.RunGoroutinesHardened(ctx, g, nodes, inputs, adv, maxRounds)
}

// DeriveSeed derives the per-execution seed from a campaign master seed —
// the stamp that makes every chaos violation independently replayable.
func DeriveSeed(master int64, execution int) int64 { return chaos.DeriveSeed(master, execution) }

// NewSeededRand returns the deterministic random source used throughout
// the chaos layer; all randomness in the library is injected from sources
// like this one, never drawn from the global math/rand state.
func NewSeededRand(seed int64) *rand.Rand { return chaos.NewRand(seed) }

// Fault injectors and combinators for network campaigns.
type (
	// CrashInjector silences a node's outgoing messages from a round on.
	CrashInjector = chaos.Crash
	// IsolateInjector drops a node's incoming messages from a round on.
	IsolateInjector = chaos.Isolate
	// BlackoutInjector drops every message in a round window.
	BlackoutInjector = chaos.Blackout
	// RandomDropsInjector drops up to F random messages per round.
	RandomDropsInjector = chaos.RandomDrops
	// BurstInjector applies an inner adversary on a periodic phase.
	BurstInjector = chaos.Burst
	// UnionInjector drops a message iff any member does.
	UnionInjector = chaos.Union
	// BudgetCapInjector bounds an inner adversary's total and per-round
	// drops.
	BudgetCapInjector = chaos.BudgetCap
	// StagedInjector plays adversaries in sequence (see chaos.NewSeq).
	StagedInjector = chaos.Seq
)
