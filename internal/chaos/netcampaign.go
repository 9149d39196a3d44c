package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// NetConfig parameterizes a network chaos campaign (Section V setting:
// flooding or any node algorithm on a graph under budgeted mobile
// omissions).
type NetConfig struct {
	// Graph is the communication network.
	Graph *graph.Graph
	// NewNodes returns fresh nodes for one execution.
	NewNodes func() []netsim.Node
	// AlgorithmName labels reports.
	AlgorithmName string
	// Executions is the number of seeded executions (default 200).
	Executions int
	// Seed is the campaign master seed.
	Seed int64
	// MaxLossesPerRound is the adversary budget f; the default (and the
	// largest value with a consensus guarantee, Theorem V.1) is c(G)−1.
	MaxLossesPerRound int
	// MaxRounds caps each execution (default n+2 for flooding).
	MaxRounds int
	// Deadline is the per-execution wall-clock budget (0 = none).
	Deadline time.Duration
	// Goroutines selects the CSP runner (one goroutine per node) instead
	// of the sequential one.
	Goroutines bool
	// MaxViolations stops the campaign early (default 8).
	MaxViolations int
}

func (c *NetConfig) defaults(connectivity int) {
	if c.Executions <= 0 {
		c.Executions = 200
	}
	if c.MaxLossesPerRound <= 0 {
		c.MaxLossesPerRound = connectivity - 1
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = c.Graph.N() + 2
	}
	if c.AlgorithmName == "" {
		c.AlgorithmName = "flood"
	}
}

// RunNetworkCampaignCtx executes seeded random executions of the node
// algorithm on the graph under randomly composed, budget-respecting
// fault injectors, checking uniform consensus on every trace. Panics
// crash-stop single nodes; deadlines bound every execution. The campaign
// context is handled as in RunCampaignCtx.
func RunNetworkCampaignCtx(ctx context.Context, cfg NetConfig) (*Report, error) {
	if cfg.Graph == nil || cfg.NewNodes == nil {
		return nil, fmt.Errorf("chaos: network campaign needs a graph and a node factory")
	}
	c := cfg.Graph.EdgeConnectivity()
	cfg.defaults(c)
	f := cfg.MaxLossesPerRound
	if f < 0 || f >= c {
		return nil, fmt.Errorf("chaos: budget f=%d outside 0 ≤ f < c(G)=%d — consensus is unsolvable by Theorem V.1, a campaign would only report the theorem", f, c)
	}
	run := netsim.RunHardened
	if cfg.Goroutines {
		run = netsim.RunGoroutinesHardened
	}
	l := &loop{
		ctx:           ctx,
		deadline:      cfg.Deadline,
		maxViolations: cfg.MaxViolations,
		rep: &Report{
			Scheme:     fmt.Sprintf("%s,f=%d", cfg.Graph.Name(), f),
			Algorithm:  cfg.AlgorithmName,
			Seed:       cfg.Seed,
			Executions: cfg.Executions,
		},
		exec: func(ctx context.Context, rng *rand.Rand) (trial, error) {
			inputs := make([]netsim.Value, cfg.Graph.N())
			for j := range inputs {
				inputs[j] = netsim.Value(rng.Intn(2))
			}
			adv := randomInjector(rng, cfg.Graph, f)
			ht := run(ctx, cfg.Graph, cfg.NewNodes(), inputs, adv, cfg.MaxRounds)
			t := trial{Violation: Violation{Inputs: inputs}, rounds: ht.Rounds, interrupted: ht.Interrupted, trace: ht.Trace}
			t.Property, t.Detail = classifyRun(crashStrings(ht.Crashes), ht.Interrupted, ht.Rounds, ht.Err, sim.Report(netsim.Check(ht.Trace)))
			return t, nil
		},
	}
	return l.run()
}

// randomInjector composes a budget-respecting adversary for one
// execution: a uniformly random dropper, a targeted cut dropper, or a
// bursty variant of either, every choice driven by the execution's rng.
func randomInjector(rng *rand.Rand, g *graph.Graph, f int) netsim.Adversary {
	var base netsim.Adversary
	switch rng.Intn(3) {
	case 0:
		base = RandomDrops{F: f, Rng: rng}
	case 1:
		if cut, ok := g.MinCut(); ok {
			base = netsim.TargetedCut{Cut: cut, F: f}
		} else {
			base = RandomDrops{F: f, Rng: rng}
		}
	default:
		base = Burst{Every: 2 + rng.Intn(3), Phase: rng.Intn(3), Inner: RandomDrops{F: f, Rng: rng}}
	}
	// The budget cap is belt and braces: every base above already
	// respects f, and the cap also exercises the combinator continuously.
	return &BudgetCap{Inner: base, Budget: 1 << 30, PerRound: f}
}
