package chaos

// The two campaign loops and the two trace classifiers as they were before
// they were folded into one loop and one ladder, kept verbatim apart from
// the ref prefix on their names (the two config defaults became
// refDefaults and refNetDefaults). They are the references the one loop
// is differentially tested against; this is the only place they exist.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/graph"
	"repro/internal/netconsensus"
	"repro/internal/netsim"
	"repro/internal/omission"
	"repro/internal/scheme"
	"repro/internal/sim"
)

func refDefaults(c *Config) {
	if c.Executions <= 0 {
		c.Executions = 1000
	}
	if c.MaxPrefix <= 0 {
		c.MaxPrefix = 8
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 200
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 8
	}
}

// refRunCampaignCtx is RunCampaign under a campaign-wide context: the
// context is re-checked between executions (and is the parent of every
// per-execution deadline), so cancellation aborts a sweep promptly
// rather than only at the end. On cancellation the partial report of the
// executions that did complete is returned together with ctx.Err();
// Report.Executions then reflects the truncated count.
func refRunCampaignCtx(ctx context.Context, cfg Config) (*Report, error) {
	refDefaults(&cfg)
	if cfg.Scheme == nil || cfg.Algo.New == nil {
		return nil, fmt.Errorf("chaos: campaign needs a scheme and an algorithm")
	}
	rep := &Report{
		Scheme:     cfg.Scheme.Name(),
		Algorithm:  cfg.Algo.Name,
		Seed:       cfg.Seed,
		Executions: cfg.Executions,
	}
	invariant := cfg.CheckInvariant && cfg.Algo.Witness != nil

	for i := 0; i < cfg.Executions && len(rep.Violations) < cfg.MaxViolations; i++ {
		if err := ctx.Err(); err != nil {
			rep.Executions = i
			return rep, err
		}
		execSeed := DeriveSeed(cfg.Seed, i)
		rng := NewRand(execSeed)
		sc, ok := cfg.Scheme.SampleScenario(rng, 1+rng.Intn(cfg.MaxPrefix))
		if !ok {
			return nil, fmt.Errorf("chaos: scheme %s has no member scenarios", cfg.Scheme.Name())
		}
		inputs := [2]sim.Value{sim.Value(rng.Intn(2)), sim.Value(rng.Intn(2))}

		ht := refRunOnce(ctx, cfg, sc, inputs)
		rep.Rounds += int64(ht.Rounds)
		prop, detail, bad := refClassifyTwoProcess(ht)
		if !bad && invariant && sc.InGamma() {
			if d, ok := CheckAWInvariant(cfg.Algo.Witness, inputs, sc, cfg.MaxRounds); !ok {
				prop, detail, bad = PropInvariant, d, true
			}
		}
		if !bad {
			continue
		}
		v := Violation{
			Property:  prop,
			Detail:    detail,
			Scheme:    cfg.Scheme.Name(),
			Algorithm: cfg.Algo.Name,
			Scenario:  sc,
			Played:    ht.Played,
			Inputs:    inputs[:],
			Seed:      execSeed,
			Execution: i,
			Trace:     ht.Trace.String(),
		}
		if !cfg.NoShrink {
			repro := func(cand omission.Scenario) (Property, bool) {
				h := refRunOnce(ctx, cfg, cand, inputs)
				p, _, b := refClassifyTwoProcess(h)
				if !b && invariant && cand.InGamma() {
					if _, ok := CheckAWInvariant(cfg.Algo.Witness, inputs, cand, cfg.MaxRounds); !ok {
						return PropInvariant, true
					}
				}
				return p, b
			}
			if min, ok := Shrink(cfg.Scheme, ht.Played, prop, repro); ok {
				v.Minimized = true
				v.MinScenario = min
			}
		}
		rep.Violations = append(rep.Violations, v)
	}
	return rep, nil
}

// refRunOnce executes one hardened run of the algorithm under the scenario.
// The campaign context is the parent of the per-execution deadline, so a
// campaign-wide cancellation also interrupts a running execution at its
// next round boundary.
func refRunOnce(ctx context.Context, cfg Config, sc omission.Scenario, inputs [2]sim.Value) sim.HardenedTrace {
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	white, black := cfg.Algo.New()
	return sim.RunHardenedScenario(ctx, white, black, inputs, sc, cfg.MaxRounds)
}

// refClassifyTwoProcess inspects a hardened two-process trace and returns
// the broken property, if any.
func refClassifyTwoProcess(ht sim.HardenedTrace) (Property, string, bool) {
	if len(ht.Crashes) > 0 {
		parts := make([]string, len(ht.Crashes))
		for i, c := range ht.Crashes {
			parts[i] = c.String()
		}
		return PropPanic, strings.Join(parts, "; "), true
	}
	if ht.Interrupted {
		return PropDeadline, fmt.Sprintf("run interrupted after %d rounds: %v", ht.Rounds, ht.Err), true
	}
	rep := sim.Check(ht.Trace)
	switch {
	case !rep.Agreement:
		return PropAgreement, strings.Join(rep.Violations, "; "), true
	case !rep.Validity:
		return PropValidity, strings.Join(rep.Violations, "; "), true
	case !rep.Terminated:
		return PropTermination, strings.Join(rep.Violations, "; "), true
	}
	return "", "", false
}

func refNetDefaults(c *NetConfig) {
	if c.Executions <= 0 {
		c.Executions = 200
	}
	if c.MaxLossesPerRound <= 0 {
		c.MaxLossesPerRound = c.Graph.EdgeConnectivity() - 1
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = c.Graph.N() + 2
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 8
	}
	if c.AlgorithmName == "" {
		c.AlgorithmName = "flood"
	}
}

// refRunNetworkCampaignCtx is RunNetworkCampaign under a campaign-wide
// context, re-checked between executions and parented under every
// per-execution deadline. On cancellation the partial report is returned
// together with ctx.Err(), Report.Executions truncated to the count that
// actually ran.
func refRunNetworkCampaignCtx(ctx context.Context, cfg NetConfig) (*Report, error) {
	if cfg.Graph == nil || cfg.NewNodes == nil {
		return nil, fmt.Errorf("chaos: network campaign needs a graph and a node factory")
	}
	refNetDefaults(&cfg)
	if cfg.MaxLossesPerRound >= cfg.Graph.EdgeConnectivity() {
		return nil, fmt.Errorf("chaos: budget f=%d ≥ c(G)=%d — consensus is unsolvable by Theorem V.1, a campaign would only report the theorem",
			cfg.MaxLossesPerRound, cfg.Graph.EdgeConnectivity())
	}
	rep := &Report{
		Scheme:     fmt.Sprintf("%s,f=%d", cfg.Graph.Name(), cfg.MaxLossesPerRound),
		Algorithm:  cfg.AlgorithmName,
		Seed:       cfg.Seed,
		Executions: cfg.Executions,
	}
	n := cfg.Graph.N()
	for i := 0; i < cfg.Executions && len(rep.Violations) < cfg.MaxViolations; i++ {
		if err := ctx.Err(); err != nil {
			rep.Executions = i
			return rep, err
		}
		execSeed := DeriveSeed(cfg.Seed, i)
		rng := NewRand(execSeed)
		inputs := make([]netsim.Value, n)
		for j := range inputs {
			inputs[j] = netsim.Value(rng.Intn(2))
		}
		adv := randomInjector(rng, cfg.Graph, cfg.MaxLossesPerRound)

		execCtx := ctx
		var cancel context.CancelFunc
		if cfg.Deadline > 0 {
			execCtx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		}
		var ht netsim.HardenedTrace
		if cfg.Goroutines {
			ht = netsim.RunGoroutinesHardened(execCtx, cfg.Graph, cfg.NewNodes(), inputs, adv, cfg.MaxRounds)
		} else {
			ht = netsim.RunHardened(execCtx, cfg.Graph, cfg.NewNodes(), inputs, adv, cfg.MaxRounds)
		}
		if cancel != nil {
			cancel()
		}
		rep.Rounds += int64(ht.Rounds)

		prop, detail, bad := refClassifyNetwork(ht)
		if !bad {
			continue
		}
		simInputs := make([]sim.Value, n)
		copy(simInputs, inputs)
		rep.Violations = append(rep.Violations, Violation{
			Property:  prop,
			Detail:    detail,
			Scheme:    rep.Scheme,
			Algorithm: cfg.AlgorithmName,
			Inputs:    simInputs,
			Seed:      execSeed,
			Execution: i,
			Trace:     ht.Trace.String(),
		})
	}
	return rep, nil
}

// refClassifyNetwork inspects a hardened network trace.
func refClassifyNetwork(ht netsim.HardenedTrace) (Property, string, bool) {
	if len(ht.Crashes) > 0 {
		parts := make([]string, len(ht.Crashes))
		for i, c := range ht.Crashes {
			parts[i] = c.String()
		}
		return PropPanic, strings.Join(parts, "; "), true
	}
	if ht.Interrupted {
		return PropDeadline, fmt.Sprintf("run interrupted after %d rounds: %v", ht.Rounds, ht.Err), true
	}
	rep := netsim.Check(ht.Trace)
	switch {
	case !rep.Agreement:
		return PropAgreement, strings.Join(rep.Violations, "; "), true
	case !rep.Validity:
		return PropValidity, strings.Join(rep.Violations, "; "), true
	case !rep.Terminated:
		return PropTermination, strings.Join(rep.Violations, "; "), true
	}
	return "", "", false
}

// campaignCase is one campaign of either kind, run once through the one
// loop and once through its reference.
type campaignCase struct {
	two *Config
	net *NetConfig
	// cancelAt > 0 cancels the campaign context on the factory's
	// cancelAt-th call: right there, or, when cancelRound > 0, from the
	// first process's or node's Send in that round of the run.
	cancelAt, cancelRound int
}

// drawCancel gives a quarter of the cases a cancellation, and half of
// them a per-execution deadline too long to fire.
func (c *campaignCase) drawCancel(rng *rand.Rand, executions int) time.Duration {
	if rng.Intn(4) == 0 {
		c.cancelAt, c.cancelRound = 1+rng.Intn(executions+2), rng.Intn(4)
	}
	return []time.Duration{0, time.Minute}[rng.Intn(2)]
}

// cancelOnSend cancels the campaign from inside round `round` of a run.
type cancelOnSend struct {
	sim.Process
	round  int
	cancel context.CancelFunc
}

func (p cancelOnSend) Send(r int) (sim.Message, bool) {
	if r == p.round {
		p.cancel()
	}
	return p.Process.Send(r)
}

// netCancelOnSend is cancelOnSend for a network node.
type netCancelOnSend struct {
	netsim.Node
	round  int
	cancel context.CancelFunc
}

func (p netCancelOnSend) Send(r int) map[int]netsim.Message {
	if r == p.round {
		p.cancel()
	}
	return p.Node.Send(r)
}

func (c campaignCase) String() string {
	if c.two != nil {
		cfg := c.two
		return fmt.Sprintf("two-process scheme=%s algo=%s execs=%d seed=%d prefix=%d rounds=%d deadline=%v invariant=%v noShrink=%v cap=%d cancelAt=%d/%d",
			cfg.Scheme.Name(), cfg.Algo.Name, cfg.Executions, cfg.Seed, cfg.MaxPrefix, cfg.MaxRounds, cfg.Deadline, cfg.CheckInvariant, cfg.NoShrink, cfg.MaxViolations, c.cancelAt, c.cancelRound)
	}
	cfg := c.net
	return fmt.Sprintf("network graph=%s algo=%s execs=%d seed=%d f=%d rounds=%d deadline=%v goroutines=%v cap=%d cancelAt=%d/%d",
		cfg.Graph.Name(), cfg.AlgorithmName, cfg.Executions, cfg.Seed, cfg.MaxLossesPerRound, cfg.MaxRounds, cfg.Deadline, cfg.Goroutines, cfg.MaxViolations, c.cancelAt, c.cancelRound)
}

// caps returns the planned executions (every case sets them) and the
// violation cap, 8 by default.
func (c campaignCase) caps() (executions, maxViolations int) {
	if c.two != nil {
		executions, maxViolations = c.two.Executions, c.two.MaxViolations
	} else {
		executions, maxViolations = c.net.Executions, c.net.MaxViolations
	}
	if maxViolations <= 0 {
		maxViolations = 8
	}
	return executions, maxViolations
}

// run runs the campaign through the reference loop or the one loop, under
// a fresh context that the factory's cancelAt-th product cancels.
func (c campaignCase) run(reference bool) (*Report, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	cancelNow := func() bool {
		if calls++; calls != c.cancelAt {
			return false
		}
		if c.cancelRound == 0 {
			cancel()
		}
		return c.cancelRound > 0
	}
	if c.two != nil {
		cfg := *c.two
		pair := cfg.Algo.New
		cfg.Algo.New = func() (sim.Process, sim.Process) {
			white, black := pair()
			if cancelNow() {
				white = cancelOnSend{white, c.cancelRound, cancel}
			}
			return white, black
		}
		if reference {
			return refRunCampaignCtx(ctx, cfg)
		}
		return RunCampaignCtx(ctx, cfg)
	}
	cfg := *c.net
	nodes := cfg.NewNodes
	cfg.NewNodes = func() []netsim.Node {
		fleet := nodes()
		if cancelNow() {
			fleet[0] = netCancelOnSend{fleet[0], c.cancelRound, cancel}
		}
		return fleet
	}
	if reference {
		return refRunNetworkCampaignCtx(ctx, cfg)
	}
	return RunNetworkCampaignCtx(ctx, cfg)
}

// checkCampaignCase demands identical reports from the one loop and the
// reference, except where the campaign context interrupted an execution:
// the reference then recorded that incomplete run as a violation (and,
// when it filled the cap or was the last execution, hid the cancellation
// behind err == nil), while the one loop stops there with ctx.Err(); and
// where it cut a shrink short, which the one loop reports unminimized.
//
// It returns the one loop's report and whether it stopped at such an
// execution.
func checkCampaignCase(t *testing.T, c campaignCase) (rep *Report, cancelled bool) {
	t.Helper()
	got, gotErr := c.run(false)
	want, wantErr := c.run(true)
	if c.cancelAt > 0 && errors.Is(gotErr, context.Canceled) && want != nil && len(want.Violations) > len(got.Violations) {
		k := len(got.Violations)
		v := want.Violations[k]
		// An interrupted run classifies as a deadline unless a process
		// panicked first.
		if k != len(want.Violations)-1 || v.Property != PropDeadline && v.Property != PropPanic || v.Execution != got.Executions-1 {
			t.Fatalf("%s: the reference's extra violations are not the one cancelled execution:\ngot  %v\nwant %v", c, got, want)
		}
		if wantErr == nil {
			// The reference hides the cancellation when its deadline
			// violation fills the cap or comes from the last execution.
			planned, capped := c.caps()
			if want.Executions != planned || len(want.Violations) != capped && got.Executions != planned {
				t.Fatalf("%s: the reference hid the cancellation without filling its cap: %v", c, want)
			}
		} else if want.Executions != got.Executions {
			t.Fatalf("%s: executions %d, reference %d", c, got.Executions, want.Executions)
		}
		fixed := *want
		fixed.Violations, fixed.Executions = want.Violations[:k], got.Executions
		want, wantErr, cancelled = &fixed, context.Canceled, true
	}
	if c.cancelAt > 0 && !cancelled && errors.Is(gotErr, context.Canceled) && want != nil && len(got.Violations) > 0 {
		k := len(got.Violations) - 1
		if v := got.Violations[k]; v.Execution == got.Executions-1 && !v.Minimized {
			// The cancellation cut the shrink of violation k short: the
			// one loop reports it unminimized and stops there, where the
			// reference kept shrinking with candidates the cancellation
			// interrupted, then stopped at its next context check (or
			// hid the cancellation when the cap or the plan ended it).
			planned, capped := c.caps()
			if len(want.Violations) != k+1 || want.Violations[k].Execution != v.Execution ||
				wantErr == nil && want.Executions != planned && len(want.Violations) != capped ||
				wantErr != nil && want.Executions != got.Executions {
				t.Fatalf("%s: the reference does not stop after the cancelled shrink:\ngot  %v\nwant %v", c, got, want)
			}
			fixed := *want
			fixed.Violations = append([]Violation(nil), want.Violations...)
			fixed.Violations[k].MinScenario, fixed.Violations[k].Minimized = omission.Scenario{}, false
			fixed.Executions = got.Executions
			want, wantErr = &fixed, context.Canceled
		}
	}
	if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err %v, reference %v", c, gotErr, wantErr)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: report %v, reference %v", c, got, want)
	}
	if got == nil {
		return nil, false
	}
	if got.String() != want.String() {
		t.Fatalf("%s: reports differ:\n%s\n--- reference:\n%s", c, got, want)
	}
	if len(got.Violations)+len(want.Violations) > 0 && !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Fatalf("%s: violations differ:\n%#v\n--- reference:\n%#v", c, got.Violations, want.Violations)
	}
	return got, cancelled
}

// solvableAW is a registry scheme together with its A_w.
type solvableAW struct {
	scheme *scheme.Scheme
	algo   Algorithm
}

// solvableAWs lists every registry scheme that has an A_w.
var solvableAWs = sync.OnceValue(func() []solvableAW {
	var out []solvableAW
	for _, name := range scheme.Names() {
		s, err := scheme.ByName(name)
		if err != nil {
			panic(err)
		}
		if algo, err := AWForScheme(s); err == nil {
			out = append(out, solvableAW{s, algo})
		}
	}
	return out
})

// fixedDecider decides v at initialization, whatever its input.
type fixedDecider struct{ v sim.Value }

func (fixedDecider) Init(sim.ID, sim.Value)         {}
func (p fixedDecider) Send(int) (sim.Message, bool) { return p.v, true }
func (fixedDecider) Receive(int, sim.Message)       {}
func (p fixedDecider) Decision() (sim.Value, bool)  { return p.v, true }

// mute sends forever and never decides.
type mute struct{}

func (mute) Init(sim.ID, sim.Value)       {}
func (mute) Send(int) (sim.Message, bool) { return sim.Value(0), true }
func (mute) Receive(int, sim.Message)     {}
func (mute) Decision() (sim.Value, bool)  { return sim.None, false }

// sleepyInit outlasts any per-execution deadline of the grid before its
// first round, so the deadline fires before round 1 on every run and the
// interrupted trace does not depend on timing.
type sleepyInit struct{ mute }

const sleepyDeadline = 5 * time.Millisecond

func (sleepyInit) Init(sim.ID, sim.Value) { time.Sleep(10 * sleepyDeadline) }

// brokenPairs are two-process algorithms that break each rung of the
// ladder: a panic, disagreement, invalid decisions and non-termination.
func brokenPairs(rng *rand.Rand) []Algorithm {
	panicRound := 1 + rng.Intn(3)
	return []Algorithm{
		firstCleanExchangeAlgo(rng.Intn(4)),
		{Name: "A_w[mismatched pair]", New: func() (sim.Process, sim.Process) {
			return consensus.NewAW(omission.MustScenario("(w)")), consensus.NewAW(omission.MustScenario("(b)"))
		}},
		{Name: fmt.Sprintf("panics-at-%d", panicRound), New: func() (sim.Process, sim.Process) {
			return &panicAt{round: panicRound}, &consensus.FirstCleanExchange{Deadline: 5}
		}},
		{Name: "disagree", New: func() (sim.Process, sim.Process) { return fixedDecider{0}, fixedDecider{1} }},
		{Name: "invalid", New: func() (sim.Process, sim.Process) { return fixedDecider{1}, fixedDecider{1} }},
		{Name: "mute", New: func() (sim.Process, sim.Process) { return mute{}, mute{} }},
	}
}

// twoProcessCase draws the campaign parameters for the scheme and
// algorithm from rng.
func twoProcessCase(rng *rand.Rand, s *scheme.Scheme, algo Algorithm) campaignCase {
	cfg := &Config{
		Scheme:         s,
		Algo:           algo,
		Executions:     1 + rng.Intn(24),
		Seed:           rng.Int63(),
		MaxPrefix:      rng.Intn(9),
		MaxRounds:      []int{0, 4, 12, 60}[rng.Intn(4)],
		CheckInvariant: rng.Intn(2) == 0,
		NoShrink:       rng.Intn(2) == 0,
		MaxViolations:  []int{0, 1, 8}[rng.Intn(3)],
	}
	c := campaignCase{two: cfg}
	cfg.Deadline = c.drawCancel(rng, cfg.Executions)
	return c
}

// sleepyTwoProcessCase is a campaign whose every execution hits its
// per-execution deadline.
func sleepyTwoProcessCase(rng *rand.Rand, s *scheme.Scheme) campaignCase {
	c := twoProcessCase(rng, s, Algorithm{Name: "sleeper", New: func() (sim.Process, sim.Process) { return sleepyInit{}, mute{} }})
	c.two.Executions, c.two.Deadline, c.cancelAt = 1+rng.Intn(2), sleepyDeadline, 0
	return c
}

// netFixed decides v at initialization, whatever its input.
type netFixed struct{ v netsim.Value }

func (netFixed) Init(int, *graph.Graph, netsim.Value) {}
func (netFixed) Send(int) map[int]netsim.Message      { return nil }
func (netFixed) Receive(int, map[int]netsim.Message)  {}
func (p netFixed) Decision() (netsim.Value, bool)     { return p.v, true }

// netMute floods but never decides.
type netMute struct{ netconsensus.FloodMin }

func (netMute) Decision() (netsim.Value, bool) { return sim.None, false }

// netSleepyInit is sleepyInit for a network node.
type netSleepyInit struct{ netconsensus.FloodMin }

func (p *netSleepyInit) Init(id int, g *graph.Graph, input netsim.Value) {
	time.Sleep(10 * sleepyDeadline)
	p.FloodMin.Init(id, g, input)
}

// netAlgo is a named fleet: node(i) builds node i.
type netAlgo struct {
	name string
	node func(i int) netsim.Node
}

func (a netAlgo) nodes(n int) func() []netsim.Node {
	return func() []netsim.Node {
		nodes := make([]netsim.Node, n)
		for i := range nodes {
			nodes[i] = a.node(i)
		}
		return nodes
	}
}

// floodWith is flooding with node `at` replaced by odd().
func floodWith(name string, at int, odd func() netsim.Node) netAlgo {
	return netAlgo{name, func(i int) netsim.Node {
		if i == at {
			return odd()
		}
		return &netconsensus.FloodMin{}
	}}
}

// netAlgos are flooding and node fleets that break each rung of the
// ladder.
func netAlgos(rng *rand.Rand, n int) []netAlgo {
	panicRound, at := 1+rng.Intn(3), rng.Intn(n)
	return []netAlgo{
		floodWith("flood", -1, nil),
		floodWith(fmt.Sprintf("flood+panic@%d", panicRound), at, func() netsim.Node { return &panicNode{round: panicRound} }),
		{"disagree", func(i int) netsim.Node { return netFixed{netsim.Value(i % 2)} }},
		{"invalid", func(int) netsim.Node { return netFixed{1} }},
		floodWith("flood+mute", at, func() netsim.Node { return &netMute{} }),
	}
}

// networkCase draws the campaign parameters for the graph and fleet from
// rng.
func networkCase(rng *rand.Rand, g *graph.Graph, algo netAlgo, goroutines bool) campaignCase {
	f := 0 // the default, c(G)−1
	if c := g.EdgeConnectivity(); c > 1 && rng.Intn(2) == 0 {
		f = 1 + rng.Intn(c-1)
	}
	cfg := &NetConfig{
		Graph:             g,
		NewNodes:          algo.nodes(g.N()),
		AlgorithmName:     algo.name,
		Executions:        1 + rng.Intn(16),
		Seed:              rng.Int63(),
		MaxLossesPerRound: f,
		MaxRounds:         []int{0, 2, g.N()}[rng.Intn(3)],
		Goroutines:        goroutines,
		MaxViolations:     []int{0, 1, 8}[rng.Intn(3)],
	}
	c := campaignCase{net: cfg}
	cfg.Deadline = c.drawCancel(rng, cfg.Executions)
	if goroutines {
		// On the server host a cancellation from inside a round races
		// the replies of that round, so whether the run completes the
		// round depends on scheduling; cancel before the run instead.
		c.cancelRound = 0
	}
	return c
}

// sleepyNetworkCase is a network campaign whose every execution hits its
// per-execution deadline.
func sleepyNetworkCase(rng *rand.Rand, g *graph.Graph, goroutines bool) campaignCase {
	algo := floodWith("flood+sleeper", rng.Intn(g.N()), func() netsim.Node { return &netSleepyInit{} })
	c := networkCase(rng, g, algo, goroutines)
	c.net.Executions, c.net.Deadline, c.cancelAt = 1+rng.Intn(2), sleepyDeadline, 0
	return c
}

func referenceGraphs() []*graph.Graph {
	return []*graph.Graph{graph.Complete(3), graph.Complete(4), graph.Cycle(5), graph.Petersen(), graph.Barbell(3, 2)}
}

// newCampaignCase draws one case of either kind from rng; sleepy makes
// every execution hit its deadline.
func newCampaignCase(rng *rand.Rand, sleepy bool) campaignCase {
	if rng.Intn(2) == 0 {
		aws := solvableAWs()
		aw := aws[rng.Intn(len(aws))]
		if sleepy {
			return sleepyTwoProcessCase(rng, aw.scheme)
		}
		algos := append([]Algorithm{aw.algo}, brokenPairs(rng)...)
		return twoProcessCase(rng, aw.scheme, algos[rng.Intn(len(algos))])
	}
	graphs := referenceGraphs()
	g := graphs[rng.Intn(len(graphs))]
	goroutines := rng.Intn(2) == 0
	if sleepy {
		return sleepyNetworkCase(rng, g, goroutines)
	}
	algos := netAlgos(rng, g.N())
	return networkCase(rng, g, algos[rng.Intn(len(algos))], goroutines)
}

// TestCampaignsMatchReference pins both campaign kinds to the loops they
// replaced: every registry scheme with an A_w, against A_w and each broken
// pair, and every reference graph against flooding and each broken fleet
// on both network runners, with deadline-bound sleepers, the violation
// cap at 1 and 8, shrinking and the invariant watchdog on and off, and
// mid-campaign cancellations; then seeded random cases on top.
func TestCampaignsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var cases []campaignCase
	for _, aw := range solvableAWs() {
		for _, algo := range append([]Algorithm{aw.algo}, brokenPairs(rng)...) {
			cases = append(cases, twoProcessCase(rng, aw.scheme, algo))
		}
	}
	for _, g := range referenceGraphs() {
		for _, goroutines := range []bool{false, true} {
			for _, algo := range netAlgos(rng, g.N()) {
				cases = append(cases, networkCase(rng, g, algo, goroutines))
			}
		}
	}
	for _, goroutines := range []bool{false, true} {
		cases = append(cases,
			sleepyTwoProcessCase(rng, scheme.S1()),
			sleepyNetworkCase(rng, graph.Complete(3), goroutines))
	}
	extra := 200
	if testing.Short() {
		extra = 20
	}
	for i := 0; i < extra; i++ {
		cases = append(cases, newCampaignCase(rng, false))
	}
	seen := map[Property]int{}
	cancelled := 0
	for _, c := range cases {
		rep, stopped := checkCampaignCase(t, c)
		if stopped {
			cancelled++
		}
		if rep != nil {
			for _, v := range rep.Violations {
				seen[v.Property]++
			}
		}
	}
	// The grid must reach every rung of the ladder and the one difference.
	for _, p := range []Property{PropPanic, PropDeadline, PropAgreement, PropValidity, PropTermination} {
		if seen[p] == 0 {
			t.Errorf("no case produced a %s violation", p)
		}
	}
	if cancelled == 0 {
		t.Error("no case cancelled the campaign mid-execution")
	}
	t.Logf("%d cases, %d stopped by cancellation, violations %v", len(cases), cancelled, seen)
}

func FuzzCampaignsVsReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 2} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkCampaignCase(t, newCampaignCase(rng, rng.Intn(16) == 0))
	})
}
