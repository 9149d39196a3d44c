package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	coordattack "repro"
	"repro/internal/chaos"
	"repro/internal/netconsensus"
	"repro/internal/netsim"
	"repro/internal/serve"
)

// Capchaos runs seeded chaos campaigns against the simulation kernels:
// either a two-process campaign (A_w on a named scheme, every trace
// checked by the consensus and Proposition III.12 watchdogs) or, with
// -net, a network campaign (flooding on a graph under random
// budget-respecting fault injectors).
func Capchaos(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("scheme", "S1", "named scheme for the two-process campaign")
	executions := fs.Int("executions", 1000, "number of seeded executions")
	seed := fs.Int64("seed", 1, "campaign master seed")
	maxRounds := fs.Int("max-rounds", 200, "round cap per execution")
	maxPrefix := fs.Int("max-prefix", 8, "sampled scenario prefix bound")
	deadline := fs.Duration("deadline", 10*time.Second, "wall-clock budget per execution (0 = none)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole campaign (0 = none)")
	noInvariant := fs.Bool("no-invariant", false, "skip the Proposition III.12 invariant watchdog")
	noShrink := fs.Bool("no-shrink", false, "skip counterexample minimization")
	maxViolations := fs.Int("max-violations", 8, "stop after this many violations")
	net := fs.Bool("net", false, "run a network campaign instead (flooding under fault injectors)")
	graphKind := fs.String("graph", "complete", "network graph, sized by -n: complete|cycle|path|wheel|star|tree|barbell|theta|petersen")
	n := fs.Int("n", 4, "network graph size")
	f := fs.Int("f", 0, "losses-per-round budget (default c(G)−1)")
	concurrent := fs.Bool("concurrent", false, "use the goroutine/CSP network runner")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The root context bounds the entire campaign; the per-execution
	// -deadline nests inside it. Cancellation is honored between seeded
	// executions, so an interrupted campaign still reports the executions
	// it finished.
	ctx, cancel := rootContext(*timeout)
	defer cancel()

	if *net {
		return capchaosNet(ctx, *graphKind, *n, *f, *executions, *seed, *maxRounds, *deadline, *concurrent, *maxViolations, stdout, stderr)
	}

	s, err := coordattack.SchemeByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	algo, err := chaos.AWForScheme(s)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep, err := chaos.RunCampaignCtx(ctx, chaos.Config{
		Scheme:         s,
		Algo:           algo,
		Executions:     *executions,
		Seed:           *seed,
		MaxPrefix:      *maxPrefix,
		MaxRounds:      *maxRounds,
		Deadline:       *deadline,
		CheckInvariant: !*noInvariant,
		NoShrink:       *noShrink,
		MaxViolations:  *maxViolations,
	})
	if err != nil {
		if rep != nil {
			fmt.Fprintln(stdout, rep)
		}
		fmt.Fprintf(stderr, "capchaos: campaign aborted: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, rep)
	if !rep.OK() {
		return 1
	}
	return 0
}

func capchaosNet(ctx context.Context, kind string, n, f, executions int, seed int64, maxRounds int, deadline time.Duration, concurrent bool, maxViolations int, stdout, stderr io.Writer) int {
	// -n sizes every kind: a barbell's cliques, joined by two bridges.
	g, err := (&serve.GraphSelector{Graph: kind, N: n, K: n, Bridges: 2}).Resolve()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rep, err := chaos.RunNetworkCampaignCtx(ctx, chaos.NetConfig{
		Graph: g,
		NewNodes: func() []netsim.Node {
			nodes := make([]netsim.Node, g.N())
			for i := range nodes {
				nodes[i] = &netconsensus.FloodMin{}
			}
			return nodes
		},
		Executions:        executions,
		Seed:              seed,
		MaxLossesPerRound: f,
		MaxRounds:         maxRounds,
		Deadline:          deadline,
		Goroutines:        concurrent,
		MaxViolations:     maxViolations,
	})
	if err != nil {
		if rep != nil {
			fmt.Fprintln(stdout, rep)
		}
		fmt.Fprintf(stderr, "capchaos: campaign aborted: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, rep)
	if !rep.OK() {
		return 1
	}
	return 0
}
