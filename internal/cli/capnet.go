package cli

import (
	"flag"
	"fmt"
	"io"
	"math/rand"

	coordattack "repro"
	"repro/internal/serve"
)

// Capnet runs network consensus experiments (Section V).
func Capnet(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("graph", "cycle", "cycle|path|complete|grid|hypercube|barbell|theta|wheel|star|petersen|tree|random|custom")
	edges := fs.String("edges", "", `custom edge list for -graph custom, e.g. "0-1,1-2,2-0"`)
	n := fs.Int("n", 6, "vertices (cycle/path/complete/random/wheel/star/tree)")
	w := fs.Int("w", 3, "grid width")
	h := fs.Int("h", 3, "grid height")
	d := fs.Int("d", 3, "hypercube dimension")
	k := fs.Int("k", 4, "barbell clique size")
	bridges := fs.Int("bridges", 1, "barbell bridges / theta paths (theta takes at least 2)")
	f := fs.Int("f", 1, "losses per round budget")
	adversary := fs.String("adversary", "random", "random|targeted|cut|none")
	seed := fs.Int64("seed", 1, "random seed")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the simulation (0 = none)")
	rounds := fs.Int("rounds", 0, "also decide bounded-round solvability exhaustively (over all algorithms) up to this horizon on the engine")
	stats := fs.Bool("stats", false, "with -rounds: print engine instrumentation")
	backend := fs.String("backend", "auto", "with -rounds: analysis backend, auto|symbolic|enumerate (symbolic also raises the directed-edge cap)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The service's selector names, bounds and builds every kind but the
	// seeded random graph, which it has no seed for.
	var g *coordattack.Graph
	var err error
	switch {
	case *kind != "random":
		g, err = (&serve.GraphSelector{Graph: *kind, N: *n, W: *w, H: *h, D: *d, K: *k, Bridges: *bridges, Edges: *edges}).Resolve()
	case *n < 0 || *n > serve.MaxGraphVertices:
		err = fmt.Errorf("graph \"random\": size parameters out of range (at most %d vertices)", serve.MaxGraphVertices)
	default:
		g = coordattack.RandomGraph(rand.New(rand.NewSource(*seed)), *n, 0.4)
	}
	if err == nil && g.N() < 2 {
		err = fmt.Errorf("graph %s: consensus needs at least 2 vertices, not %d", g.Name(), g.N())
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if !g.Connected() {
		fmt.Fprintln(stderr, "graph is disconnected; consensus is trivially unsolvable")
		return 1
	}

	c := coordattack.EdgeConnectivity(g)
	fmt.Fprintf(stdout, "graph %s: n=%d m=%d deg=%d c(G)=%d κ(G)=%d\n",
		g.Name(), g.N(), g.NumEdges(), g.MinDegree(), c, coordattack.VertexConnectivity(g))
	fmt.Fprintf(stdout, "Theorem V.1: consensus with f=%d losses/round solvable: %v (f < c(G): %v)\n",
		*f, coordattack.NetworkSolvable(g, *f), *f < c)

	cut, _ := coordattack.MinCut(g)
	fmt.Fprintf(stdout, "minimum cut: %v | sides %v / %v\n", cut.CutEdges, cut.SideA, cut.SideB)

	// -rounds runs the exhaustive full-information analysis: unlike the
	// flooding simulation below (one algorithm, one adversary), it
	// quantifies over every algorithm and every ≤f loss pattern, searching
	// for the smallest solvable horizon on the incremental engine.
	if *rounds > 0 {
		eng, berr := engineOptions(*backend)
		if berr != nil {
			fmt.Fprintln(stderr, berr)
			return 2
		}
		ctx, cancel := rootContext(*timeout)
		rep, err := coordattack.AnalyzeNet(ctx, coordattack.NetAnalysisRequest{
			Graph: g, F: *f, Horizon: *rounds, MinRounds: true, VerdictOnly: true,
			Engine: eng,
		})
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "capnet: engine analysis aborted: %v\n", err)
			return 1
		}
		if rep.Found {
			fmt.Fprintf(stdout, "engine: solvable from horizon %d (exhaustive over all algorithms)\n", rep.Rounds)
		} else {
			fmt.Fprintf(stdout, "engine: not solvable up to horizon %d (exhaustive over all algorithms)\n", *rounds)
		}
		if *stats {
			fmt.Fprintf(stdout, "engine stats: %s\n", formatEngineStats(rep.Stats))
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	inputs := make([]coordattack.Value, g.N())
	if *adversary == "cut" {
		// The crispest demonstration: put the minimum on the side whose
		// outgoing cut messages the adversary silences.
		for _, v := range cut.SideB {
			inputs[v] = 1
		}
	} else {
		for i := range inputs {
			inputs[i] = coordattack.Value(rng.Intn(2))
		}
	}

	var adv coordattack.NetAdversary
	switch *adversary {
	case "random":
		adv = coordattack.RandomLossAdversarySeed(*f, *seed)
	case "targeted":
		adv = coordattack.TargetedCutAdversary(cut, *f)
	case "cut":
		adv = coordattack.CutAdversary(cut, coordattack.ConstantScenario(coordattack.LossWhite))
	case "none":
		adv = coordattack.NoDrops()
	default:
		fmt.Fprintf(stderr, "unknown adversary %q\n", *adversary)
		return 2
	}

	// The hardened runner bounds the simulation by the -timeout root
	// context (checked at round boundaries) and crash-isolates node
	// panics instead of taking the whole process down.
	ctx, cancel := rootContext(*timeout)
	defer cancel()
	ht := coordattack.RunNetworkHardened(ctx, g, coordattack.NewFloodNodes(g), inputs, adv, g.N()+2)
	if ht.Err != nil {
		fmt.Fprintf(stderr, "capnet: simulation aborted: %v\n", ht.Err)
		return 1
	}
	rep := coordattack.CheckNetwork(ht.Trace)
	fmt.Fprintf(stdout, "\nflooding: %s\nconsensus: %v", ht.Trace, rep.OK())
	if !rep.OK() {
		fmt.Fprintf(stdout, " %v", rep.Violations)
	}
	fmt.Fprintln(stdout)
	return 0
}
