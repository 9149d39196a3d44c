package coordattack_test

// One benchmark per experiment id of DESIGN.md (each figure/table-like
// result of the paper), plus the ablation benches for the design choices
// the repository makes (big.Int vs int64 index arithmetic, sequential vs
// goroutine round kernel, Edmonds–Karp vs Stoer–Wagner connectivity).

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	coordattack "repro"
	"repro/internal/chain"
	"repro/internal/classify"
	"repro/internal/consensus"
	"repro/internal/fullinfo"
	"repro/internal/graph"
	"repro/internal/nchain"
	"repro/internal/netconsensus"
	"repro/internal/netsim"
	"repro/internal/obstruction"
	"repro/internal/omission"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// FIG1 — the index function (streaming computation over long words).
func BenchmarkFig1Index(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := make(omission.Word, 256)
	for i := range w {
		w[i] = omission.Gamma[rng.Intn(3)]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := omission.NewIndexTracker()
		for _, a := range w {
			t.Step(a)
		}
	}
}

// LEM-III2/III4 — bijection round trip at r = 12.
func BenchmarkIndexBijection(b *testing.B) {
	const r = 12
	k := omission.Pow3Int64(r) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := omission.UnIndexInt64(r, k)
		got, err := omission.IndexInt64(w)
		if err != nil || got != k {
			b.Fatal("round trip failed")
		}
	}
}

// TAB-ENV — classifying the seven environments.
func BenchmarkTabEnvClassify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range scheme.SevenEnvironments()[:6] { // S2 errors by design
			if _, err := classify.Classify(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// THM-III8 — the classifier on random DBA schemes.
func BenchmarkThm38Classifier(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	schemes := make([]*scheme.Scheme, 16)
	for i := range schemes {
		schemes[i] = scheme.Random(rng, 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.Classify(schemes[i%len(schemes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// THM-III8 — the special-pair product automaton in isolation.
func BenchmarkThm38SpecialPair(b *testing.B) {
	l := scheme.Minus("pairless", scheme.R1(),
		omission.MustScenario("w(b)"), omission.MustScenario(".(b)"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := classify.Classify(l)
		if err != nil || !res.PairMissing {
			b.Fatal("expected pair witness")
		}
	}
}

// minusCorpus is the in-repo micro-counterpart of verdictbench's
// miss-writes workload: its five Γ bases, each minus single contained
// ultimately periodic scenarios.
var minusCorpus = []struct {
	base  string
	minus []string
}{
	{"R1", []string{"w.b(.)", "..(wb)", "b(w.)", ".ww(b..)", "wbw.(w)"}},
	{"Fair", []string{"w(.)", "bw(.b)", "(.wb)", "..w(w.)"}},
	{"AlmostFair", []string{"(w)", "b.(.)", "wwb(b.w)", ".(wb.)"}},
	{"K2", []string{"w..(.)", ".b.w(.)", "....(.)"}},
	{"S1", []string{"ww(w)", "..(.b)", "b.b(b)", ".(.)"}},
}

// minusSchemes compiles minusCorpus, one scheme per removed scenario.
func minusSchemes(b *testing.B) []*scheme.Scheme {
	var out []*scheme.Scheme
	for _, c := range minusCorpus {
		base, err := scheme.ByName(c.base)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range c.minus {
			sc := omission.MustScenario(m)
			if !base.Contains(sc) {
				b.Fatalf("%s does not contain %s", c.base, m)
			}
			out = append(out, scheme.Minus(c.base+"-"+m, base, sc))
		}
	}
	return out
}

// THM-III8 — classifying the miss-writes style Γ-minus automata.
func BenchmarkClassifyMinus(b *testing.B) {
	schemes := minusSchemes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range schemes {
			if _, err := classify.Classify(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Compiling the miss-writes style Γ-minus automata: Minus (product and
// condense) plus the prefix DFA.
func BenchmarkMinusCompile(b *testing.B) {
	minusSchemes(b) // validates the corpus
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range minusCorpus {
			base, _ := scheme.ByName(c.base)
			for _, m := range c.minus {
				scheme.Minus(c.base+"-"+m, base, omission.MustScenario(m)).PrefixDFA()
			}
		}
	}
}

// PROP-III12 — a full A_w execution per iteration.
func BenchmarkPropIII12AW(b *testing.B) {
	witness := omission.MustScenario("(b)")
	sc := omission.MustScenario("bbbbbbbbw(.)") // 9 tracked rounds, then decide
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := sim.RunScenario(consensus.NewAW(witness), consensus.NewAW(witness),
			[2]sim.Value{0, 1}, sc, 100)
		if tr.TimedOut {
			b.Fatal("timed out")
		}
	}
}

// COR-III14 — the exhaustive round-optimality sweep on S1.
func BenchmarkRoundOptimality(b *testing.B) {
	s := scheme.S1()
	res, err := classify.Classify(s)
	if err != nil {
		b.Fatal(err)
	}
	witness := consensus.BoundedWitness(res.MinRoundsWitness)
	prefixes := s.AllPrefixes(res.MinRounds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range prefixes {
			sc, _ := s.ExtendToScenario(p)
			w := consensus.NewBoundedAW(witness, res.MinRounds)
			bl := consensus.NewBoundedAW(witness, res.MinRounds)
			if tr := sim.RunScenario(w, bl, [2]sim.Value{0, 1}, sc, 5); tr.TimedOut {
				b.Fatal("timeout")
			}
		}
	}
}

// COR-IV1 — the intuitive algorithm against A_{b^ω}.
func BenchmarkAlmostFair(b *testing.B) {
	sc := omission.MustScenario("wwbwb(.)")
	witness := omission.MustScenario("(b)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := sim.RunScenario(consensus.NewAW(witness), consensus.NewAW(witness), [2]sim.Value{0, 1}, sc, 50)
		c := sim.RunScenario(&consensus.Intuitive{}, &consensus.Intuitive{}, [2]sim.Value{0, 1}, sc, 50)
		if a.Decisions != c.Decisions {
			b.Fatal("divergence")
		}
	}
}

// SEC-IVC — building the special-pair matching window.
func BenchmarkSpecialPairGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		window := obstruction.UnfairWindow(4)
		if len(obstruction.PairGraph(window)) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// Impossibility shape — full-information chain analysis, by horizon
// (default engine configuration).
func BenchmarkChains(b *testing.B) {
	ctx := context.Background()
	for _, r := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			s := scheme.R1()
			for i := 0; i < b.N; i++ {
				rep, err := chain.Analyze(ctx, chain.Request{Scheme: s, Horizon: r})
				if err != nil || rep.Solvable {
					b.Fatal("Γ^ω solvable?!")
				}
			}
		})
	}
}

// Engine ablation — the streaming enumerating engine (R1 is
// chain-structured, so the default backend would answer symbolically,
// as BenchmarkChains does); its sequential-reference counterpart,
// BenchmarkChainsSequential, lives next to the reference in
// internal/chain. Compare:
//
//	go test -bench 'BenchmarkChains(Sequential|Engine)' -run '^$' . ./internal/chain
func BenchmarkChainsEngine(b *testing.B) {
	ctx := context.Background()
	for _, r := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			s := scheme.R1()
			opt := fullinfo.Options{Backend: fullinfo.BackendEnumerate}
			for i := 0; i < b.N; i++ {
				rep, err := chain.Analyze(ctx, chain.Request{Scheme: s, Horizon: r, Engine: &opt})
				if err != nil || rep.Solvable {
					b.Fatal("Γ^ω solvable?!")
				}
			}
		})
	}
}

// Tentpole ablation — MinRounds search as per-horizon engine restarts
// (the pre-incremental search strategy: a fresh engine, grown
// from the roots, at every horizon) versus one incremental engine whose
// horizon-r frontier seeds horizon r+1. R1 is never solvable, so both
// sides sweep the full 0..maxR range. BENCH_4.json records the speedup.
func BenchmarkMinRoundsIncrementalVsRestart(b *testing.B) {
	ctx := context.Background()
	const maxR = 8
	s := scheme.R1()
	b.Run("restart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r <= maxR; r++ {
				rep, err := chain.Analyze(ctx, chain.Request{Scheme: s, Horizon: r, VerdictOnly: true})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Solvable {
					b.Fatal("Γ^ω solvable?!")
				}
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := chain.Analyze(ctx, chain.Request{
				Scheme: s, Horizon: maxR, MinRounds: true, VerdictOnly: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Found {
				b.Fatal("Γ^ω solvable?!")
			}
		}
	})
}

// THM-V1 — flooding consensus, swept over network size.
func BenchmarkNetworkFlood(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		g := graph.Cycle(n)
		in := make([]netsim.Value, n)
		in[n/2] = 1
		b.Run(fmt.Sprintf("cycle-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := netsim.Run(g, netconsensus.NewFloodNodes(g), in,
					netsim.TargetedCut{Cut: mustCut(g), F: 1}, n+2)
				if !netsim.Check(tr).OK() {
					b.Fatal("flood failed")
				}
			}
		})
	}
}

// THM-V1 — edge connectivity via max-flow.
func BenchmarkConnectivity(b *testing.B) {
	g := graph.Hypercube(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.EdgeConnectivity() != 5 {
			b.Fatal("λ(Q5) = 5")
		}
	}
}

// PROP-V2 — the Algorithms 2/3 two-process lifting of flooding.
func BenchmarkCutEmulation(b *testing.B) {
	g := graph.Barbell(3, 1)
	cut := mustCut(g)
	mk := func() netsim.Node { return &netconsensus.FloodMin{} }
	src := omission.MustScenario("w.b(.)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := sim.RunScenario(netconsensus.NewEmulation(g, cut, mk),
			netconsensus.NewEmulation(g, cut, mk), [2]sim.Value{0, 1}, src, g.N()+2)
		if tr.TimedOut {
			b.Fatal("timeout")
		}
	}
}

// ABL — index arithmetic: exact big.Int vs bounded int64.
func BenchmarkAblationIndexBigInt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := omission.NewIndexTracker()
		for r := 0; r < omission.MaxInt64Rounds; r++ {
			t.Step(omission.Gamma[r%3])
		}
	}
}

func BenchmarkAblationIndexInt64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var t omission.Int64Tracker
		for r := 0; r < omission.MaxInt64Rounds; r++ {
			t.Step(omission.Gamma[r%3])
		}
	}
}

// ABL — round kernel: sequential loop vs goroutine/CSP servers.
func BenchmarkAblationRunnerSequential(b *testing.B) {
	sc := omission.MustScenario("bbbbbbbbbbw(.)")
	witness := omission.MustScenario("(b)")
	for i := 0; i < b.N; i++ {
		sim.RunScenario(consensus.NewAW(witness), consensus.NewAW(witness), [2]sim.Value{0, 1}, sc, 50)
	}
}

func BenchmarkAblationRunnerGoroutine(b *testing.B) {
	sc := omission.MustScenario("bbbbbbbbbbw(.)")
	witness := omission.MustScenario("(b)")
	for i := 0; i < b.N; i++ {
		sim.RunGoroutinesScenario(consensus.NewAW(witness), consensus.NewAW(witness), [2]sim.Value{0, 1}, sc, 50)
	}
}

// The hardened runner (the /v1/chaos class) on the same inputs.
func BenchmarkAblationRunnerHardened(b *testing.B) {
	sc := omission.MustScenario("bbbbbbbbbbw(.)")
	witness := omission.MustScenario("(b)")
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		sim.RunHardenedScenario(ctx, consensus.NewAW(witness), consensus.NewAW(witness), [2]sim.Value{0, 1}, sc, 50)
	}
}

// ABL — connectivity algorithms: Edmonds–Karp vs Stoer–Wagner.
func BenchmarkAblationEdmondsKarp(b *testing.B) {
	g := graph.Grid(5, 5)
	for i := 0; i < b.N; i++ {
		if g.EdgeConnectivity() != 2 {
			b.Fatal("λ(grid) = 2")
		}
	}
}

func BenchmarkAblationStoerWagner(b *testing.B) {
	g := graph.Grid(5, 5)
	for i := 0; i < b.N; i++ {
		if g.StoerWagner() != 2 {
			b.Fatal("λ(grid) = 2")
		}
	}
}

// Facade sanity for the benches file.
func BenchmarkClassifyFacade(b *testing.B) {
	s := coordattack.AlmostFair()
	for i := 0; i < b.N; i++ {
		if v, err := coordattack.Classify(s); err != nil || !v.Solvable {
			b.Fatal("classification failed")
		}
	}
}

func mustCut(g *graph.Graph) graph.Cut {
	c, ok := g.MinCut()
	if !ok {
		panic("no cut")
	}
	return c
}

// EXT — DSL parsing throughput.
func BenchmarkParseScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Parse(`[.w]^w | [.b]^w & [.wb]^w \ {(b)}`); err != nil {
			b.Fatal(err)
		}
	}
}

// EXT-NPROC — the n-process analysis.
func BenchmarkNProcAnalyze(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !nchainAnalyze(3, 1, 2) {
			b.Fatal("K3 f=1 solvable at 2")
		}
	}
}

func nchainAnalyze(n, f, r int) bool {
	rep, err := nchain.Analyze(context.Background(), nchain.Request{N: n, F: f, Horizon: r})
	if err != nil {
		panic(err)
	}
	return rep.Solvable
}

// Engine ablation — n-process analysis on the streaming engine; the
// sequential reference's BenchmarkNProcAnalyzeSequential lives in
// internal/nchain.
func BenchmarkNProcAnalyzeEngine(b *testing.B) {
	ctx := context.Background()
	opt := fullinfo.Options{}
	for i := 0; i < b.N; i++ {
		rep, err := nchain.Analyze(ctx, nchain.Request{N: 3, F: 1, Horizon: 2, Engine: &opt})
		if err != nil || !rep.Solvable {
			b.Fatal("K3 f=1 solvable at 2")
		}
	}
}

// EXT — synthesis compilation (runs on the engine's BuildGraph path).
func BenchmarkSynthesize(b *testing.B) {
	s := scheme.S1()
	for i := 0; i < b.N; i++ {
		if _, _, ok := chain.Synthesize(s, 2); !ok {
			b.Fatal("synthesis failed")
		}
	}
}

// Engine ablation — synthesis at a deeper horizon, where the engine's
// BuildGraph run dominates; K3 is solvable exactly from horizon 4.
func BenchmarkSynthesizeEngine(b *testing.B) {
	s, err := scheme.ByName("K3")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, ok := chain.Synthesize(s, 4); !ok {
			b.Fatal("synthesis failed")
		}
	}
}

// ENGINE — the in-repo counterpart of verdictbench's enum-heavy
// workload: an S2-minus automaton (Σ alphabet, so never symbolic) at
// horizons 6 and 7, fixed and MinRounds, one-cycle graphs on five and
// six vertices at f=1 r=2, and a four-vertex tree at f=1 r=3. Requests
// run concurrently under b.RunParallel, each borrowing its engine arena
// from a sync.Pool of Scratch the way the server's handlers do, so
// GOMAXPROCS requests share the cores rather than one request's rounds.
func BenchmarkEnumHeavyShapes(b *testing.B) {
	s2minus := scheme.Minus("S2-minus", scheme.S2(), omission.MustScenario("wx(b.)"))
	solve := func(h int, minRounds bool) func(context.Context, *fullinfo.Options) error {
		return func(ctx context.Context, opt *fullinfo.Options) error {
			_, err := chain.Analyze(ctx, chain.Request{Scheme: s2minus, Horizon: h,
				MinRounds: minRounds, VerdictOnly: minRounds, Engine: opt})
			return err
		}
	}
	net := func(g *graph.Graph, r int) func(context.Context, *fullinfo.Options) error {
		return func(ctx context.Context, opt *fullinfo.Options) error {
			_, err := nchain.Analyze(ctx, nchain.Request{Graph: g, F: 1, Horizon: r,
				VerdictOnly: true, Engine: opt})
			return err
		}
	}
	cases := []struct {
		name string
		run  func(context.Context, *fullinfo.Options) error
	}{
		{"s2minus/h6/fixed", solve(6, false)},
		{"s2minus/h7/fixed", solve(7, false)},
		{"s2minus/h6/min", solve(6, true)},
		{"s2minus/h7/min", solve(7, true)},
		{"cycle-5/f1r2", net(graph.Cycle(5), 2)},
		{"cycle-6/f1r2", net(graph.Cycle(6), 2)},
		{"tree-4/f1r3", net(graph.Path(4), 3)},
	}
	ctx := context.Background()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			pool := sync.Pool{New: func() any { return fullinfo.NewScratch() }}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					scr := pool.Get().(*fullinfo.Scratch)
					err := c.run(ctx, &fullinfo.Options{Scratch: scr})
					pool.Put(scr)
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// ABL — network runners: sequential vs goroutine-per-node.
func BenchmarkAblationNetSequential(b *testing.B) {
	g := graph.Cycle(12)
	in := make([]netsim.Value, g.N())
	for i := 0; i < b.N; i++ {
		netsim.Run(g, netconsensus.NewFloodNodes(g), in, netsim.NoDrops{}, g.N())
	}
}

func BenchmarkAblationNetGoroutine(b *testing.B) {
	g := graph.Cycle(12)
	in := make([]netsim.Value, g.N())
	for i := 0; i < b.N; i++ {
		netsim.RunGoroutines(g, netconsensus.NewFloodNodes(g), in, netsim.NoDrops{}, g.N())
	}
}

// The hardened sequential network runner (chaos campaigns) on the same inputs.
func BenchmarkAblationNetHardened(b *testing.B) {
	g := graph.Cycle(12)
	in := make([]netsim.Value, g.N())
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		netsim.RunHardened(ctx, g, netconsensus.NewFloodNodes(g), in, netsim.NoDrops{}, g.N())
	}
}

// EXT — vertex connectivity (node-splitting max-flow).
func BenchmarkVertexConnectivity(b *testing.B) {
	g := graph.Petersen()
	for i := 0; i < b.N; i++ {
		if g.VertexConnectivity() != 3 {
			b.Fatal("κ(Petersen) = 3")
		}
	}
}
