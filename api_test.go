package coordattack_test

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	coordattack "repro"
)

func ExampleClassify() {
	for _, name := range []string{"S0", "C1", "S1", "R1", "AlmostFair"} {
		s, _ := coordattack.SchemeByName(name)
		v, _ := coordattack.Classify(s)
		fmt.Printf("%-10s solvable=%-5v minRounds=%d\n", name, v.Solvable, v.MinRounds)
	}
	// Output:
	// S0         solvable=true  minRounds=1
	// C1         solvable=true  minRounds=2
	// S1         solvable=true  minRounds=2
	// R1         solvable=false minRounds=-1
	// AlmostFair solvable=true  minRounds=-1
}

func ExampleRun() {
	s := coordattack.AlmostFair()
	v, _ := coordattack.Classify(s)
	white, black, _ := coordattack.NewAlgorithm(v)
	tr := coordattack.Run(white, black, [2]coordattack.Value{0, 1},
		coordattack.MustScenario("w.(.)"), 100)
	fmt.Println(tr.Decisions[0], tr.Decisions[1], coordattack.Check(tr).OK())
	// Output: 1 1 true
}

func ExampleIndex() {
	w := coordattack.MustWord("w.b")
	fmt.Println(coordattack.Index(w))
	// Output: 23
}

func ExampleNetworkSolvable() {
	g := coordattack.Barbell(4, 2) // c(G)=2 < deg(G)=3: the open regime
	fmt.Println(coordattack.NetworkSolvable(g, 1), coordattack.NetworkSolvable(g, 2))
	// Output: true false
}

func TestFacadeBasics(t *testing.T) {
	if len(coordattack.SchemeNames()) < 9 {
		t.Error("scheme registry too small")
	}
	if _, err := coordattack.SchemeByName("nope"); err == nil {
		t.Error("unknown scheme")
	}
	w, err := coordattack.ParseWord(".wb")
	if err != nil || w.Len() != 3 {
		t.Error("ParseWord")
	}
	if _, err := coordattack.ParseScenario("((("); err == nil {
		t.Error("ParseScenario must fail")
	}
	if k, _ := coordattack.IndexInt64(coordattack.MustWord("w.b")); k != 23 {
		t.Error("IndexInt64")
	}
	if got := coordattack.UnIndex(3, big.NewInt(23)); !got.Equal(coordattack.MustWord("w.b")) {
		t.Error("UnIndex")
	}
	if next, ok := coordattack.AdjacentWord(coordattack.MustWord("bb")); !ok || !next.Equal(coordattack.MustWord("b.")) {
		t.Error("AdjacentWord")
	}
	if !coordattack.IsSpecialPair(coordattack.MustScenario("w(b)"), coordattack.MustScenario(".(b)")) {
		t.Error("IsSpecialPair")
	}
	if p, ok := coordattack.SpecialPartner(coordattack.MustScenario("w(b)")); !ok || !p.Equal(coordattack.MustScenario(".(b)")) {
		t.Error("SpecialPartner")
	}
	if coordattack.RoleOf(coordattack.MustScenario("(w)")) != coordattack.RoleConstant {
		t.Error("RoleOf")
	}
	if !coordattack.InCanonicalMinimalObstruction(coordattack.MustScenario("(.)")) {
		t.Error("fair scenarios belong to the minimal obstruction")
	}
}

func TestNewAlgorithmErrors(t *testing.T) {
	v, err := coordattack.Classify(coordattack.R1())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coordattack.NewAlgorithm(v); err == nil {
		t.Error("obstruction must not yield an algorithm")
	}
	if _, _, err := coordattack.NewAlgorithm(nil); err == nil {
		t.Error("nil verdict")
	}
}

func TestSchemeCombinators(t *testing.T) {
	u := coordattack.UnionSchemes("u", coordattack.TWhite(), coordattack.TBlack())
	if eq, _ := coordattack.SchemesEquivalent(u, coordattack.S1()); !eq {
		t.Error("TW ∪ TB = S1")
	}
	i := coordattack.IntersectSchemes("i", coordattack.TWhite(), coordattack.TBlack())
	if eq, _ := coordattack.SchemesEquivalent(i, coordattack.S0()); !eq {
		t.Error("TW ∩ TB = S0")
	}
	m := coordattack.MinusScenarios("m", coordattack.R1(), coordattack.MustScenario("(b)"))
	if eq, _ := coordattack.SchemesEquivalent(m, coordattack.AlmostFair()); !eq {
		t.Error("R1 \\ (b) = AlmostFair")
	}
}

func TestEndToEndSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"S0", "TW", "TB", "C1", "S1", "Fair", "AlmostFair"} {
		s, err := coordattack.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		v, err := coordattack.Classify(s)
		if err != nil || !v.Solvable {
			t.Fatalf("%s: %v %+v", name, err, v)
		}
		for trial := 0; trial < 10; trial++ {
			sc, ok := s.SampleScenario(rng, rng.Intn(6))
			if !ok {
				t.Fatal("sample")
			}
			for _, inputs := range [][2]coordattack.Value{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
				white, black, err := coordattack.NewAlgorithm(v)
				if err != nil {
					t.Fatal(err)
				}
				tr := coordattack.Run(white, black, inputs, sc, 300)
				if !coordattack.Check(tr).OK() {
					t.Fatalf("%s under %s: %s", name, sc, tr)
				}
				// The concurrent runner agrees.
				w2, b2, _ := coordattack.NewAlgorithm(v)
				tr2 := coordattack.RunConcurrent(w2, b2, inputs, sc, 300)
				if !tr.Equal(tr2) {
					t.Fatalf("%s: runner divergence", name)
				}
				if v.MinRounds != coordattack.Unbounded {
					for _, dr := range tr.DecisionRound {
						if dr > v.MinRounds {
							t.Fatalf("%s: decided at %d > MinRounds %d", name, dr, v.MinRounds)
						}
					}
				}
			}
		}
	}
}

// analyze runs coordattack.Analyze and fails the test on an engine error.
func analyze(t *testing.T, req coordattack.RoundsRequest) coordattack.RoundsReport {
	t.Helper()
	rep, err := coordattack.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// analyzeNet is analyze for coordattack.AnalyzeNet.
func analyzeNet(t *testing.T, req coordattack.NetAnalysisRequest) coordattack.NetAnalysisReport {
	t.Helper()
	rep, err := coordattack.AnalyzeNet(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSolvableInRoundsFacade(t *testing.T) {
	if analyze(t, coordattack.RoundsRequest{Scheme: coordattack.R1(), Horizon: 3, VerdictOnly: true}).Solvable {
		t.Error("Γ^ω is never bounded-round solvable")
	}
	if !analyze(t, coordattack.RoundsRequest{Scheme: coordattack.S1(), Horizon: 2, VerdictOnly: true}).Solvable {
		t.Error("S1 is 2-round solvable")
	}
}

func TestWorstCaseAdversaryFacade(t *testing.T) {
	s := coordattack.AlmostFair()
	adv := coordattack.WorstCaseAdversary(s, coordattack.ConstantScenario(coordattack.LossBlack))
	white := coordattack.NewAW(coordattack.ConstantScenario(coordattack.LossBlack))
	black := coordattack.NewAW(coordattack.ConstantScenario(coordattack.LossBlack))
	tr := coordattack.RunAdversary(white, black, [2]coordattack.Value{0, 1}, adv, 25)
	if !tr.TimedOut {
		t.Error("worst-case adversary should stall A_w indefinitely on AlmostFair")
	}
}

func TestNetworkFacade(t *testing.T) {
	g := coordattack.Barbell(3, 1)
	cut, ok := coordattack.MinCut(g)
	if !ok || cut.Size() != 1 {
		t.Fatalf("cut: %+v", cut)
	}
	if coordattack.EdgeConnectivity(g) != 1 {
		t.Error("c(barbell(3,1)) = 1")
	}
	inputs := make([]coordattack.Value, g.N())
	inputs[0] = 1
	tr := coordattack.RunNetwork(g, coordattack.NewFloodNodes(g), inputs, coordattack.NoDrops(), g.N())
	if !coordattack.CheckNetwork(tr).OK() {
		t.Fatalf("flood failed: %s", tr)
	}
	// Budgeted random losses below connectivity.
	g2 := coordattack.Hypercube(3)
	tr = coordattack.RunNetwork(g2, coordattack.NewFloodNodes(g2),
		make([]coordattack.Value, g2.N()),
		coordattack.RandomLossAdversarySeed(2, 3), g2.N())
	if !coordattack.CheckNetwork(tr).OK() {
		t.Fatalf("flood under budget failed: %s", tr)
	}
	// Γ_C adversary at the connectivity bound breaks flooding.
	in := make([]coordattack.Value, g.N())
	for _, v := range cut.SideB {
		in[v] = 1
	}
	tr = coordattack.RunNetwork(g, coordattack.NewFloodNodes(g), in,
		coordattack.CutAdversary(cut, coordattack.ConstantScenario(coordattack.LossWhite)), g.N())
	if coordattack.CheckNetwork(tr).Agreement {
		t.Error("cut adversary at f = c(G) must break agreement")
	}
	// Algorithm 4 on the cut with the almost-fair witness.
	nodes := coordattack.NewCutTwoPhaseNodes(g, cut, coordattack.ConstantScenario(coordattack.LossBlack))
	tr = coordattack.RunNetwork(g, nodes, in,
		coordattack.CutAdversary(cut, coordattack.MustScenario("w.(.)")), 60)
	if !coordattack.CheckNetwork(tr).OK() {
		t.Fatalf("Algorithm 4 failed: %s", tr)
	}
	// Emulation lifting compiles into the two-process world.
	white := coordattack.NewEmulation(g, cut, func() coordattack.Node { return coordattack.NewFloodNodes(g)[0] })
	black := coordattack.NewEmulation(g, cut, func() coordattack.Node { return coordattack.NewFloodNodes(g)[0] })
	tw := coordattack.Run(white, black, [2]coordattack.Value{0, 1}, coordattack.MustScenario("(.)"), g.N()+2)
	if tw.TimedOut {
		t.Fatalf("emulated flooding timed out: %s", tw)
	}
	if coordattack.NetworkSolvable(coordattack.PathGraph(3), 1) {
		t.Error("path with f=1 unsolvable")
	}
	if !coordattack.NetworkSolvable(coordattack.Complete(4), 2) {
		t.Error("K4 with f=2 solvable")
	}
	disc := coordattack.NewGraph("disc", 3)
	if coordattack.NetworkSolvable(disc, 0) {
		t.Error("disconnected graphs are unsolvable")
	}
	if coordattack.TargetedCutAdversary(cut, 0).Drops(1, g) == nil {
		// Zero-budget adversary returns an empty (possibly nil) map.
		t.Log("targeted cut with f=0 drops nothing")
	}
}

func TestDecreasingObstructionsFacade(t *testing.T) {
	seq := coordattack.DecreasingObstructions(1)
	if len(seq) != 2 {
		t.Fatal("sequence length")
	}
	v, err := coordattack.Classify(seq[1])
	if err != nil || v.Solvable {
		t.Error("L_1 must be an obstruction")
	}
	window := coordattack.UnfairWindow(2)
	if len(coordattack.PairGraph(window)) == 0 {
		t.Error("pair graph empty")
	}
}

func TestTopologyAndValencyFacade(t *testing.T) {
	cx := coordattack.ProtocolComplex(coordattack.R1(), 3)
	if !cx.Connected || cx.Vertices != cx.Edges {
		t.Errorf("Γ^ω complex at r=3 should be a connected cycle: %+v", cx)
	}
	v, err := coordattack.Classify(coordattack.S1())
	if err != nil {
		t.Fatal(err)
	}
	factory := func() (coordattack.Process, coordattack.Process) {
		w, b, err := coordattack.NewAlgorithm(v)
		if err != nil {
			t.Fatal(err)
		}
		return w, b
	}
	an := coordattack.NewValencyAnalyzer(factory, coordattack.S1(), [2]coordattack.Value{0, 1}, 4)
	if got := an.Valency(coordattack.MustWord("")); got != coordattack.Bivalent {
		t.Errorf("ε valency = %v", got)
	}
	if got := an.Valency(coordattack.MustWord("b")); got != coordattack.Valent0 {
		t.Errorf("valency(b) = %v", got)
	}
	if rep := analyzeNet(t, coordattack.NetAnalysisRequest{N: 3, F: 1, Horizon: 3, MinRounds: true, VerdictOnly: true}); !rep.Found || rep.Rounds != 2 {
		t.Errorf("K3 f=1 horizon %d", rep.Rounds)
	}
	if analyzeNet(t, coordattack.NetAnalysisRequest{N: 2, F: 1, Horizon: 3, VerdictOnly: true}).Solvable {
		t.Error("two generals with f=1 stay unsolvable")
	}
}

func ExampleParseScheme() {
	s, _ := coordattack.ParseScheme(`[.w]^w | [.b]^w`)
	v, _ := coordattack.Classify(s)
	fmt.Println(v.Solvable, v.MinRounds)
	// Output: true 2
}

func ExampleSynthesize() {
	// Compile a round-optimal algorithm for the all-or-nothing channel
	// with one blackout — a double-omission scheme Theorem III.8 cannot
	// classify, but the full-information analysis can solve.
	s := coordattack.BlackoutBudget(1)
	white, black, ok := coordattack.Synthesize(s, 2)
	fmt.Println(ok)
	tr := coordattack.Run(white, black, [2]coordattack.Value{1, 0},
		coordattack.MustScenario("x(.)"), 5)
	fmt.Println(tr.Decisions[0], tr.Decisions[1], tr.Rounds)
	// Output:
	// true
	// 0 0 2
}

func ExampleProtocolComplex() {
	cx := coordattack.ProtocolComplex(coordattack.R1(), 2)
	fmt.Printf("V=%d E=%d components=%d\n", cx.Vertices, cx.Edges, cx.Components)
	// Output: V=36 E=36 components=1
}

func ExampleWorstCaseAdversary() {
	// The adversary that tracks the excluded scenario stalls A_w forever
	// on the almost-fair scheme (no bounded-round algorithm exists).
	s := coordattack.AlmostFair()
	w := coordattack.ConstantScenario(coordattack.LossBlack)
	tr := coordattack.RunAdversary(coordattack.NewAW(w), coordattack.NewAW(w),
		[2]coordattack.Value{0, 1}, coordattack.WorstCaseAdversary(s, w), 20)
	fmt.Println(tr.TimedOut)
	// Output: true
}

func TestAnalyzeRoundsFacade(t *testing.T) {
	an := analyze(t, coordattack.RoundsRequest{Scheme: coordattack.S1(), Horizon: 2}).Analysis
	if !an.Solvable || an.MixedComponents != 0 || an.Components == 0 || an.Configs == 0 {
		t.Errorf("Analyze(S1, 2) = %+v", an)
	}
	if analyze(t, coordattack.RoundsRequest{Scheme: coordattack.R1(), Horizon: 2}).Solvable {
		t.Error("R1 must not be 2-round solvable")
	}
	if an.Solvable != analyze(t, coordattack.RoundsRequest{Scheme: coordattack.S1(), Horizon: 2, VerdictOnly: true}).Solvable {
		t.Error("full and verdict-only analyses disagree")
	}
}

func TestUnIndexCheckedFacade(t *testing.T) {
	w, err := coordattack.UnIndexChecked(2, big.NewInt(4))
	if err != nil || w.String() != ".." {
		t.Errorf("UnIndexChecked(2, 4) = %v, %v", w, err)
	}
	if _, err := coordattack.UnIndexChecked(2, big.NewInt(9)); err == nil {
		t.Error("out-of-range index should error")
	}
	w, err = coordattack.UnIndexInt64Checked(2, 4)
	if err != nil || w.String() != ".." {
		t.Errorf("UnIndexInt64Checked(2, 4) = %v, %v", w, err)
	}
	if _, err := coordattack.UnIndexInt64Checked(40, 0); err == nil {
		t.Error("length past the int64-safe bound should error")
	}
}

func TestChaosFacade(t *testing.T) {
	s := coordattack.S1()
	algo, err := coordattack.AWForScheme(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coordattack.RunChaosCampaign(coordattack.ChaosConfig{
		Scheme: s, Algo: algo, Executions: 100, Seed: 9, CheckInvariant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("A_w campaign on S1 found violations:\n%s", rep)
	}
	if _, err := coordattack.AWForScheme(coordattack.R1()); err == nil {
		t.Error("AWForScheme(R1) should refuse: R1 is an obstruction")
	}

	g := coordattack.Complete(4)
	nrep, err := coordattack.RunNetworkChaosCampaign(coordattack.NetChaosConfig{
		Graph:      g,
		NewNodes:   func() []coordattack.Node { return coordattack.NewFloodNodes(g) },
		Executions: 50, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !nrep.OK() {
		t.Fatalf("network campaign found violations:\n%s", nrep)
	}

	// Hardened runners are reachable and interruptible from the facade.
	white, black, err := coordattack.NewAlgorithm(mustClassify(t, s))
	if err != nil {
		t.Fatal(err)
	}
	ht := coordattack.RunHardened(context.Background(), white, black,
		[2]coordattack.Value{0, 1}, coordattack.MustScenario("w.(.)"), 100)
	if !coordattack.Check(ht.Trace).OK() || len(ht.Crashes) != 0 || ht.Interrupted {
		t.Errorf("hardened run: %+v", ht)
	}
	nht := coordattack.RunNetworkConcurrentHardened(context.Background(), g,
		coordattack.NewFloodNodes(g), []coordattack.Value{1, 0, 1, 1},
		coordattack.RandomLossAdversarySeed(1, 6), g.N()+2)
	if !coordattack.CheckNetwork(nht.Trace).OK() {
		t.Errorf("hardened network run failed consensus: %+v", nht.Trace)
	}

	if coordattack.DeriveSeed(1, 2) == coordattack.DeriveSeed(1, 3) {
		t.Error("DeriveSeed should separate executions")
	}
	if coordattack.NewSeededRand(5).Int63() != coordattack.NewSeededRand(5).Int63() {
		t.Error("NewSeededRand not deterministic")
	}
}

func mustClassify(t *testing.T, s *coordattack.Scheme) *coordattack.Verdict {
	t.Helper()
	v, err := coordattack.Classify(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
