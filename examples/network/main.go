// Network consensus (Section V): a database cluster shaped like a barbell
// — two replicated sites, each a clique, joined by a few WAN links. The
// example sweeps the per-round loss budget f and shows the sharp Theorem
// V.1 threshold at the edge connectivity c(G), which is the number of WAN
// links — *not* the (larger) per-node degree.
package main

import (
	"fmt"
	"math/rand"

	coordattack "repro"
)

func main() {
	const cliques, wanLinks = 4, 2
	g := coordattack.Barbell(cliques, wanLinks)
	c := coordattack.EdgeConnectivity(g)
	fmt.Printf("cluster %s: %d nodes, %d links, min degree %d, connectivity c(G)=%d\n",
		g.Name(), g.N(), g.NumEdges(), g.MinDegree(), c)
	fmt.Printf("(the Santoro–Widmayer open regime is f in [%d, %d]; Theorem V.1: unsolvable there)\n\n", c, g.MinDegree()-1)

	rng := rand.New(rand.NewSource(42))
	inputs := make([]coordattack.Value, g.N())
	for i := range inputs {
		inputs[i] = coordattack.Value(rng.Intn(2))
	}

	cut, _ := coordattack.MinCut(g)
	for f := 0; f <= c; f++ {
		fmt.Printf("f = %d losses/round: Theorem V.1 says solvable=%v\n", f, coordattack.NetworkSolvable(g, f))
		if f < c {
			// Commit by flooding: every node re-broadcasts all known
			// votes for n−1 rounds and commits the minimum.
			for name, adv := range map[string]coordattack.NetAdversary{
				"random losses  ": coordattack.RandomLossAdversarySeed(f, 42),
				"targeted at cut": coordattack.TargetedCutAdversary(cut, f),
			} {
				tr := coordattack.RunNetwork(g, coordattack.NewFloodNodes(g), inputs, adv, g.N()+2)
				fmt.Printf("   flooding vs %s: consensus=%v, decided %d in %d rounds\n",
					name, coordattack.CheckNetwork(tr).OK(), tr.Decisions[0], tr.Rounds)
			}
		} else {
			// At f = c(G) the Γ_C adversary silences one WAN direction
			// forever: the sites commit different values.
			in := make([]coordattack.Value, g.N())
			for _, v := range cut.SideB {
				in[v] = 1
			}
			adv := coordattack.CutAdversary(cut, coordattack.ConstantScenario(coordattack.LossWhite))
			tr := coordattack.RunNetwork(g, coordattack.NewFloodNodes(g), in, adv, g.N()+2)
			rep := coordattack.CheckNetwork(tr)
			fmt.Printf("   flooding vs Γ_C cut adversary: consensus=%v %v\n", rep.OK(), rep.Violations)
		}
	}

	// Even at f = c(G), *restricting* the failure pattern restores
	// solvability: if the WAN cannot silence site B forever (the scheme
	// Γ_C minus ρ⁻¹((b)^ω)), Algorithm 4 commits through one designated
	// link pair.
	fmt.Printf("\nAlgorithm 4 under Γ_C minus one scenario (WAN cannot silence site B forever):\n")
	witness := coordattack.ConstantScenario(coordattack.LossBlack)
	nodes := coordattack.NewCutTwoPhaseNodes(g, cut, witness)
	scenario := coordattack.MustScenario("wwb.(.)")
	tr := coordattack.RunNetwork(g, nodes, inputs, coordattack.CutAdversary(cut, scenario), 80)
	fmt.Printf("   scenario %s: consensus=%v, all nodes decide %d within %d rounds\n",
		scenario, coordattack.CheckNetwork(tr).OK(), tr.Decisions[0], tr.Rounds)
}
