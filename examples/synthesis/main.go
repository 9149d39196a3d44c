// Algorithm synthesis: beyond Theorem III.8. The all-or-nothing channel
// (each round either delivers both messages or drops both) uses the
// double omission 'x', which the paper's characterization leaves open.
// The library's full-information analysis still decides bounded-round
// solvability — and *compiles a round-optimal algorithm* directly from
// the analysis.
package main

import (
	"context"
	"fmt"
	"log"

	coordattack "repro"
)

func main() {
	const blackouts = 2
	s := coordattack.BlackoutBudget(blackouts)
	fmt.Printf("scheme %s: %s\n\n", s.Name(), s.Description())

	// Theorem III.8 refuses (double omissions) — honest incompleteness.
	if _, err := coordattack.Classify(s); err != nil {
		fmt.Printf("Classify: %v\n\n", err)
	}

	// The chain analysis finds the exact horizon...
	rep, err := coordattack.Analyze(context.Background(), coordattack.RoundsRequest{Scheme: s, Horizon: 6, MinRounds: true, VerdictOnly: true})
	if err != nil {
		log.Fatal(err)
	}
	if !rep.Found {
		log.Fatal("no bounded horizon found")
	}
	p := rep.Rounds
	fmt.Printf("bounded-round analysis: first solvable horizon = %d (= blackout budget + 1)\n", p)

	// ...and Synthesize compiles an algorithm for it.
	white, black, ok := coordattack.Synthesize(s, p)
	if !ok {
		log.Fatal("synthesis failed")
	}
	fmt.Println("synthesized a round-optimal algorithm from the analysis; running it:")
	for _, scenario := range []string{"(.)", "x(.)", "xx(.)", "x.x(.)"} {
		sc := coordattack.MustScenario(scenario)
		if !s.Contains(sc) {
			continue
		}
		tr := coordattack.Run(white, black, [2]coordattack.Value{1, 0}, sc, p+2)
		fmt.Printf("  scenario %-7s → decisions (%d, %d) in %d round(s), consensus=%v\n",
			scenario, tr.Decisions[0], tr.Decisions[1], tr.Rounds, coordattack.Check(tr).OK())
	}

	// The same channel is also solved by the hand-written common-knowledge
	// protocol (FirstCleanExchange, see internal/consensus); the synthesized
	// program proves no algorithm can beat k+1 rounds, because synthesis
	// fails at horizon k:
	if _, _, ok := coordattack.Synthesize(s, p-1); ok {
		log.Fatal("synthesis below the optimal horizon should be impossible")
	}
	fmt.Printf("\nno algorithm exists at horizon %d — the k+1 bound is tight.\n", p-1)
}
