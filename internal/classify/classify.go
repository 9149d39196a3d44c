// Package classify decides Theorem III.8 of Fevat & Godard: an omission
// scheme L ⊆ Γ^ω is solvable for the Coordinated Attack Problem iff at
// least one of the following holds:
//
//	(i)   some fair scenario f is outside L,
//	(ii)  some special pair (u, u′) is entirely outside L,
//	(iii) w^ω ∉ L,
//	(iv)  b^ω ∉ L,
//
// where a special pair is two distinct scenarios whose prefix indices stay
// within distance 1 forever (Definition III.7). Each satisfied condition
// comes with an extracted ultimately periodic witness, which is exactly
// the excluded scenario w needed to instantiate the consensus algorithm
// A_w of Section III-D.
//
// The decision reduces to ω-automata emptiness:
//
//	(iii)/(iv) are membership queries;
//	(i) is emptiness of Fair ∩ ¬L;
//	(ii) is emptiness of a product automaton over letter pairs that tracks
//	     the index difference d = ind(u′_r) − ind(u_r) — a finite-state
//	     quantity, since |d| ≥ 2 forces divergence forever and parity
//	     evolution depends only on the letters read.
//
// The package also computes the round-complexity bound p of Corollary
// III.14 (the smallest p with Γ^p ⊄ Pref(L)) together with a witness word
// w0 ∈ Γ^p \ Pref(L) enabling the exact-p-round algorithm of Proposition
// III.15.
package classify

import (
	"fmt"
	"sync"

	"repro/internal/buchi"
	"repro/internal/omission"
	"repro/internal/scheme"
)

// Condition identifies a disjunct of Theorem III.8.
type Condition int

const (
	// CondNone: no condition holds — the scheme is an obstruction.
	CondNone Condition = iota
	// CondWOmegaMissing is III.8.iii: w^ω ∉ L.
	CondWOmegaMissing
	// CondBOmegaMissing is III.8.iv: b^ω ∉ L.
	CondBOmegaMissing
	// CondFairMissing is III.8.i: some fair scenario is outside L.
	CondFairMissing
	// CondPairMissing is III.8.ii: some special pair lies outside L.
	CondPairMissing
)

// String implements fmt.Stringer.
func (c Condition) String() string {
	switch c {
	case CondNone:
		return "none (obstruction)"
	case CondWOmegaMissing:
		return "III.8.iii: (w)^ω ∉ L"
	case CondBOmegaMissing:
		return "III.8.iv: (b)^ω ∉ L"
	case CondFairMissing:
		return "III.8.i: fair scenario ∉ L"
	case CondPairMissing:
		return "III.8.ii: special pair ∉ L"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// Unbounded is the MinRounds value meaning Γ^r ⊆ Pref(L) for every r: no
// bounded-round algorithm exists (though an unbounded one may).
const Unbounded = -1

// Result reports the full Theorem III.8 analysis of a scheme.
type Result struct {
	// Scheme is the analyzed scheme.
	Scheme *scheme.Scheme
	// Complete reports whether the characterization applies exactly: the
	// scheme is (equivalent to) a subset of Γ^ω. When false, Solvable is
	// only meaningful if false (obstruction by monotonicity).
	Complete bool
	// Solvable is the verdict. For Complete schemes this is exact; for
	// Σ-schemes it is only reported when the Γ-restriction is already an
	// obstruction (then the scheme is one too, since obstructions are
	// upward closed).
	Solvable bool

	// Per-condition detail.
	WOmegaMissing bool
	BOmegaMissing bool
	FairMissing   bool
	FairWitness   omission.Scenario
	PairMissing   bool
	Pair          [2]omission.Scenario

	// Witness is the chosen excluded scenario w ∉ L suitable for A_w
	// (valid when HasWitness; preference order: constants, fair, special
	// pair — simplest first).
	Witness    omission.Scenario
	HasWitness bool
	// WitnessCondition records which disjunct Witness came from.
	WitnessCondition Condition

	// MinRounds is the p of Corollary III.14: the minimal number of rounds
	// any consensus algorithm for L needs in the worst case, achievable
	// exactly (Proposition III.15) when the scheme is solvable.
	// Unbounded (-1) when Γ^r ⊆ Pref(L) for all r.
	MinRounds int
	// MinRoundsWitness is a word w0 ∈ Γ^MinRounds \ Pref(L) (nil when
	// MinRounds is Unbounded).
	MinRoundsWitness omission.Word
}

// fairNBA is the Fair scheme's automaton as an NBA, built once.
var fairNBA = sync.OnceValue(func() *buchi.NBA { return scheme.Fair().Automaton().NBA() })

// Classify runs the Theorem III.8 analysis. Schemes over Σ are accepted
// when their language is contained in Γ^ω (they are restricted first);
// otherwise the theorem does not apply exactly and only the monotone
// obstruction direction is decided (Complete=false).
func Classify(s *scheme.Scheme) (*Result, error) {
	g, complete := restrictToGamma(s)
	res := &Result{Scheme: s, Complete: complete}

	auto := g.Automaton()
	wOmega := []buchi.Symbol{int(omission.LossWhite)}
	bOmega := []buchi.Symbol{int(omission.LossBlack)}
	res.WOmegaMissing = !auto.AcceptsUP(nil, wOmega)
	res.BOmegaMissing = !auto.AcceptsUP(nil, bOmega)

	// (i): Fair ∩ ¬L ≠ ∅.
	comp := auto.Complement()
	fairAndNotL := fairNBA().Intersect(comp)
	if empty, w := fairAndNotL.IsEmpty(); !empty {
		res.FairMissing = true
		res.FairWitness = omission.UPWord(scheme.Letters(w.Stem), scheme.Letters(w.Loop)).Canonical()
	}

	// (ii): special pair entirely outside L.
	if pair, ok := findSpecialPair(comp); ok {
		res.PairMissing = true
		res.Pair = [2]omission.Scenario{pair[0].Canonical(), pair[1].Canonical()}
	}

	res.Solvable = res.WOmegaMissing || res.BOmegaMissing || res.FairMissing || res.PairMissing
	switch {
	case res.WOmegaMissing:
		res.Witness, res.HasWitness = omission.Constant(omission.LossWhite), true
		res.WitnessCondition = CondWOmegaMissing
	case res.BOmegaMissing:
		res.Witness, res.HasWitness = omission.Constant(omission.LossBlack), true
		res.WitnessCondition = CondBOmegaMissing
	case res.FairMissing:
		res.Witness, res.HasWitness = res.FairWitness, true
		res.WitnessCondition = CondFairMissing
	case res.PairMissing:
		// Orientation matters: A_w terminates only with the pair member of
		// larger index (the "upper" one). With the lower member as the
		// excluded scenario, its index advances by the maximal step e = 2
		// every tail round, so a straggler process sitting at distance +1
		// (its partner having halted) is carried along forever:
		// |3·1 − 2| = 1. The upper member's tail step is e = 0 and the
		// straggler escapes after one round.
		_, upper := OrientPair(res.Pair[0], res.Pair[1])
		res.Witness, res.HasWitness = upper, true
		res.WitnessCondition = CondPairMissing
	}

	res.MinRounds, res.MinRoundsWitness = minRounds(auto)

	if !complete {
		// Only the obstruction direction transfers: L ⊇ L∩Γ^ω, and
		// obstructions are upward closed.
		if res.Solvable {
			return res, fmt.Errorf("classify: %s is not a Γ-subscheme; Theorem III.8 characterizes only schemes without double omission (its Γ-restriction is solvable, which decides nothing for the full scheme)", s.Name())
		}
	}
	return res, nil
}

// restrictToGamma returns a Γ-alphabet scheme for L ∩ Γ^ω and whether that
// restriction loses nothing (L ⊆ Γ^ω).
func restrictToGamma(s *scheme.Scheme) (*scheme.Scheme, bool) {
	if s.OverGamma() {
		return s, true
	}
	old := s.Automaton()
	d := &buchi.DBA{
		Alphabet:  len(omission.Gamma),
		Start:     old.Start,
		Delta:     make([][]buchi.State, old.NumStates()),
		Accepting: append([]bool(nil), old.Accepting...),
	}
	for q := 0; q < old.NumStates(); q++ {
		d.Delta[q] = old.Delta[q][:len(omission.Gamma)]
	}
	restricted := scheme.MustNew(s.Name()+"∩Γω", "Γ-restriction of "+s.Name(), d.Trim())
	subset, _ := scheme.SubsetOf(s, scheme.Widen(scheme.R1()))
	return restricted, subset
}

// minRounds computes p = min{r : Γ^r ⊄ Pref(L)} with a witness word, as
// the shortest path in the DBA from the start state to a non-live state
// (a prefix that cannot be extended to any member of L).
func minRounds(auto *buchi.DBA) (int, omission.Word) {
	live := auto.NBA().LiveStates()
	type node struct {
		q    buchi.State
		path []buchi.Symbol
	}
	visited := make([]bool, auto.NumStates())
	queue := []node{{auto.Start, nil}}
	visited[auto.Start] = true
	if !live[auto.Start] {
		return 0, omission.Word{}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for a := 0; a < auto.Alphabet; a++ {
			t := auto.Delta[n.q][a]
			path := append(append([]buchi.Symbol{}, n.path...), a)
			if !live[t] {
				return len(path), scheme.Letters(path)
			}
			if !visited[t] {
				visited[t] = true
				queue = append(queue, node{t, path})
			}
		}
	}
	return Unbounded, nil
}
