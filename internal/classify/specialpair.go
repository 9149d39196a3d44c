package classify

import (
	"math/big"

	"repro/internal/buchi"
	"repro/internal/omission"
)

// The index difference between the two coordinates of a candidate pair is
// finite-state. With d = ind(u′_r) − ind(u_r) and p = ind(u_r) mod 2:
//
//	ind(u a)   = 3·ind(u)  + (−1)^p·δ(a)  + 1
//	ind(u′ a′) = 3·ind(u′) + (−1)^p′·δ(a′) + 1,  p′ = p ⊕ (d mod 2)
//	d′         = 3d + (−1)^p′·δ(a′) − (−1)^p·δ(a)
//
// so |d| ≥ 2 implies |d′| ≥ 3·2 − 2 = 4: divergence is permanent, and the
// special-pair condition is the safety property d ∈ {−1, 0, +1} forever.
// Moreover d = 0 is left only by reading different letters (δ is injective
// on Γ) and once |d| = 1 it never returns to 0, hence u ≠ u′ is equivalent
// to "eventually d ≠ 0", which (d≠0 being absorbing) is the Büchi
// condition "infinitely often d ≠ 0". Parity evolves as p′ = p ⊕ [a = .]
// (only the no-loss letter flips parity, since δ(.)+1 is odd).

// diffState packs (d+1, p) into 0..5; dead transitions are omitted.
type diffState struct {
	d int // −1, 0, +1
	p int // parity of ind(u_r)
}

func (s diffState) id() int { return (s.d+1)*2 + s.p }

// stepDiff advances the difference tracker on the letter pair (a, a′); ok
// is false when the pair diverges (|d′| ≥ 2).
func stepDiff(s diffState, a, a2 omission.Letter) (diffState, bool) {
	signP := 1
	if s.p == 1 {
		signP = -1
	}
	p2 := s.p ^ (abs(s.d) % 2)
	signP2 := 1
	if p2 == 1 {
		signP2 = -1
	}
	d := 3*s.d + signP2*a2.Delta() - signP*a.Delta()
	if d < -1 || d > 1 {
		return diffState{}, false
	}
	np := s.p
	if a == omission.None {
		np ^= 1
	}
	return diffState{d: d, p: np}, true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// findSpecialPair searches for a special pair (u, u′) with both
// coordinates in the language of comp (the complement of the scheme).
// The product automaton runs two copies of comp over letter pairs while
// tracking the difference state; acceptance requires both coordinates'
// Büchi conditions and "infinitely often d ≠ 0".
func findSpecialPair(comp *buchi.NBA) ([2]omission.Scenario, bool) {
	// Build only the reachable part of the product on the fly: the
	// difference tracker prunes almost everything (pairs drifting more
	// than one index apart are dead), so the reachable product is tiny
	// compared to the full |comp|²·6 state space.
	const pairAlphabet = 9 // Γ × Γ
	type key struct {
		s1, s2 buchi.State
		ds     int
	}
	idOf := map[key]int{}
	var order []key
	intern := func(k key) int {
		if id, ok := idOf[k]; ok {
			return id
		}
		id := len(order)
		idOf[k] = id
		order = append(order, k)
		return id
	}

	start0 := diffState{d: 0, p: 0}
	var start []buchi.State
	for _, s1 := range comp.Start {
		for _, s2 := range comp.Start {
			start = append(start, intern(key{s1, s2, start0.id()}))
		}
	}
	diffOf := func(id int) diffState {
		return diffState{d: id/2 - 1, p: id % 2}
	}
	var delta [][][]buchi.State
	for next := 0; next < len(order); next++ {
		k := order[next]
		ds := diffOf(k.ds)
		rows := make([][]buchi.State, pairAlphabet)
		for a1 := 0; a1 < 3; a1++ {
			for a2 := 0; a2 < 3; a2++ {
				nds, ok := stepDiff(ds, omission.Letter(a1), omission.Letter(a2))
				if !ok {
					continue
				}
				sym := a1*3 + a2
				for _, t1 := range comp.Delta[k.s1][a1] {
					for _, t2 := range comp.Delta[k.s2][a2] {
						rows[sym] = append(rows[sym], intern(key{t1, t2, nds.id()}))
					}
				}
			}
		}
		delta = append(delta, rows)
	}
	numStates := len(order)
	setA := make([]bool, numStates)  // coordinate 1 accepting
	setB := make([]bool, numStates)  // coordinate 2 accepting
	setNZ := make([]bool, numStates) // d ≠ 0
	for i, k := range order {
		setA[i] = comp.Accepting[k.s1]
		setB[i] = comp.Accepting[k.s2]
		setNZ[i] = diffOf(k.ds).d != 0
	}

	// Decide on the generalized product; degeneralize only to extract the
	// witness lasso.
	sets := [][]bool{setA, setB, setNZ}
	if buchi.GeneralizedEmpty(start, delta, sets) {
		return [2]omission.Scenario{}, false
	}
	_, lasso := buchi.Degeneralize(pairAlphabet, numStates, start, delta, sets).IsEmpty()
	proj := func(sym []buchi.Symbol, first bool) omission.Word {
		w := make(omission.Word, len(sym))
		for i, s := range sym {
			if first {
				w[i] = omission.Letter(s / 3)
			} else {
				w[i] = omission.Letter(s % 3)
			}
		}
		return w
	}
	u := omission.UPWord(proj(lasso.Stem, true), proj(lasso.Loop, true))
	u2 := omission.UPWord(proj(lasso.Stem, false), proj(lasso.Loop, false))
	return [2]omission.Scenario{u, u2}, true
}

// OrientPair orders the two members of a special pair by eventual index:
// it returns (lower, upper) where ind(upper_r) = ind(lower_r) + 1 from the
// divergence round on. It panics if (a, b) is not a special pair.
func OrientPair(a, b omission.Scenario) (lower, upper omission.Scenario) {
	d, ok := finalDiff(a, b)
	if !ok || d == 0 {
		panic("classify: OrientPair on a non-special pair")
	}
	if d > 0 { // ind(b) − ind(a) = +1
		return a, b
	}
	return b, a
}

// finalDiff simulates the finite difference state along two ultimately
// periodic Γ-scenarios until the joint configuration repeats, returning
// the absorbed difference d = ind(b_r) − ind(a_r); ok=false when the pair
// diverges beyond distance 1.
func finalDiff(a, b omission.Scenario) (int, bool) {
	type cfg struct {
		posA, posB int
		ds         int
	}
	la, lb := len(a.Prefix())+len(a.Period()), len(b.Prefix())+len(b.Period())
	wrapA, wrapB := len(a.Prefix()), len(b.Prefix())
	ds := diffState{}
	posA, posB := 0, 0
	seen := map[cfg]bool{}
	for {
		c := cfg{posA, posB, ds.id()}
		if seen[c] {
			return ds.d, true
		}
		seen[c] = true
		var ok bool
		ds, ok = stepDiff(ds, a.At(posA), b.At(posB))
		if !ok {
			return 0, false
		}
		posA++
		if posA == la {
			posA = wrapA
		}
		posB++
		if posB == lb {
			posB = wrapB
		}
	}
}

// IsSpecialPair reports whether (a, b) is a special pair of Γ^ω: a ≠ b and
// the prefix indices stay within distance 1 at every round (Definition
// III.7). Both scenarios must be over Γ.
func IsSpecialPair(a, b omission.Scenario) bool {
	if !a.InGamma() || !b.InGamma() {
		return false
	}
	// Never diverging is necessary; the pair is special iff the words
	// actually differ, i.e. d left 0 at some point. d ≠ 0 is absorbing,
	// so the absorbed d decides.
	d, ok := finalDiff(a, b)
	return ok && d != 0
}

// SpecialPartner returns the canonical special-pair partner of the unfair
// scenario u·a^ω described in the impossibility proof (Lemma III.11): for
// w = u·w^ω with ind(u) even, the partner is ind⁻¹(ind(u)−1)·w^ω, and
// symmetrically for the other parity/letter. ok is false when the
// scenario is not of a form admitting a partner (e.g. it is fair, or the
// boundary index would leave [0, 3^r−1]).
func SpecialPartner(s omission.Scenario) (omission.Scenario, bool) {
	s = s.Canonical()
	period := s.Period()
	if len(period) != 1 || period[0] == omission.None || !s.InGamma() {
		return omission.Scenario{}, false
	}
	a := period[0]
	u := s.Prefix()
	ku := omission.Index(u)
	// The tail letter a keeps the index extreme within the subtree below
	// u. The adjacent scenario with index difference 1 forever is
	// ind⁻¹(ind(u)±1)·a^ω, with the sign chosen so the pair stays adjacent:
	// tail 'w' pushes to the top of u's subtree, so the partner is the next
	// subtree above (ind(u)+1) pushed to its bottom — adjacency holds iff
	// parity matches Lemma III.4's boundary case. Try both neighbours and
	// verify with IsSpecialPair.
	for _, d := range []int64{-1, +1} {
		k := new(big.Int).Add(ku, big.NewInt(d))
		if k.Sign() < 0 || k.Cmp(omission.Pow3(len(u))) >= 0 {
			continue
		}
		u2 := omission.UnIndex(len(u), k)
		cand := omission.UPWord(u2, omission.Word{a})
		if IsSpecialPair(s, cand) {
			return cand, true
		}
	}
	return omission.Scenario{}, false
}
