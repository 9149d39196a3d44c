// Package buchi implements the small ω-automata substrate used to represent
// omission schemes as ω-regular languages and to decide the conditions of
// Theorem III.8 of Fevat & Godard.
//
// Two automaton kinds are provided:
//
//   - DBA: complete deterministic Büchi automata. All named omission schemes
//     of the paper (S0, T, C1, S1, R1, S2, Fair, the almost-fair scheme, …)
//     are DBA-recognizable. DBAs are closed under union and intersection,
//     and their complement is an NBA via the classic "guess the point after
//     which no accepting state is visited" construction.
//
//   - NBA: nondeterministic Büchi automata, closed under intersection, with
//     emptiness + lasso-witness extraction and ultimately periodic word
//     membership. Witness lassos become the excluded scenarios w that
//     parameterize the consensus algorithm A_w.
//
// Automata are over abstract integer symbols 0..Alphabet-1; the scheme
// package maps omission letters onto symbols.
package buchi

import "fmt"

// State is an automaton state, numbered 0..NumStates-1.
type State = int

// Symbol is an input symbol, numbered 0..Alphabet-1.
type Symbol = int

// DBA is a complete deterministic Büchi automaton. A run is accepting when
// it visits an accepting state infinitely often.
type DBA struct {
	Alphabet  int
	Start     State
	Delta     [][]State // Delta[q][a] = successor state; complete
	Accepting []bool
}

// NumStates returns the number of states.
func (d *DBA) NumStates() int { return len(d.Delta) }

// Validate checks internal consistency (completeness, ranges).
func (d *DBA) Validate() error {
	n := d.NumStates()
	if n == 0 {
		return fmt.Errorf("buchi: DBA has no states")
	}
	if d.Alphabet <= 0 {
		return fmt.Errorf("buchi: DBA alphabet size %d", d.Alphabet)
	}
	if d.Start < 0 || d.Start >= n {
		return fmt.Errorf("buchi: DBA start %d out of range", d.Start)
	}
	if len(d.Accepting) != n {
		return fmt.Errorf("buchi: DBA accepting vector has %d entries, want %d", len(d.Accepting), n)
	}
	for q, row := range d.Delta {
		if len(row) != d.Alphabet {
			return fmt.Errorf("buchi: DBA state %d has %d transitions, want %d", q, len(row), d.Alphabet)
		}
		for a, to := range row {
			if to < 0 || to >= n {
				return fmt.Errorf("buchi: DBA transition %d --%d--> %d out of range", q, a, to)
			}
		}
	}
	return nil
}

// StepWord runs the DBA on a finite word from Start, returning the final
// state and whether the run stays defined (it always does; DBAs are
// complete).
func (d *DBA) StepWord(word []Symbol) State {
	q := d.Start
	for _, a := range word {
		q = d.Delta[q][a]
	}
	return q
}

// AcceptsUP reports whether the DBA accepts the ultimately periodic word
// u·v^ω: the unique run is followed for |u| + |v|·NumStates steps, after
// which the (state, position-in-v) pair cycles; acceptance is whether the
// cycle contains an accepting state.
func (d *DBA) AcceptsUP(u, v []Symbol) bool {
	if len(v) == 0 {
		panic("buchi: AcceptsUP with empty period")
	}
	q := d.StepWord(u)
	// Find the cycle of (state, phase) pairs while reading v^ω.
	type cfg struct {
		q     State
		phase int
	}
	seen := map[cfg]int{}
	var trace []State
	phase := 0
	for {
		c := cfg{q, phase}
		if at, ok := seen[c]; ok {
			// States trace[at:] form the cycle.
			for _, s := range trace[at:] {
				if d.Accepting[s] {
					return true
				}
			}
			return false
		}
		seen[c] = len(trace)
		trace = append(trace, q)
		q = d.Delta[q][v[phase]]
		phase = (phase + 1) % len(v)
	}
}

// NBA converts the DBA to an equivalent NBA. Its rows and singleton
// successor sets are sliced from two backing arrays.
func (d *DBA) NBA() *NBA {
	n, alphabet := d.NumStates(), d.Alphabet
	nba := &NBA{
		Alphabet:  alphabet,
		Start:     []State{d.Start},
		Delta:     make([][][]State, n),
		Accepting: append([]bool(nil), d.Accepting...),
	}
	rows := make([][]State, n*alphabet)
	succ := make([]State, n*alphabet)
	for q := 0; q < n; q++ {
		base := q * alphabet
		nba.Delta[q] = rows[base : base+alphabet : base+alphabet]
		for a := 0; a < alphabet; a++ {
			succ[base+a] = d.Delta[q][a]
			rows[base+a] = succ[base+a : base+a+1 : base+a+1]
		}
	}
	return nba
}

// Universal returns the DBA accepting every ω-word over the alphabet.
func Universal(alphabet int) *DBA {
	row := make([]State, alphabet)
	return &DBA{
		Alphabet:  alphabet,
		Start:     0,
		Delta:     [][]State{row},
		Accepting: []bool{true},
	}
}

// EmptyDBA returns the DBA accepting no ω-word.
func EmptyDBA(alphabet int) *DBA {
	row := make([]State, alphabet)
	return &DBA{
		Alphabet:  alphabet,
		Start:     0,
		Delta:     [][]State{row},
		Accepting: []bool{false},
	}
}

// Intersect returns a DBA for L(d) ∩ L(e), by the textbook
// generalized-Büchi degeneralization with a round-robin copy index: from a
// state with copy index i, the index advances when the *source* state's
// i-th component is accepting; accepting product states are those with
// index 0 whose d-component is accepting. Both acceptance sets are then
// visited infinitely often iff the index cycles forever.
//
// Only the reachable product is built, numbered in breadth-first order
// from the start (the numbering Trim gives the full product), with every
// row sliced from one backing array.
func (d *DBA) Intersect(e *DBA) *DBA {
	if d.Alphabet != e.Alphabet {
		panic("buchi: Intersect with mismatched alphabets")
	}
	ne, alphabet := e.NumStates(), d.Alphabet
	id := func(q1, q2 State, flag int) int { return (q1*ne+q2)*2 + flag }
	idx := make([]int32, d.NumStates()*ne*2) // product id → output state + 1; 0 = unseen
	order := []int{id(d.Start, e.Start, 0)}
	idx[order[0]] = 1
	var flat []State
	for i := 0; i < len(order); i++ {
		q1, q2, flag := order[i]/2/ne, order[i]/2%ne, order[i]%2
		nf := flag
		if flag == 0 && d.Accepting[q1] {
			nf = 1
		} else if flag == 1 && e.Accepting[q2] {
			nf = 0
		}
		for a := 0; a < alphabet; a++ {
			t := id(d.Delta[q1][a], e.Delta[q2][a], nf)
			if idx[t] == 0 {
				order = append(order, t)
				idx[t] = int32(len(order))
			}
			flat = append(flat, State(idx[t]-1))
		}
	}
	out := &DBA{
		Alphabet:  alphabet,
		Start:     0,
		Delta:     make([][]State, len(order)),
		Accepting: make([]bool, len(order)),
	}
	for i, p := range order {
		out.Delta[i] = flat[i*alphabet : (i+1)*alphabet : (i+1)*alphabet]
		out.Accepting[i] = p%2 == 0 && d.Accepting[p/2/ne]
	}
	return out
}

// Union returns a DBA for L(d) ∪ L(e): the plain product accepting when
// either component is accepting ("infinitely often F1 or infinitely often
// F2" equals "infinitely often (F1×Q ∪ Q×F2)").
func (d *DBA) Union(e *DBA) *DBA {
	if d.Alphabet != e.Alphabet {
		panic("buchi: Union with mismatched alphabets")
	}
	nd, ne := d.NumStates(), e.NumStates()
	id := func(q1, q2 State) State { return q1*ne + q2 }
	total := nd * ne
	out := &DBA{
		Alphabet:  d.Alphabet,
		Start:     id(d.Start, e.Start),
		Delta:     make([][]State, total),
		Accepting: make([]bool, total),
	}
	for q1 := 0; q1 < nd; q1++ {
		for q2 := 0; q2 < ne; q2++ {
			q := id(q1, q2)
			row := make([]State, d.Alphabet)
			for a := 0; a < d.Alphabet; a++ {
				row[a] = id(d.Delta[q1][a], e.Delta[q2][a])
			}
			out.Delta[q] = row
			out.Accepting[q] = d.Accepting[q1] || e.Accepting[q2]
		}
	}
	return out.Trim()
}

// Trim removes states unreachable from Start, renumbering the remainder.
func (d *DBA) Trim() *DBA {
	n := d.NumStates()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = -1
	}
	order := []State{d.Start}
	idx[d.Start] = 0
	for i := 0; i < len(order); i++ {
		q := order[i]
		for a := 0; a < d.Alphabet; a++ {
			t := d.Delta[q][a]
			if idx[t] < 0 {
				idx[t] = len(order)
				order = append(order, t)
			}
		}
	}
	out := &DBA{
		Alphabet:  d.Alphabet,
		Start:     0,
		Delta:     make([][]State, len(order)),
		Accepting: make([]bool, len(order)),
	}
	for i, q := range order {
		row := make([]State, d.Alphabet)
		for a := 0; a < d.Alphabet; a++ {
			row[a] = idx[d.Delta[q][a]]
		}
		out.Delta[i] = row
		out.Accepting[i] = d.Accepting[q]
	}
	return out
}

// Condense merges every dead state (a state from which no accepting run
// exists) into a single rejecting sink, after trimming unreachable
// states. The language is preserved — dead states are closed under
// successors — and chained products (e.g. repeated Minus) stay small.
func (d *DBA) Condense() *DBA {
	t := d.Trim()
	live := t.NBA().LiveStates()
	idx := make([]int, t.NumStates())
	order := make([]State, 0, t.NumStates())
	anyDead := false
	for q := 0; q < t.NumStates(); q++ {
		if live[q] {
			idx[q] = len(order)
			order = append(order, q)
		} else {
			anyDead = true
			idx[q] = -1
		}
	}
	if !anyDead {
		return t
	}
	sink := len(order)
	total := sink + 1
	out := &DBA{
		Alphabet:  t.Alphabet,
		Delta:     make([][]State, total),
		Accepting: make([]bool, total),
	}
	if live[t.Start] {
		out.Start = idx[t.Start]
	} else {
		out.Start = sink
	}
	for i, q := range order {
		row := make([]State, t.Alphabet)
		for a := 0; a < t.Alphabet; a++ {
			to := t.Delta[q][a]
			if idx[to] >= 0 {
				row[a] = idx[to]
			} else {
				row[a] = sink
			}
		}
		out.Delta[i] = row
		out.Accepting[i] = t.Accepting[q]
	}
	sinkRow := make([]State, t.Alphabet)
	for a := range sinkRow {
		sinkRow[a] = sink
	}
	out.Delta[sink] = sinkRow
	return out
}

// Complement returns an NBA for the complement of L(d). A word is rejected
// by the deterministic d exactly when its unique run visits accepting
// states finitely often; the NBA guesses the point after which no
// accepting state occurs (a second, "safe" copy of the state space
// restricted to non-accepting states).
func (d *DBA) Complement() *NBA {
	n := d.NumStates()
	// States 0..n-1: tracking copy. States n..2n-1: safe copy.
	nba := &NBA{
		Alphabet:  d.Alphabet,
		Start:     nil,
		Delta:     make([][][]State, 2*n),
		Accepting: make([]bool, 2*n),
	}
	nba.Start = []State{d.Start}
	if !d.Accepting[d.Start] {
		nba.Start = append(nba.Start, d.Start+n)
	}
	for q := 0; q < n; q++ {
		nba.Delta[q] = make([][]State, d.Alphabet)
		nba.Delta[q+n] = make([][]State, d.Alphabet)
		nba.Accepting[q+n] = true
		for a := 0; a < d.Alphabet; a++ {
			t := d.Delta[q][a]
			succ := []State{t}
			if !d.Accepting[t] {
				succ = append(succ, t+n)
			}
			nba.Delta[q][a] = succ
			if !d.Accepting[t] {
				nba.Delta[q+n][a] = []State{t + n}
			} else {
				nba.Delta[q+n][a] = nil // dead: obligation violated
			}
		}
	}
	return nba
}

// WordDBA returns a DBA accepting exactly the single ultimately periodic
// word u·v^ω.
func WordDBA(alphabet int, u, v []Symbol) *DBA {
	if len(v) == 0 {
		panic("buchi: WordDBA with empty period")
	}
	total := len(u) + len(v) + 1 // positions plus a rejecting sink
	sink := total - 1
	letterAt := func(i int) Symbol {
		if i < len(u) {
			return u[i]
		}
		return v[(i-len(u))%len(v)]
	}
	nextPos := func(i int) int {
		if i+1 < len(u)+len(v) {
			return i + 1
		}
		return len(u) // wrap into the period
	}
	d := &DBA{
		Alphabet:  alphabet,
		Start:     0,
		Delta:     make([][]State, total),
		Accepting: make([]bool, total),
	}
	for i := 0; i < len(u)+len(v); i++ {
		row := make([]State, alphabet)
		for a := 0; a < alphabet; a++ {
			if a == letterAt(i) {
				row[a] = nextPos(i)
			} else {
				row[a] = sink
			}
		}
		d.Delta[i] = row
		d.Accepting[i] = true
	}
	sinkRow := make([]State, alphabet)
	for a := range sinkRow {
		sinkRow[a] = sink
	}
	d.Delta[sink] = sinkRow
	return d
}

// NotWordDBA returns a DBA accepting every ω-word except u·v^ω: the same
// position tracker, but the mismatch sink is accepting and the tracking
// states are not (a run that never mismatches equals the excluded word).
func NotWordDBA(alphabet int, u, v []Symbol) *DBA {
	d := WordDBA(alphabet, u, v)
	for q := range d.Accepting {
		d.Accepting[q] = !d.Accepting[q]
	}
	return d
}
