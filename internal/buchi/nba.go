package buchi

import (
	"fmt"
	"math/rand"
)

// NBA is a nondeterministic Büchi automaton. Missing transitions (empty
// successor sets) are allowed and kill the run.
type NBA struct {
	Alphabet  int
	Start     []State
	Delta     [][][]State // Delta[q][a] = successor set (may be empty)
	Accepting []bool
}

// NumStates returns the number of states.
func (n *NBA) NumStates() int { return len(n.Delta) }

// Validate checks internal consistency.
func (n *NBA) Validate() error {
	ns := n.NumStates()
	if n.Alphabet <= 0 {
		return fmt.Errorf("buchi: NBA alphabet size %d", n.Alphabet)
	}
	if len(n.Accepting) != ns {
		return fmt.Errorf("buchi: NBA accepting vector has %d entries, want %d", len(n.Accepting), ns)
	}
	for _, s := range n.Start {
		if s < 0 || s >= ns {
			return fmt.Errorf("buchi: NBA start %d out of range", s)
		}
	}
	for q, rows := range n.Delta {
		if len(rows) != n.Alphabet {
			return fmt.Errorf("buchi: NBA state %d has %d symbol rows, want %d", q, len(rows), n.Alphabet)
		}
		for a, succ := range rows {
			for _, t := range succ {
				if t < 0 || t >= ns {
					return fmt.Errorf("buchi: NBA transition %d --%d--> %d out of range", q, a, t)
				}
			}
		}
	}
	return nil
}

// Lasso is a witness for non-emptiness: the ultimately periodic word
// Stem·Loop^ω is accepted.
type Lasso struct {
	Stem []Symbol
	Loop []Symbol
}

// IsEmpty reports whether L(n) = ∅; when non-empty it also returns a
// lasso witness: a path from a start state to an accepting state f plus a
// non-trivial cycle from f back to itself.
//
// One SCC pass over the reachable part decides emptiness in O(V+E). The
// witness is fixed by rule, not by search order: f is the lowest-numbered
// reachable accepting state on a cycle; the stem is the first-found
// shortest word from the start states to f and the loop the first-found
// shortest non-empty word from f back to f, both breadth-first with the
// start states, symbols and successor lists scanned in order.
func (n *NBA) IsEmpty() (empty bool, witness *Lasso) {
	f := -1
	tj := newTarjan(n.Delta, func(scc []State, cyclic bool) {
		if !cyclic {
			return
		}
		for _, q := range scc {
			if n.Accepting[q] && (f < 0 || q < f) {
				f = q
			}
		}
	})
	for _, s := range n.Start {
		tj.visit(s)
	}
	if f < 0 {
		return true, nil
	}
	stem, _ := n.shortestWord(n.Start, f, false)
	loop, _ := n.cycleThrough(f)
	return false, &Lasso{Stem: stem, Loop: loop}
}

// cycleThrough finds a shortest non-trivial cycle f → … → f, returning its
// input word.
func (n *NBA) cycleThrough(f State) ([]Symbol, bool) {
	return n.shortestWord([]State{f}, f, true)
}

// shortestWord breadth-first searches from the sources (deduplicated, in
// order) for target and returns the first-found shortest word leading
// there, read off the parent links. The word is empty when target is a
// source, unless nonEmpty asks for a path of at least one step.
func (n *NBA) shortestWord(sources []State, target State, nonEmpty bool) ([]Symbol, bool) {
	ns := n.NumStates()
	seen := make([]bool, ns)
	parent := make([]State, ns) // -1 at the sources
	sym := make([]Symbol, ns)
	queue := make([]State, 0, ns)
	for _, s := range sources {
		if s == target && !nonEmpty {
			return []Symbol{}, true
		}
		if !seen[s] {
			seen[s], parent[s] = true, -1
			queue = append(queue, s)
		}
	}
	for i := 0; i < len(queue); i++ {
		q := queue[i]
		for a := 0; a < n.Alphabet; a++ {
			for _, t := range n.Delta[q][a] {
				if t == target {
					return wordThrough(parent, sym, q, a), true
				}
				if !seen[t] {
					seen[t], parent[t], sym[t] = true, q, a
					queue = append(queue, t)
				}
			}
		}
	}
	return nil, false
}

// wordThrough spells the parent-link path from its source to q, followed by
// the symbol a.
func wordThrough(parent []State, sym []Symbol, q State, a Symbol) []Symbol {
	k := 1
	for x := q; parent[x] >= 0; x = parent[x] {
		k++
	}
	w := make([]Symbol, k)
	w[k-1] = a
	for x := q; parent[x] >= 0; x = parent[x] {
		k--
		w[k-1] = sym[x]
	}
	return w
}

// Intersect returns an NBA for L(n) ∩ L(m), using the source-state
// round-robin degeneralization (see DBA.Intersect). Only the reachable
// product is built.
func (n *NBA) Intersect(m *NBA) *NBA {
	if n.Alphabet != m.Alphabet {
		panic("buchi: Intersect with mismatched alphabets")
	}
	nm := m.NumStates()
	id := func(q1, q2 State, flag int) State { return (q1*nm+q2)*2 + flag }
	var start []State
	for _, s1 := range n.Start {
		for _, s2 := range m.Start {
			start = append(start, id(s1, s2, 0))
		}
	}
	succ := func(dst []State, p State, a Symbol) []State {
		q1, q2, flag := p/2/nm, p/2%nm, p%2
		nf := flag
		if flag == 0 && n.Accepting[q1] {
			nf = 1
		} else if flag == 1 && m.Accepting[q2] {
			nf = 0
		}
		for _, t1 := range n.Delta[q1][a] {
			for _, t2 := range m.Delta[q2][a] {
				dst = append(dst, id(t1, t2, nf))
			}
		}
		return dst
	}
	accepting := func(p State) bool { return p%2 == 0 && n.Accepting[p/2/nm] }
	return reachablePart(n.Alphabet, n.NumStates()*nm*2, start, succ, accepting)
}

// reachablePart builds the part of an implicitly given NBA that is
// reachable from start. Its states are the ids 0..total-1, succ appends
// the a-successors of a state in order, and accepting marks the accepting
// ones. The result is what materializing all total states and calling
// Trim gives: reachable states numbered in id order, successor lists and
// start list kept in order (duplicates included).
func reachablePart(alphabet, total int, start []State, succ func(dst []State, p State, a Symbol) []State, accepting func(State) bool) *NBA {
	idx := make([]int32, total) // 1 once discovered; then the new number
	var order []State           // discovery order
	var succs []State           // successor lists of order, symbol by symbol
	ends := []int{0}            // succs[ends[j*alphabet+a]:ends[j*alphabet+a+1]]
	for _, s := range start {
		if idx[s] == 0 {
			idx[s] = 1
			order = append(order, s)
		}
	}
	for j := 0; j < len(order); j++ {
		for a := 0; a < alphabet; a++ {
			from := len(succs)
			succs = succ(succs, order[j], a)
			for _, t := range succs[from:] {
				if idx[t] == 0 {
					idx[t] = 1
					order = append(order, t)
				}
			}
			ends = append(ends, len(succs))
		}
	}
	numbered := int32(0)
	for p, seen := range idx {
		if seen != 0 {
			idx[p] = numbered
			numbered++
		}
	}
	out := &NBA{
		Alphabet:  alphabet,
		Delta:     make([][][]State, len(order)),
		Accepting: make([]bool, len(order)),
	}
	for _, s := range start {
		out.Start = append(out.Start, State(idx[s]))
	}
	rows := make([][]State, len(order)*alphabet)
	flat := make([]State, len(succs))
	for k, t := range succs {
		flat[k] = State(idx[t])
	}
	for j, p := range order {
		q := idx[p]
		r := rows[int(q)*alphabet : int(q+1)*alphabet : int(q+1)*alphabet]
		for a := range r {
			if lo, hi := ends[j*alphabet+a], ends[j*alphabet+a+1]; hi > lo {
				r[a] = flat[lo:hi:hi]
			}
		}
		out.Delta[q] = r
		out.Accepting[q] = accepting(p)
	}
	return out
}

// Trim removes states unreachable from the start set, keeping the
// survivors' relative order.
func (n *NBA) Trim() *NBA {
	succ := func(dst []State, q State, a Symbol) []State { return append(dst, n.Delta[q][a]...) }
	return reachablePart(n.Alphabet, n.NumStates(), n.Start, succ, func(q State) bool { return n.Accepting[q] })
}

// AcceptsUP reports whether the NBA accepts u·v^ω, by intersecting with
// the single-word DBA and testing emptiness.
func (n *NBA) AcceptsUP(u, v []Symbol) bool {
	word := WordDBA(n.Alphabet, u, v).NBA()
	empty, _ := n.Intersect(word).IsEmpty()
	return !empty
}

// LiveStates returns the set of states from which some accepting run
// exists (i.e. that can reach an accepting state lying on a cycle). One
// SCC pass over all states decides it: a component is live when it is
// cyclic and holds an accepting state, or when a member has a successor in
// a live component — which, in the pass's reverse topological order, has
// been decided already.
func (n *NBA) LiveStates() []bool {
	live := make([]bool, n.NumStates())
	tj := newTarjan(n.Delta, func(scc []State, cyclic bool) {
		for _, q := range scc {
			if cyclic && n.Accepting[q] || reachesLive(n.Delta[q], live) {
				for _, s := range scc {
					live[s] = true
				}
				return
			}
		}
	})
	for q := range n.Delta {
		tj.visit(q)
	}
	return live
}

// reachesLive reports whether some successor in rows is live. Successors
// inside the component being decided are not marked yet, so only earlier
// components count.
func reachesLive(rows [][]State, live []bool) bool {
	for _, succ := range rows {
		for _, t := range succ {
			if live[t] {
				return true
			}
		}
	}
	return false
}

// AcceptsPrefix reports whether some ω-word in L(n) begins with the given
// finite word: the subset construction run on the prefix must reach a live
// state.
func (n *NBA) AcceptsPrefix(word []Symbol) bool {
	live := n.LiveStates()
	return n.acceptsPrefixWithLive(word, live)
}

func (n *NBA) acceptsPrefixWithLive(word []Symbol, live []bool) bool {
	cur := map[State]bool{}
	for _, s := range n.Start {
		cur[s] = true
	}
	for _, a := range word {
		next := map[State]bool{}
		for q := range cur {
			for _, t := range n.Delta[q][a] {
				next[t] = true
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	for q := range cur {
		if live[q] {
			return true
		}
	}
	return false
}

// PrefixOracle returns a stateful oracle for incremental prefix queries;
// it precomputes live states once and then supports O(|Δ|) steps.
type PrefixOracle struct {
	n    *NBA
	live []bool
	cur  map[State]bool
}

// NewPrefixOracle builds an oracle positioned at ε.
func (n *NBA) NewPrefixOracle() *PrefixOracle {
	o := &PrefixOracle{n: n, live: n.LiveStates(), cur: map[State]bool{}}
	for _, s := range n.Start {
		o.cur[s] = true
	}
	return o
}

// Step extends the prefix by one symbol; it returns false when no ω-word
// of the language has the extended prefix (the oracle is then dead and
// further Steps keep returning false).
func (o *PrefixOracle) Step(a Symbol) bool {
	next := map[State]bool{}
	for q := range o.cur {
		for _, t := range o.n.Delta[q][a] {
			next[t] = true
		}
	}
	o.cur = next
	return o.Live()
}

// Live reports whether the current prefix extends to a word of the
// language.
func (o *PrefixOracle) Live() bool {
	for q := range o.cur {
		if o.live[q] {
			return true
		}
	}
	return false
}

// CanStep reports whether appending a would keep the oracle live, without
// moving it.
func (o *PrefixOracle) CanStep(a Symbol) bool {
	next := map[State]bool{}
	for q := range o.cur {
		for _, t := range o.n.Delta[q][a] {
			next[t] = true
		}
	}
	for q := range next {
		if o.live[q] {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the oracle (sharing the immutable
// automaton and live set).
func (o *PrefixOracle) Clone() *PrefixOracle {
	cur := make(map[State]bool, len(o.cur))
	for q := range o.cur {
		cur[q] = true
	}
	return &PrefixOracle{n: o.n, live: o.live, cur: cur}
}

// SamplePrefix draws a uniform-ish random prefix of the given length from
// the language, or ok=false when the language is empty. At each step a
// uniformly random live-extending symbol is chosen.
func (n *NBA) SamplePrefix(rng *rand.Rand, length int) (word []Symbol, ok bool) {
	o := n.NewPrefixOracle()
	if !o.Live() {
		return nil, false
	}
	word = make([]Symbol, 0, length)
	for i := 0; i < length; i++ {
		var choices []Symbol
		for a := 0; a < n.Alphabet; a++ {
			if o.CanStep(a) {
				choices = append(choices, a)
			}
		}
		if len(choices) == 0 {
			return nil, false
		}
		a := choices[rng.Intn(len(choices))]
		o.Step(a)
		word = append(word, a)
	}
	return word, true
}

// Degeneralize builds an NBA from a generalized Büchi skeleton with k
// acceptance sets: states Q×{0..k−1}; the copy index advances when the
// source state belongs to the set it waits for; accepting states are index
// 0 members of set 0. All sets are visited infinitely often iff the index
// cycles forever. Only the reachable part is built, numbered as Trim
// numbers the full construction.
func Degeneralize(alphabet int, numStates int, start []State, delta [][][]State, sets [][]bool) *NBA {
	k := len(sets)
	if k == 0 {
		panic("buchi: Degeneralize with no acceptance sets")
	}
	id := func(q State, i int) State { return q*k + i }
	var starts []State
	for _, s := range start {
		starts = append(starts, id(s, 0))
	}
	succ := func(dst []State, p State, a Symbol) []State {
		q, i := p/k, p%k
		ni := i
		if sets[i][q] {
			ni = (i + 1) % k
		}
		for _, t := range delta[q][a] {
			dst = append(dst, id(t, ni))
		}
		return dst
	}
	accepting := func(p State) bool { return p%k == 0 && sets[0][p/k] }
	return reachablePart(alphabet, numStates*k, starts, succ, accepting)
}
