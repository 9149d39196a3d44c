package buchi

import (
	"math/rand"
	"reflect"
	"testing"
)

// The original quadratic emptiness algorithms — one path-copying BFS per
// accepting state, and a fixpoint for the live-state closure — and the
// product constructions that build every state before trimming. They are
// the references the linear SCC versions and the reachable-only products
// are differentially tested against; this is the only place they exist.

// refIsEmpty is the reference emptiness check with lasso extraction.
func (n *NBA) refIsEmpty() (empty bool, witness *Lasso) {
	reach, stems := n.refReachableWithPaths()
	for f := range n.Delta {
		if !reach[f] || !n.Accepting[f] {
			continue
		}
		if cyc, ok := n.refCycleThrough(f); ok {
			return false, &Lasso{Stem: stems[f], Loop: cyc}
		}
	}
	return true, nil
}

// refReachableWithPaths BFSes from the start states, recording for each
// reachable state one shortest input word leading to it.
func (n *NBA) refReachableWithPaths() (reach []bool, paths [][]Symbol) {
	ns := n.NumStates()
	reach = make([]bool, ns)
	paths = make([][]Symbol, ns)
	var queue []State
	for _, s := range n.Start {
		if !reach[s] {
			reach[s] = true
			paths[s] = []Symbol{}
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for a := 0; a < n.Alphabet; a++ {
			for _, t := range n.Delta[q][a] {
				if !reach[t] {
					reach[t] = true
					paths[t] = append(append([]Symbol{}, paths[q]...), a)
					queue = append(queue, t)
				}
			}
		}
	}
	return reach, paths
}

// refCycleThrough finds a non-trivial cycle f → … → f, returning its input
// word.
func (n *NBA) refCycleThrough(f State) ([]Symbol, bool) {
	ns := n.NumStates()
	visited := make([]bool, ns)
	paths := make([][]Symbol, ns)
	var queue []State
	// Seed with successors of f (ensures ≥ 1 step).
	for a := 0; a < n.Alphabet; a++ {
		for _, t := range n.Delta[f][a] {
			if t == f {
				return []Symbol{a}, true
			}
			if !visited[t] {
				visited[t] = true
				paths[t] = []Symbol{a}
				queue = append(queue, t)
			}
		}
	}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for a := 0; a < n.Alphabet; a++ {
			for _, t := range n.Delta[q][a] {
				if t == f {
					return append(append([]Symbol{}, paths[q]...), a), true
				}
				if !visited[t] {
					visited[t] = true
					paths[t] = append(append([]Symbol{}, paths[q]...), a)
					queue = append(queue, t)
				}
			}
		}
	}
	return nil, false
}

// refLiveStates returns the set of states from which some accepting run
// exists (i.e. that can reach an accepting state lying on a cycle).
func (n *NBA) refLiveStates() []bool {
	ns := n.NumStates()
	// anchors: accepting states on a non-trivial cycle.
	live := make([]bool, ns)
	for f := 0; f < ns; f++ {
		if !n.Accepting[f] {
			continue
		}
		if _, ok := n.refCycleThrough(f); ok {
			live[f] = true
		}
	}
	// Backward closure: predecessors of live states are live.
	changed := true
	for changed {
		changed = false
		for q := 0; q < ns; q++ {
			if live[q] {
				continue
			}
			for a := 0; a < n.Alphabet && !live[q]; a++ {
				for _, t := range n.Delta[q][a] {
					if live[t] {
						live[q] = true
						changed = true
						break
					}
				}
			}
		}
	}
	return live
}

// refIntersect builds the full DBA product and trims it afterwards.
func (d *DBA) refIntersect(e *DBA) *DBA {
	nd, ne := d.NumStates(), e.NumStates()
	id := func(q1, q2 State, flag int) State { return (q1*ne+q2)*2 + flag }
	total := nd * ne * 2
	out := &DBA{
		Alphabet:  d.Alphabet,
		Start:     id(d.Start, e.Start, 0),
		Delta:     make([][]State, total),
		Accepting: make([]bool, total),
	}
	for q1 := 0; q1 < nd; q1++ {
		for q2 := 0; q2 < ne; q2++ {
			for flag := 0; flag < 2; flag++ {
				q := id(q1, q2, flag)
				nf := flag
				if flag == 0 && d.Accepting[q1] {
					nf = 1
				} else if flag == 1 && e.Accepting[q2] {
					nf = 0
				}
				row := make([]State, d.Alphabet)
				for a := 0; a < d.Alphabet; a++ {
					row[a] = id(d.Delta[q1][a], e.Delta[q2][a], nf)
				}
				out.Delta[q] = row
				out.Accepting[q] = flag == 0 && d.Accepting[q1]
			}
		}
	}
	return out.Trim()
}

// refNBAIntersect builds the full NBA product and trims it afterwards.
func (n *NBA) refNBAIntersect(m *NBA) *NBA {
	nn, nm := n.NumStates(), m.NumStates()
	id := func(q1, q2 State, flag int) State { return (q1*nm+q2)*2 + flag }
	total := nn * nm * 2
	out := &NBA{
		Alphabet:  n.Alphabet,
		Delta:     make([][][]State, total),
		Accepting: make([]bool, total),
	}
	for _, s1 := range n.Start {
		for _, s2 := range m.Start {
			out.Start = append(out.Start, id(s1, s2, 0))
		}
	}
	for q1 := 0; q1 < nn; q1++ {
		for q2 := 0; q2 < nm; q2++ {
			for flag := 0; flag < 2; flag++ {
				q := id(q1, q2, flag)
				nf := flag
				if flag == 0 && n.Accepting[q1] {
					nf = 1
				} else if flag == 1 && m.Accepting[q2] {
					nf = 0
				}
				rows := make([][]State, n.Alphabet)
				for a := 0; a < n.Alphabet; a++ {
					for _, t1 := range n.Delta[q1][a] {
						for _, t2 := range m.Delta[q2][a] {
							rows[a] = append(rows[a], id(t1, t2, nf))
						}
					}
				}
				out.Delta[q] = rows
				out.Accepting[q] = flag == 0 && n.Accepting[q1]
			}
		}
	}
	return out.refTrim()
}

// refDegeneralize builds the full k-fold degeneralization and trims it
// afterwards.
func refDegeneralize(alphabet int, numStates int, start []State, delta [][][]State, sets [][]bool) *NBA {
	k := len(sets)
	id := func(q State, i int) State { return q*k + i }
	out := &NBA{
		Alphabet:  alphabet,
		Delta:     make([][][]State, numStates*k),
		Accepting: make([]bool, numStates*k),
	}
	for _, s := range start {
		out.Start = append(out.Start, id(s, 0))
	}
	for q := 0; q < numStates; q++ {
		for i := 0; i < k; i++ {
			ni := i
			if sets[i][q] {
				ni = (i + 1) % k
			}
			rows := make([][]State, alphabet)
			for a := 0; a < alphabet; a++ {
				for _, t := range delta[q][a] {
					rows[a] = append(rows[a], id(t, ni))
				}
			}
			out.Delta[id(q, i)] = rows
			out.Accepting[id(q, i)] = i == 0 && sets[0][q]
		}
	}
	return out.refTrim()
}

// refTrim removes states unreachable from the start set.
func (n *NBA) refTrim() *NBA {
	reach, _ := n.refReachableWithPaths()
	idx := make([]int, n.NumStates())
	var order []State
	for q, ok := range reach {
		if ok {
			idx[q] = len(order)
			order = append(order, q)
		} else {
			idx[q] = -1
		}
	}
	out := &NBA{
		Alphabet:  n.Alphabet,
		Delta:     make([][][]State, len(order)),
		Accepting: make([]bool, len(order)),
	}
	for _, s := range n.Start {
		out.Start = append(out.Start, idx[s])
	}
	for i, q := range order {
		rows := make([][]State, n.Alphabet)
		for a := 0; a < n.Alphabet; a++ {
			for _, t := range n.Delta[q][a] {
				if idx[t] >= 0 {
					rows[a] = append(rows[a], idx[t])
				}
			}
		}
		out.Delta[i] = rows
		out.Accepting[i] = n.Accepting[q]
	}
	return out
}

// randomNBA draws an NBA with 1–40 states, an alphabet of 1–4 symbols,
// transition density at most 0.15 and 1–3 start states.
func randomNBA(rng *rand.Rand) *NBA {
	ns, alphabet := 1+rng.Intn(40), 1+rng.Intn(4)
	density := 0.15 * rng.Float64()
	n := &NBA{Alphabet: alphabet, Delta: make([][][]State, ns), Accepting: make([]bool, ns)}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		n.Start = append(n.Start, rng.Intn(ns))
	}
	for q := range n.Delta {
		n.Delta[q] = randomRows(rng, ns, alphabet, density)
		n.Accepting[q] = rng.Intn(3) == 0
	}
	return n
}

// randomRows draws one state's successor sets: each (symbol, target) pair
// is present with the given probability.
func randomRows(rng *rand.Rand, ns, alphabet int, density float64) [][]State {
	rows := make([][]State, alphabet)
	for a := range rows {
		for t := 0; t < ns; t++ {
			if rng.Float64() < density {
				rows[a] = append(rows[a], t)
			}
		}
	}
	return rows
}

// checkAgainstReference compares every emptiness output of n with the
// reference algorithms.
func checkAgainstReference(t *testing.T, n *NBA) (empty bool) {
	t.Helper()
	empty, lasso := n.IsEmpty()
	refEmpty, refLasso := n.refIsEmpty()
	if empty != refEmpty || !reflect.DeepEqual(lasso, refLasso) {
		t.Fatalf("IsEmpty = %v %+v, reference %v %+v on %+v", empty, lasso, refEmpty, refLasso, n)
	}
	if live, ref := n.LiveStates(), n.refLiveStates(); !reflect.DeepEqual(live, ref) {
		t.Fatalf("LiveStates = %v, reference %v on %+v", live, ref, n)
	}
	for f := range n.Delta {
		cyc, ok := n.cycleThrough(f)
		refCyc, refOK := n.refCycleThrough(f)
		if ok != refOK || !reflect.DeepEqual(cyc, refCyc) {
			t.Fatalf("cycleThrough(%d) = %v %v, reference %v %v on %+v", f, cyc, ok, refCyc, refOK, n)
		}
	}
	return empty
}

func TestEmptinessMatchesReference(t *testing.T) {
	trials := 50000
	if testing.Short() {
		trials = 2000
	}
	rng := rand.New(rand.NewSource(18))
	nonEmpty := 0
	for i := 0; i < trials; i++ {
		if !checkAgainstReference(t, randomNBA(rng)) {
			nonEmpty++
		}
	}
	if nonEmpty == 0 || nonEmpty == trials {
		t.Fatalf("degenerate corpus: %d of %d non-empty", nonEmpty, trials)
	}
}

func FuzzEmptinessVsReference(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 0xff, 0, 0, 1, 1, 0, 2, 2, 0, 1})
	f.Add([]byte{7, 2, 1, 0, 3, 0x55, 0, 1, 2, 1, 0, 3, 2, 1, 0, 3, 0, 2, 4, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ns, alphabet, starts := 1+int(data[0])%40, 1+int(data[1])%4, 1+int(data[2])%3
		data = data[3:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := &NBA{Alphabet: alphabet, Delta: make([][][]State, ns), Accepting: make([]bool, ns)}
		for i := 0; i < starts; i++ {
			n.Start = append(n.Start, next()%ns)
		}
		for q := 0; q < ns; q += 8 {
			bits := next()
			for i := 0; i < 8 && q+i < ns; i++ {
				n.Accepting[q+i] = bits>>i&1 == 1
			}
		}
		for q := range n.Delta {
			n.Delta[q] = make([][]State, alphabet)
		}
		for len(data) >= 3 {
			q, a, s := next()%ns, next()%alphabet, next()%ns
			n.Delta[q][a] = append(n.Delta[q][a], s)
		}
		checkAgainstReference(t, n)
	})
}

func TestGeneralizedEmptyMatchesDegeneralize(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	nonEmpty := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		ns, alphabet := 1+rng.Intn(30), 1+rng.Intn(3)
		density := 0.2 * rng.Float64()
		delta := make([][][]State, ns)
		for q := range delta {
			delta[q] = randomRows(rng, ns, alphabet, density)
		}
		start := []State{rng.Intn(ns)}
		if rng.Intn(2) == 0 {
			start = append(start, rng.Intn(ns))
		}
		sets := make([][]bool, 1+rng.Intn(3))
		for k := range sets {
			sets[k] = make([]bool, ns)
			for q := range sets[k] {
				sets[k][q] = rng.Intn(3) == 0
			}
		}
		deg := Degeneralize(alphabet, ns, start, delta, sets)
		if ref := refDegeneralize(alphabet, ns, start, delta, sets); !reflect.DeepEqual(deg, ref) {
			t.Fatalf("Degeneralize = %+v, reference %+v", deg, ref)
		}
		want, _ := deg.refIsEmpty()
		if got := GeneralizedEmpty(start, delta, sets); got != want {
			t.Fatalf("GeneralizedEmpty = %v, degeneralized reference %v (start %v, delta %v, sets %v)", got, want, start, delta, sets)
		}
		if !want {
			nonEmpty++
		}
	}
	if nonEmpty == 0 || nonEmpty == trials {
		t.Fatalf("degenerate corpus: %d of %d non-empty", nonEmpty, trials)
	}
}

func TestDBAIntersectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 2000; i++ {
		alphabet := 1 + rng.Intn(4)
		d := randomDBA(rng, 1+rng.Intn(12), alphabet)
		e := randomDBA(rng, 1+rng.Intn(12), alphabet)
		if got, want := d.Intersect(e), d.refIntersect(e); !reflect.DeepEqual(got, want) {
			t.Fatalf("Intersect = %+v, reference %+v", got, want)
		}
	}
}

func TestTrimMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 5000; i++ {
		n := randomNBA(rng)
		if got, want := n.Trim(), n.refTrim(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Trim = %+v, reference %+v", got, want)
		}
	}
}

func TestNBAIntersectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		n, m := randomNBA(rng), randomNBA(rng)
		m.Alphabet = n.Alphabet
		for q := range m.Delta {
			m.Delta[q] = randomRows(rng, m.NumStates(), m.Alphabet, 0.15*rng.Float64())
		}
		if got, want := n.Intersect(m), n.refNBAIntersect(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("Intersect = %+v, reference %+v", got, want)
		}
	}
}

// TestEmptinessScalesLinearly pins the allocation profile of the SCC
// decision on an empty automaton with many accepting states, where the
// reference runs one path-copying search per accepting state (millions of
// allocations).
func TestEmptinessScalesLinearly(t *testing.T) {
	const ns = 4000
	n := &NBA{Alphabet: 2, Start: []State{0}, Delta: make([][][]State, ns), Accepting: make([]bool, ns)}
	for q := range n.Delta {
		n.Delta[q] = make([][]State, 2)
		for a := 0; a < 2; a++ {
			if q+a+1 < ns {
				n.Delta[q][a] = []State{q + a + 1}
			}
		}
		n.Accepting[q] = q%2 == 0
	}
	if empty, _ := n.IsEmpty(); !empty {
		t.Fatal("acyclic automaton reported non-empty")
	}
	if allocs := testing.AllocsPerRun(5, func() { n.IsEmpty() }); allocs >= 100 {
		t.Errorf("IsEmpty: %.0f allocations, want < 100", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { n.LiveStates() }); allocs >= 100 {
		t.Errorf("LiveStates: %.0f allocations, want < 100", allocs)
	}
}
