package buchi

// tarjan is an iterative Tarjan strongly-connected-components pass over a
// transition graph Delta[q][a] = successor set (symbols are ignored).
// Components are emitted in reverse topological order: when a component is
// emitted, every component reachable from it has been emitted before. One
// pass over the states reachable from the visited roots is O(V+E).
type tarjan struct {
	delta   [][][]State
	emit    func(scc []State, cyclic bool)
	index   []int32 // 1-based discovery number; 0 = not yet visited
	low     []int32
	onStack []bool
	stack   []State
	frames  []tarjanFrame
	count   int32
}

// tarjanFrame is one suspended DFS call: state q, about to scan
// delta[q][a][i].
type tarjanFrame struct{ q, a, i int }

// newTarjan prepares a pass; emit receives each component's members (valid
// only during the call) and whether the component carries a non-trivial
// cycle: two or more states, or a single state with a self-loop.
func newTarjan(delta [][][]State, emit func(scc []State, cyclic bool)) *tarjan {
	ns := len(delta)
	return &tarjan{
		delta:   delta,
		emit:    emit,
		index:   make([]int32, ns),
		low:     make([]int32, ns),
		onStack: make([]bool, ns),
		stack:   make([]State, 0, ns),
		frames:  make([]tarjanFrame, 0, ns),
	}
}

// visit emits every not yet emitted component reachable from root.
func (t *tarjan) visit(root State) {
	if t.index[root] != 0 {
		return
	}
	t.push(root)
	for len(t.frames) > 0 {
		fr := &t.frames[len(t.frames)-1]
		q, rows := fr.q, t.delta[fr.q]
		descended := false
		for fr.a < len(rows) && !descended {
			if fr.i == len(rows[fr.a]) {
				fr.a, fr.i = fr.a+1, 0
				continue
			}
			s := rows[fr.a][fr.i]
			fr.i++
			switch {
			case t.index[s] == 0:
				t.push(s)
				descended = true
			case t.onStack[s]:
				t.low[q] = min(t.low[q], t.index[s])
			}
		}
		if descended {
			continue
		}
		t.frames = t.frames[:len(t.frames)-1]
		if n := len(t.frames); n > 0 {
			p := t.frames[n-1].q
			t.low[p] = min(t.low[p], t.low[q])
		}
		if t.low[q] == t.index[q] {
			t.pop(q)
		}
	}
}

func (t *tarjan) push(q State) {
	t.count++
	t.index[q], t.low[q] = t.count, t.count
	t.onStack[q] = true
	t.stack = append(t.stack, q)
	t.frames = append(t.frames, tarjanFrame{q: q})
}

// pop emits the component rooted at q, which sits on top of the stack.
func (t *tarjan) pop(q State) {
	i := len(t.stack) - 1
	for t.stack[i] != q {
		i--
	}
	scc := t.stack[i:]
	for _, s := range scc {
		t.onStack[s] = false
	}
	t.emit(scc, len(scc) > 1 || hasSelfLoop(t.delta[q], q))
	t.stack = t.stack[:i]
}

// hasSelfLoop reports whether q, with transition rows rows, is its own
// successor.
func hasSelfLoop(rows [][]State, q State) bool {
	for _, succ := range rows {
		for _, s := range succ {
			if s == q {
				return true
			}
		}
	}
	return false
}

// GeneralizedEmpty decides emptiness of the generalized Büchi automaton
// with the given transition relation and acceptance sets (a run must visit
// every set infinitely often): it is empty exactly when no reachable
// component carrying a non-trivial cycle meets every set. It agrees with
// Degeneralize(alphabet, len(delta), start, delta, sets).IsEmpty() in
// O(V+E), without building the k-fold product.
func GeneralizedEmpty(start []State, delta [][][]State, sets [][]bool) bool {
	found := false
	tj := newTarjan(delta, func(scc []State, cyclic bool) {
		if !cyclic || found {
			return
		}
		for _, set := range sets {
			if !meets(scc, set) {
				return
			}
		}
		found = true
	})
	for _, s := range start {
		if found {
			break
		}
		tj.visit(s)
	}
	return !found
}

// meets reports whether some state of scc belongs to set.
func meets(scc []State, set []bool) bool {
	for _, q := range scc {
		if set[q] {
			return true
		}
	}
	return false
}
