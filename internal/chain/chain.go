// Package chain operationalizes the impossibility side of Fevat & Godard:
// bounded-round solvability analysis through full-information
// indistinguishability.
//
// A configuration is a pair (w, inputs) of a length-r scenario prefix
// w ∈ Pref(L) ∩ Γ^r and a binary input assignment. Any r-round algorithm
// is refined by the full-information protocol, so its decisions are
// functions of each process's full-information view; two configurations
// sharing a view for some process must receive the same decision. r-round
// consensus for L therefore exists iff no connected component of the
// "shares a view" graph contains both an all-0-input and an all-1-input
// configuration.
//
// For the full scheme Γ^ω this graph restricted to fixed inputs is — by
// Lemma III.4 / Corollary III.5 — exactly the path 0, 1, …, 3^r−1 in index
// order: the structural reason the Coordinated Attack Problem is
// unsolvable under "at most one loss per round". VerifyChainStructure
// checks this shape exhaustively.
package chain

import (
	"context"
	"math/big"

	"repro/internal/fullinfo"
	"repro/internal/omission"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Analysis reports the bounded-round solvability computation.
type Analysis struct {
	// Rounds is the horizon r.
	Rounds int
	// Configs is the number of configurations |Pref(L) ∩ Γ^r| · 4,
	// saturated at math.MaxInt when the true count no longer fits (the
	// symbolic backend reaches 4·3^r past int range around r ≥ 39;
	// ConfigsExact then carries the exact value).
	Configs int
	// Components is the number of connected components of the
	// indistinguishability graph.
	Components int
	// Solvable reports whether an r-round consensus algorithm exists for
	// the scheme.
	Solvable bool
	// MixedComponents counts components containing both unanimous-0 and
	// unanimous-1 configurations (Solvable ⟺ MixedComponents == 0).
	MixedComponents int
	// ConfigsExact is the exact configuration count when it exceeds int
	// range (Configs is then saturated); nil otherwise, so Analysis
	// values at enumerable horizons stay comparable with ==.
	ConfigsExact *big.Int
}

// viewKey interns (previous view, received view) pairs; received = -1
// encodes a null reception.
type viewKey struct {
	prev, recv int
}

type interner struct {
	m    map[viewKey]int
	next int
}

func newInterner() *interner { return &interner{m: map[viewKey]int{}} }

func (in *interner) id(prev, recv int) int {
	k := viewKey{prev, recv}
	if id, ok := in.m[k]; ok {
		return id
	}
	id := in.next
	in.m[k] = id
	in.next++
	return id
}

// config is one leaf of the execution tree.
type config struct {
	viewW, viewB int
	inputs       [2]sim.Value
	word         omission.Word
}

// alphabetOf returns the letters a scheme's prefixes may use: Γ for
// Γ-schemes, Σ (including the double omission) for Σ-schemes. The
// full-information analysis itself is alphabet-agnostic — the letter only
// determines who receives null — which is what makes the bounded-horizon
// question decidable even for the double-omission schemes the paper
// leaves open.
func alphabetOf(s *scheme.Scheme) []omission.Letter {
	if s.OverGamma() {
		return omission.Gamma
	}
	return omission.Sigma
}

// enumerate walks every scenario prefix of the scheme up to length r for
// all four input pairs, producing the leaf configurations with interned
// full-information views.
func enumerate(s *scheme.Scheme, r int) []config {
	alphabet := alphabetOf(s)
	in := newInterner()
	var out []config
	// Initial views: input value 0 → view id base+0, 1 → base+1, distinct
	// per process identity is unnecessary (views are compared per-process).
	init0 := in.id(-10, -10)
	init1 := in.id(-11, -11)
	initView := func(v sim.Value) int {
		if v == 0 {
			return init0
		}
		return init1
	}
	oracle := s.NewPrefixOracle()
	var walk func(o *scheme.PrefixOracle, depth int, vw, vb int, word omission.Word, inputs [2]sim.Value)
	walk = func(o *scheme.PrefixOracle, depth, vw, vb int, word omission.Word, inputs [2]sim.Value) {
		if depth == r {
			out = append(out, config{viewW: vw, viewB: vb, inputs: inputs, word: word.Clone()})
			return
		}
		for _, a := range alphabet {
			if !o.CanStep(a) {
				continue
			}
			o2 := o.Clone()
			o2.Step(a)
			// White receives black's view unless black's message is lost;
			// black receives white's unless white's is lost.
			rw, rb := vb, vw
			if a.LostBlack() {
				rw = -1
			}
			if a.LostWhite() {
				rb = -1
			}
			walk(o2, depth+1, in.id(vw, rw), in.id(vb, rb), append(word, a), inputs)
		}
	}
	for _, inputs := range sim.AllInputs() {
		if oracle.Live() {
			walk(oracle.Clone(), 0, initView(inputs[0]), initView(inputs[1]), nil, inputs)
		}
	}
	return out
}

// unionFind is a plain disjoint-set structure.
type unionFind struct{ parent, rank []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p, rank: make([]int, n)}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// Complex describes the one-dimensional protocol complex at horizon r —
// the topological object the paper's conclusion points at ([BG93],
// [HS99], [SZ00]): vertices are (process, view) pairs, and every
// configuration is an edge joining white's and black's local views. For
// two processes, consensus solvability is exactly a connectivity
// question: the scheme is r-round solvable iff no connected component of
// the complex spans both unanimous input assignments.
type Complex struct {
	Rounds     int
	Vertices   int
	Edges      int
	Components int
	// Connected reports whether the whole complex is a single component
	// (which forces unsolvability at this horizon).
	Connected bool
}

// ProtocolComplex builds the complex over all four binary input pairs.
// The engine's (process, view) vertices and components are exactly the
// complex's, and each configuration contributes one edge.
func ProtocolComplex(s *scheme.Scheme, r int) Complex {
	res, _, err := fullinfo.RunChecked(context.Background(), newChainStepper(s), r, fullinfo.Options{})
	if err != nil {
		panic(err) // unreachable: nothing cancels the run and the chain stepper never panics
	}
	return Complex{
		Rounds:     r,
		Vertices:   res.Vertices,
		Edges:      int(res.Configs),
		Components: res.Components,
		Connected:  res.Components <= 1,
	}
}

// ChainReport describes the indistinguishability structure of Γ^r with
// fixed inputs (Lemma III.4 / Corollary III.5).
type ChainReport struct {
	Rounds int
	Words  int
	// IsPath: every view is shared by at most two words, consecutive words
	// (in index order) share exactly one process's view, and non-adjacent
	// words share none.
	IsPath bool
	// BlindProcess[k] records which process cannot distinguish the words
	// of index k and k+1 (true = white), matching Corollary III.5:
	// white exactly when ind is odd.
	BlindProcess []bool
}

// VerifyChainStructure checks exhaustively that the words of Γ^r with
// fixed distinct inputs form a single path in index order under
// one-process indistinguishability.
func VerifyChainStructure(r int) ChainReport {
	rep := ChainReport{Rounds: r, Words: int(omission.Pow3Int64(r)), IsPath: true}
	in := newInterner()
	initW := in.id(-10, -10)
	initB := in.id(-11, -11)
	type views struct{ w, b int }
	byWord := make(map[string]views, rep.Words)
	var walk func(depth, vw, vb int, word omission.Word)
	var words []omission.Word
	walk = func(depth, vw, vb int, word omission.Word) {
		if depth == r {
			byWord[word.String()] = views{vw, vb}
			words = append(words, word.Clone())
			return
		}
		for _, a := range omission.Gamma {
			rw, rb := vb, vw
			if a.LostBlack() {
				rw = -1
			}
			if a.LostWhite() {
				rb = -1
			}
			walk(depth+1, in.id(vw, rw), in.id(vb, rb), append(word, a))
		}
	}
	walk(0, initW, initB, nil)

	// Count view sharing.
	shareW := map[int][]int{} // white view id -> indices (by ind)
	shareB := map[int][]int{}
	ordered := make([]views, rep.Words)
	for _, w := range words {
		k, err := omission.IndexInt64(w)
		if err != nil {
			panic(err)
		}
		v := byWord[w.String()]
		ordered[k] = v
		shareW[v.w] = append(shareW[v.w], int(k))
		shareB[v.b] = append(shareB[v.b], int(k))
	}
	adjacentPair := func(ks []int) bool {
		return len(ks) == 1 || (len(ks) == 2 && absInt(ks[0]-ks[1]) == 1)
	}
	for _, ks := range shareW {
		if !adjacentPair(ks) {
			rep.IsPath = false
		}
	}
	for _, ks := range shareB {
		if !adjacentPair(ks) {
			rep.IsPath = false
		}
	}
	rep.BlindProcess = make([]bool, 0, rep.Words-1)
	for k := 0; k+1 < rep.Words; k++ {
		whiteBlind := ordered[k].w == ordered[k+1].w
		blackBlind := ordered[k].b == ordered[k+1].b
		if whiteBlind == blackBlind { // exactly one must hold
			rep.IsPath = false
		}
		rep.BlindProcess = append(rep.BlindProcess, whiteBlind)
	}
	return rep
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
