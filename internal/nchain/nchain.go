// Package nchain extends the two-process full-information analysis to n
// synchronous processes on a complete graph with at most f message losses
// per round — the paper's closing future-work direction ("this work
// should be fully extended for any given number of processes").
//
// A round's loss pattern is a set of at most f directed edges whose
// messages are dropped (the scheme O_f of Section V-A restricted to K_n);
// a configuration after r rounds is a loss-pattern sequence plus a binary
// input vector. Any r-round algorithm is refined by the full-information
// protocol, so r-round consensus exists iff no connected component of the
// shares-a-view graph contains both the all-0 and the all-1 input vector.
//
// For the complete graph Theorem V.1 specializes to: solvable iff
// f < c(K_n) = n−1, and flooding gives an (n−1)-round algorithm; this
// package confirms both the threshold and the exact bounded horizons for
// small n, r.
package nchain

import (
	"fmt"
	"math/big"
	"sort"
)

// LossPattern is one round's set of dropped directed edges on K_n,
// encoded as a bitmask over the n·(n−1) ordered pairs.
type LossPattern uint64

// edgeIndex numbers the directed edges of K_n: (from, to), from ≠ to.
func edgeIndex(n, from, to int) int {
	idx := from*(n-1) + to
	if to > from {
		idx--
	}
	return idx
}

// Dropped reports whether the pattern drops the message from → to.
func (p LossPattern) Dropped(n, from, to int) bool {
	return p&(1<<edgeIndex(n, from, to)) != 0
}

// Count returns the number of dropped messages.
func (p LossPattern) Count() int {
	c := 0
	for ; p != 0; p &= p - 1 {
		c++
	}
	return c
}

// Directed-edge caps for loss-pattern enumeration, centralized here so
// every entry point shares one constant behind the errTooLarge check
// (historically the limit was hard-coded in three places, two of them
// panic paths reachable from Analyze).
const (
	// maxDirEdges bounds instances under the default backends. It keeps
	// the C(E, ≤f) pattern set and the 2^n-input engine walk within the
	// same budget the historical 2^20 sweep allowed.
	maxDirEdges = 20
	// maxDirEdgesSymbolic is the raised cap honored when the request
	// explicitly selects fullinfo.BackendSymbolic: the n-process
	// steppers carry no chain structure, so the engine still
	// enumerates, but the opt-in is the caller accepting the larger
	// combinatorial budget (e.g. a 13-cycle with f=1: 26 directed
	// edges, 27 patterns) that the symbolic work made generable without
	// a 2^26 sweep.
	maxDirEdgesSymbolic = 26
	// maxPatternBits is the hard representation limit of the uint64
	// LossPattern mask; the enumerators panic past it.
	maxPatternBits = 63
)

// PatternsUpTo enumerates every loss pattern of K_n with at most f
// drops, in ascending mask order.
func PatternsUpTo(n, f int) []LossPattern {
	return patternsUpTo(n*(n-1), f)
}

// patternsUpTo enumerates the bitmasks over `edges` bits with at most f
// bits set, ascending. It generates the C(edges, ≤f) subsets directly —
// never the 2^edges sweep — so wide-but-sparse instances (the raised
// symbolic cap) stay proportional to their pattern count.
func patternsUpTo(edges, f int) []LossPattern {
	if edges > maxPatternBits {
		panic("nchain: pattern space exceeds the 64-bit loss mask")
	}
	if f < 0 {
		// The historical sweep filtered on Count() ≤ f, so a negative
		// budget admits nothing at all.
		return nil
	}
	if f > edges {
		f = edges
	}
	var out []LossPattern
	var rec func(mask LossPattern, nextBit, remaining int)
	rec = func(mask LossPattern, nextBit, remaining int) {
		out = append(out, mask)
		if remaining == 0 {
			return
		}
		for b := nextBit; b < edges; b++ {
			rec(mask|1<<b, b+1, remaining-1)
		}
	}
	rec(0, 0, f)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Analysis is the result of the bounded-round computation. Configs
// saturates at math.MaxInt; ConfigsExact is non-nil exactly when the
// true count exceeds int range (so small-instance Analysis values stay
// comparable with ==), mirroring chain.Analysis.
type Analysis struct {
	N, F, Rounds    int
	Configs         int
	Components      int
	MixedComponents int
	Solvable        bool
	ConfigsExact    *big.Int
}

// String implements fmt.Stringer.
func (a Analysis) String() string {
	return fmt.Sprintf("n=%d f=%d r=%d: configs=%d components=%d mixed=%d solvable=%v",
		a.N, a.F, a.Rounds, a.Configs, a.Components, a.MixedComponents, a.Solvable)
}

// Threshold returns the Theorem V.1 prediction for K_n: solvable iff
// f < n−1.
func Threshold(n, f int) bool { return f < n-1 }
