// The symbolic index-interval backend.
//
// The enumerating engine walks every admissible history. For the
// two-process Γ-alphabet problems this repository actually analyzes,
// that walk is provably redundant: the index function of Definition
// III.1 is a bijection Γ^r → [0, 3^r − 1] (Lemma III.2) whose ±1
// adjacency *is* the indistinguishability relation (Lemma III.4), and
// PR 6's instrumentation showed the frontier is history-injective
// (dedup ratio exactly 1.0) — there is nothing left to compress
// per-history. The step change is to stop materializing histories at
// all: track the *set of admissible indices* at each horizon as a
// union of intervals, one list per scheme-DFA state, and read the
// whole analysis (configuration count, component structure, verdict)
// off the interval endpoints in closed form.
//
// Stepping an interval costs O(1) when the DFA state treats all three
// letters alike ([lo, hi] → [3·lo, 3·hi + 2]); states that distinguish
// letters split intervals at most a constant factor per round, and a
// frontier that fragments past Options.SymbolicMaxIntervals aborts
// with errSymbolicFragmented so callers fall back to the enumerating
// engine. Solvability at horizons far past enumeration (3^40 histories
// and beyond) then costs microseconds on schemes whose DFAs are
// letter-uniform almost everywhere (R1, Fair, AlmostFair, K-loss
// budgets before the budget bites).
package fullinfo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"
	"time"
)

// BackendMode selects how an analysis walks the admissible-history
// space.
type BackendMode int

const (
	// BackendAuto uses the symbolic index-interval backend whenever the
	// Stepper advertises a chain structure (SymbolicStepper) and the run
	// does not need a retained graph, falling back to the enumerating
	// engine otherwise — or mid-run, when the interval frontier
	// fragments past the threshold. The zero value, hence the default
	// everywhere.
	BackendAuto BackendMode = iota
	// BackendEnumerate always walks histories one by one.
	BackendEnumerate
	// BackendSymbolic insists on the symbolic backend. It still
	// degrades to enumeration when the Stepper has no chain structure,
	// the run retains a graph, or the intervals fragment — but then the
	// degradation is recorded in Stats.SymbolicFallbacks, where
	// BackendAuto records only genuine mid-run fragmentation.
	BackendSymbolic
)

// String returns the flag spelling of the mode.
func (m BackendMode) String() string {
	switch m {
	case BackendAuto:
		return "auto"
	case BackendEnumerate:
		return "enumerate"
	case BackendSymbolic:
		return "symbolic"
	}
	return fmt.Sprintf("BackendMode(%d)", int(m))
}

// ParseBackendMode parses a -backend flag value.
func ParseBackendMode(s string) (BackendMode, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "enumerate", "enum":
		return BackendEnumerate, nil
	case "symbolic", "sym":
		return BackendSymbolic, nil
	}
	return BackendAuto, fmt.Errorf("fullinfo: unknown backend %q (want auto, enumerate, or symbolic)", s)
}

// SymbolicSpec is the chain structure of a two-process Γ-alphabet
// problem: the scheme's prefix DFA re-expressed over index child
// offsets. Providing one (via SymbolicStepper) asserts that the
// Stepper's enumerate semantics are exactly the two-process chain of
// Lemma III.4 — two processes, four input assignments, per-copy
// configuration graphs that are paths on the sorted admissible
// indices, with cross-copy view sharing only at the extremal indices
// 0 (the all-black-loss word, whose white view is input-independent
// in the black coordinate) and 3^r − 1 (symmetrically). The symbolic
// result computation is derived from that shape and is wrong for any
// other.
type SymbolicSpec struct {
	// Base is the index branching factor per round: every index-k word
	// has children [Base·k, Base·k + Base − 1] (3 for Γ, by Definition
	// III.1).
	Base int
	// Start is the DFA start state, or negative when no history at all
	// is admissible.
	Start int
	// Next[s*Base+a] is the DFA successor of state s under letter a,
	// or −1 when the extension leaves Pref(L). Letters are numbered by
	// their child offset under an even parent index: for Γ, 0 is 'b'
	// (δ = −1), 1 is '.' (δ = 0), 2 is 'w' (δ = +1). Odd parent
	// indices mirror the offsets (letter a lands at Base − 1 − a) —
	// the (−1)^ind sign of the index recurrence.
	Next []int32
}

// SymbolicStepper is a Stepper that also exposes the chain structure
// the symbolic backend needs. SymbolicSpec returns ok=false when this
// particular instance has none (e.g. a Σ-alphabet scheme where the
// double omission is live), in which case the engine enumerates.
type SymbolicStepper interface {
	Stepper
	SymbolicSpec() (SymbolicSpec, bool)
}

func (sp SymbolicSpec) numStates() int {
	if sp.Base <= 0 {
		return 0
	}
	return len(sp.Next) / sp.Base
}

// minimize merges DFA states with identical residual prefix languages
// (Moore refinement, all live states initially one block; dead is its
// own implicit block). The payoff is structural, not just smaller
// tables: product constructions routinely distinguish states whose
// futures coincide — Fair()'s four-state DFA collapses to one
// universal state — and every merged state is one fewer list an index
// run can be split across, so frontiers that would fragment between
// redundant states stay whole.
func (sp SymbolicSpec) minimize() SymbolicSpec {
	n := sp.numStates()
	if n == 0 || sp.Start < 0 {
		return sp
	}
	B := sp.Base
	block := make([]int, n)
	blocks := 1
	for {
		index := make(map[string]int, blocks)
		next := make([]int, n)
		sig := make([]byte, 0, 8*(B+1))
		for s := 0; s < n; s++ {
			sig = sig[:0]
			sig = appendSig(sig, block[s])
			for a := 0; a < B; a++ {
				if t := sp.Next[s*B+a]; t < 0 {
					sig = appendSig(sig, -1)
				} else {
					sig = appendSig(sig, block[t])
				}
			}
			id, ok := index[string(sig)]
			if !ok {
				id = len(index)
				index[string(sig)] = id
			}
			next[s] = id
		}
		block = next
		if len(index) == blocks {
			break
		}
		blocks = len(index)
	}
	out := SymbolicSpec{Base: B, Start: block[sp.Start], Next: make([]int32, blocks*B)}
	for i := range out.Next {
		out.Next[i] = -1
	}
	for s := 0; s < n; s++ {
		for a := 0; a < B; a++ {
			if t := sp.Next[s*B+a]; t >= 0 {
				out.Next[block[s]*B+a] = int32(block[t])
			}
		}
	}
	return out
}

// appendSig appends a block id to a refinement signature.
func appendSig(sig []byte, v int) []byte {
	return append(sig,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ',')
}

// errSymbolicFragmented aborts a symbolic run whose interval frontier
// stopped being a compact union of ranges; the engine falls back to
// enumeration and records the event in Stats.SymbolicFallbacks.
var errSymbolicFragmented = errors.New("fullinfo: symbolic interval frontier fragmented past threshold")

const (
	// symDefaultMaxIntervals is the default fragmentation threshold:
	// the total (state, interval) pair count past which a symbolic run
	// abandons itself. Schemes that fragment do so geometrically (TW
	// doubles every round), so the precise value only shifts the
	// fallback horizon by a round or two; what matters is that the
	// symbolic attempt costs far less than the enumeration it would
	// have replaced.
	symDefaultMaxIntervals = 4096
	// symNarrowWidth is the interval width up to which a
	// letter-distinguishing DFA state is stepped by per-index
	// enumeration. A wider interval hitting such a state is genuine
	// exponential fragmentation — each index contributes its own
	// (non-adjacent) children — so the step aborts immediately instead
	// of materializing the shards.
	symNarrowWidth = 64
)

var (
	bigOne = big.NewInt(1)
	bigTwo = big.NewInt(2)
)

// span is one inclusive index interval [lo, hi]. Spans are immutable
// once in a frontier; stepping allocates fresh endpoints.
type span struct {
	lo, hi *big.Int
}

// symEngine tracks the admissible-index frontier of one chain problem
// as per-DFA-state sorted disjoint interval lists.
type symEngine struct {
	spec  SymbolicSpec
	opt   Options
	depth int
	cur   [][]span
	// intervals is the current (state, interval) pair count, peak its
	// lifetime maximum, lastRuns the maximal-run count of the last
	// result() (runs merge intervals across states, so runs ≤
	// intervals; their ratio is the fragmentation gauge).
	intervals int
	peak      int
	lastRuns  int
}

// symEngineFor returns a symbolic engine for the problem, or nil when
// the options or the Stepper rule the backend out.
func symEngineFor(st Stepper, opt Options) *symEngine {
	if opt.Backend == BackendEnumerate || opt.BuildGraph {
		return nil
	}
	ss, ok := st.(SymbolicStepper)
	if !ok {
		return nil
	}
	spec, ok := ss.SymbolicSpec()
	if !ok {
		return nil
	}
	return newSymEngine(spec, opt)
}

func newSymEngine(spec SymbolicSpec, opt Options) *symEngine {
	spec = spec.minimize()
	e := &symEngine{spec: spec, opt: opt, cur: make([][]span, spec.numStates())}
	if spec.Start >= 0 && spec.Start < len(e.cur) {
		e.cur[spec.Start] = []span{{lo: big.NewInt(0), hi: big.NewInt(0)}}
		e.intervals, e.peak, e.lastRuns = 1, 1, 1
	}
	return e
}

func (e *symEngine) maxIntervals() int {
	if e.opt.SymbolicMaxIntervals > 0 {
		return e.opt.SymbolicMaxIntervals
	}
	return symDefaultMaxIntervals
}

// step advances the frontier one round. On error (fragmentation) the
// frontier is left at its previous depth, so the caller can hand the
// unchanged problem to the enumerating engine.
func (e *symEngine) step() error {
	B := e.spec.Base
	bigB := big.NewInt(int64(B))
	next := make([][]span, len(e.cur))
	for s, spans := range e.cur {
		if len(spans) == 0 {
			continue
		}
		row := e.spec.Next[s*B : (s+1)*B]
		uniform := true
		for a := 1; a < B; a++ {
			if row[a] != row[0] {
				uniform = false
				break
			}
		}
		if uniform {
			// Every child of every index in the span is admissible and
			// lands in the same state: [lo, hi] → [B·lo, B·hi + B − 1],
			// exactly — no fragmentation, ever. (Or the whole span dies.)
			t := int(row[0])
			if t < 0 {
				continue
			}
			for _, sp := range spans {
				lo := new(big.Int).Mul(sp.lo, bigB)
				hi := new(big.Int).Mul(sp.hi, bigB)
				hi.Add(hi, big.NewInt(int64(B-1)))
				next[t] = append(next[t], span{lo: lo, hi: hi})
			}
			continue
		}
		// Letter-distinguishing state: each index's surviving children
		// depend on its parity, producing gapped child sets. Narrow
		// spans are stepped index by index (the merge below re-compacts
		// adjacent survivors); a wide span here is genuine exponential
		// fragmentation, so abort before materializing it.
		for _, sp := range spans {
			if new(big.Int).Sub(sp.hi, sp.lo).Cmp(big.NewInt(symNarrowWidth)) > 0 {
				return errSymbolicFragmented
			}
			for k := new(big.Int).Set(sp.lo); k.Cmp(sp.hi) <= 0; k.Add(k, bigOne) {
				odd := k.Bit(0) == 1
				for a := 0; a < B; a++ {
					t := int(row[a])
					if t < 0 {
						continue
					}
					off := int64(a)
					if odd {
						off = int64(B - 1 - a)
					}
					c := new(big.Int).Mul(k, bigB)
					c.Add(c, big.NewInt(off))
					next[t] = append(next[t], span{lo: c, hi: new(big.Int).Set(c)})
				}
			}
		}
	}
	total := 0
	for t := range next {
		next[t] = normalizeSpans(next[t])
		total += len(next[t])
	}
	if total > e.maxIntervals() {
		return errSymbolicFragmented
	}
	e.cur = next
	e.depth++
	e.intervals = total
	if total > e.peak {
		e.peak = total
	}
	return nil
}

// normalizeSpans sorts spans by lower endpoint and merges overlapping
// or adjacent ones in place.
func normalizeSpans(spans []span) []span {
	if len(spans) <= 1 {
		return spans
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo.Cmp(spans[j].lo) < 0 })
	out := spans[:1]
	gap := new(big.Int)
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if gap.Add(last.hi, bigOne); s.lo.Cmp(gap) <= 0 {
			if s.hi.Cmp(last.hi) > 0 {
				last.hi = s.hi
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// extendTo steps the frontier to depth r and computes the analysis
// there. Errors are either ctx.Err() or errSymbolicFragmented; in both
// cases the frontier is intact at its pre-error depth.
func (e *symEngine) extendTo(ctx context.Context, r int) (Result, error) {
	for e.depth < r {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if err := e.step(); err != nil {
			return Result{}, err
		}
	}
	return e.result(), nil
}

// result reads the full analysis off the interval frontier in closed
// form. Let S ⊆ [0, M], M = Base^depth − 1, be the admissible index
// set, |S| its size and m its number of maximal runs (adjacent indices
// merged across DFA states — the index is a bijection, so a given
// index lives in exactly one state's list). By the chain structure
// (Lemma III.4), each of the four input copies is a disjoint union of
// m paths, adjacent in-S index pairs share exactly one view (the
// parity-determined blind process, so never two pairs sharing a view
// with the same middle word), and the only cross-copy view sharing is
// at index 0 (white's view there ignores black's input: merges the
// copies pairwise across the black coordinate) and index M
// (symmetrically). Hence with has0 = [0 ∈ S], hasM = [M ∈ S], and
// sameRun = [m = 1 ∧ has0 ∧ hasM]:
//
//	Configs    = 4·|S|
//	Vertices   = 4·(|S| + m) − 2·has0 − 2·hasM
//	Components = 4·m − 2·has0 − 2·hasM + sameRun
//	Mixed      = sameRun  (the run then links all four copies, in
//	            particular all-0 with all-1)
//	Solvable   = ¬sameRun
//
// The differential suites in internal/chain pin these against both
// the enumerating engine and the materializing sequential reference on
// every named scheme and on random DBA schemes.
func (e *symEngine) result() Result {
	var all []span
	for _, spans := range e.cur {
		all = append(all, spans...)
	}
	runs := normalizeSpans(all)
	e.lastRuns = len(runs)
	if len(runs) == 0 {
		return Result{Solvable: true, Exhaustive: true}
	}
	size := new(big.Int)
	tmp := new(big.Int)
	for _, r := range runs {
		size.Add(size, tmp.Sub(r.hi, r.lo))
		size.Add(size, bigOne)
	}
	maxIdx := new(big.Int).Exp(big.NewInt(int64(e.spec.Base)), big.NewInt(int64(e.depth)), nil)
	maxIdx.Sub(maxIdx, bigOne)
	m := len(runs)
	has0 := runs[0].lo.Sign() == 0
	hasM := runs[m-1].hi.Cmp(maxIdx) == 0
	sameRun := m == 1 && has0 && hasM

	configs := new(big.Int).Lsh(size, 2)
	vertices := new(big.Int).Add(size, big.NewInt(int64(m)))
	vertices.Lsh(vertices, 2)
	components := 4 * m
	if has0 {
		components -= 2
		vertices.Sub(vertices, bigTwo)
	}
	if hasM {
		components -= 2
		vertices.Sub(vertices, bigTwo)
	}
	mixed := 0
	if sameRun {
		components++
		mixed = 1
	}
	res := Result{
		Configs:         satInt64(configs),
		Vertices:        satInt(vertices),
		Components:      components,
		MixedComponents: mixed,
		Solvable:        !sameRun,
		Exhaustive:      true,
	}
	if !configs.IsInt64() {
		res.ConfigsExact = configs
	}
	return res
}

// stats builds the Observer snapshot for a symbolic extension of
// `rounds` rounds that produced res.
func (e *symEngine) stats(res Result, rounds int, start time.Time, fallbacks int) Stats {
	return Stats{
		Horizon:           e.depth,
		Rounds:            rounds,
		Configs:           res.Configs,
		Vertices:          res.Vertices,
		Components:        res.Components,
		MixedComponents:   res.MixedComponents,
		Merges:            res.Vertices - res.Components,
		SymbolicRounds:    rounds,
		Intervals:         e.intervals,
		IntervalRuns:      e.lastRuns,
		IntervalsPeak:     e.peak,
		SymbolicFallbacks: fallbacks,
		WallNanos:         time.Since(start).Nanoseconds(),
	}
}

// satInt64 saturates a non-negative big integer to int64.
func satInt64(x *big.Int) int64 {
	if x.IsInt64() {
		return x.Int64()
	}
	return math.MaxInt64
}

// satInt saturates a non-negative big integer to int.
func satInt(x *big.Int) int {
	if x.IsInt64() {
		if v := x.Int64(); v <= math.MaxInt {
			return int(v)
		}
	}
	return math.MaxInt
}
