// Package fullinfo is the shared streaming engine behind every
// bounded-round full-information solvability analysis in this repository
// (internal/chain for two processes, internal/nchain for n processes on
// K_n or an arbitrary graph).
//
// The analyses all have the same shape: grow the admissible r-round
// failure histories for every input assignment, intern each process's
// full-information view along the way, and decide whether some connected
// component of the "shares a view" relation contains both an
// all-0-input and an all-1-input leaf configuration. The engine factors
// that shape out behind the Stepper interface and makes it fast:
//
//   - Callers compile their admissibility oracle into integer state
//     (scheme.PrefixDFA) so a tree edge is a slice lookup, not an oracle
//     clone.
//
//   - One enumerating engine (Engine) sweeps the history tree a round at
//     a time over flat, reusable frontier arrays. A fixed horizon r is one
//     ExtendTo(r) call; a MinRounds search extends the same frontier
//     horizon by horizon. A run is one goroutine: the parallelism of a
//     service is its number of concurrent requests, each on its own
//     engine (and, through a sync.Pool, its own Scratch).
//
//   - The final round streams every leaf straight into a union-find keyed
//     by (process, view) as the growth sweep appends it — leaf
//     configurations are never materialized beyond the frontier itself.
//
//   - Components carry unanimous-0/1 flags, so a mixed component is
//     detected the moment it forms; with Options.EarlyExit the scan stops
//     there (the scheme is then provably not r-round solvable, and callers
//     asking only for the boolean need nothing more).
//
//   - Chain-structured two-process problems skip enumeration altogether
//     (the symbolic index-interval backend, symbolic.go).
//
// Correctness note: the engine counts components of the (process, view)
// vertex graph in which every leaf configuration links all of its
// vertices. Each configuration's vertices form one clique, and every
// vertex belongs to some configuration, so these components are in
// bijection with the components of the configuration
// indistinguishability graph that the materializing reference
// implementations (the test-only sequential walks of chain and nchain)
// compute — the differential tests in those packages pin this.
package fullinfo

import (
	"context"
	"fmt"
	"math/big"
	"runtime/debug"
)

// Stepper defines one full-information analysis problem: a process
// count, a finite action alphabet (letters, loss patterns, …), an
// admissibility automaton over integer states, and the per-round view
// update. An engine calls Step from one goroutine; a Stepper shared by
// concurrent engines must be safe for concurrent use. Per-call scratch
// comes from the Ctx.
type Stepper interface {
	// NumProcs returns the number of processes n (views per node).
	NumProcs() int
	// NumActions returns the size of the action alphabet.
	NumActions() int
	// Root returns the initial automaton state, or ok=false when no
	// history at all is admissible (empty scheme).
	Root() (state int, ok bool)
	// Step applies action a in automaton state state: it writes the n
	// next views into next (interning through ctx) and returns the
	// successor state, or ok=false when the action is inadmissible.
	// views holds the n current views and must not be modified.
	Step(ctx *Ctx, state, a int, views, next []int) (nextState int, ok bool)
}

// Ctx carries the engine's interner and reusable scratch space into
// Stepper.Step.
type Ctx struct {
	In  *Interner
	buf []int
	// View memo ring (see Ctx.View). Zero keys never match: packView
	// is never zero.
	memoK   [ctxMemoCap]uint64
	memoV   [ctxMemoCap]int32
	memoPos uint32
}

// ctxMemoCap is the View memo ring size (power of two). Eight entries
// cover the repeated keys of an action loop: the two-process stepper
// touches at most four distinct (prev, recv) pairs per node.
const ctxMemoCap = 8

// resetMemo empties the View memo ring. Required when the Ctx's
// interner is reset for a new run: memoized ids from the previous run
// would otherwise alias the new id space.
func (c *Ctx) resetMemo() {
	c.memoK = [ctxMemoCap]uint64{}
	c.memoPos = 0
}

// Buf returns a length-n scratch slice reused across calls.
func (c *Ctx) Buf(n int) []int {
	if cap(c.buf) < n {
		c.buf = make([]int, n)
	}
	return c.buf[:n]
}

// View is In.View behind a small per-Ctx memo ring. Steppers whose
// action loop re-derives the same few (prev, recv) pairs — the
// two-process chain asks for each of its four at most twice — resolve
// repeats from registers instead of re-probing the interner table.
// Entries never go stale: a Ctx's interner is append-only for
// the Ctx's lifetime, so a memoized id stays the canonical answer.
func (c *Ctx) View(prev, recv int) int {
	k := packView(prev, recv)
	for i := range c.memoK {
		if c.memoK[i] == k {
			return int(c.memoV[i])
		}
	}
	id := c.In.View(prev, recv)
	i := c.memoPos & (ctxMemoCap - 1)
	c.memoK[i] = k
	c.memoV[i] = int32(id)
	c.memoPos++
	return id
}

// Options configures an engine. The zero value is the standard
// configuration: automatic backend, exhaustive scan, no graph
// retention.
type Options struct {
	// Backend selects the analysis backend: BackendAuto (the zero
	// value) lets chain-structured problems run symbolically and
	// everything else enumerate, BackendEnumerate forces per-history
	// enumeration, BackendSymbolic insists on the symbolic backend and
	// records every forced degradation in Stats.SymbolicFallbacks.
	Backend BackendMode
	// SymbolicMaxIntervals overrides the symbolic backend's
	// fragmentation threshold (total (state, interval) pairs before it
	// abandons the run to enumeration); ≤ 0 means the default.
	SymbolicMaxIntervals int
	// EarlyExit lets the leaf scan stop on the first mixed component.
	// An unsolvable horizon then reports only its verdict: Solvable and
	// Exhaustive false, every count zero.
	EarlyExit bool
	// BuildGraph retains the final scan's interner and component
	// structure (Engine.Graph) so callers (algorithm synthesis) can read
	// the canonical view table and per-vertex decisions. It disables the
	// symbolic backend and the Scratch.
	BuildGraph bool
	// Observer, when non-nil, receives a Stats snapshot after every
	// Extend/ExtendTo call. It is called synchronously on the calling
	// goroutine; keep it cheap.
	Observer func(Stats)
	// Scratch, when non-nil, recycles engine state (interner tables,
	// frontier slices, union-find) across runs. See the Scratch type for
	// the single-run and BuildGraph caveats; results are bit-identical
	// with or without it. An Engine holds the arena until Release.
	Scratch *Scratch
}

// Result is the outcome of analyzing one horizon.
type Result struct {
	// Configs is the number of leaf configurations explored, saturated
	// at math.MaxInt64 when the true count no longer fits (only the
	// symbolic backend can reach such horizons — see ConfigsExact).
	Configs int64
	// ConfigsExact is the exact configuration count when it exceeds
	// int64 range; nil otherwise (Configs is then already exact). Kept
	// nil in-range so Result stays comparable with == and small-horizon
	// differential tests compare backends structurally.
	ConfigsExact *big.Int
	// Vertices is the number of distinct (process, view) pairs.
	Vertices int
	// Components is the number of connected components.
	Components int
	// MixedComponents counts components holding both an all-0 and an
	// all-1 leaf; the problem is r-round solvable iff it is zero.
	MixedComponents int
	// Solvable is MixedComponents == 0.
	Solvable bool
	// Exhaustive is false exactly when EarlyExit settled an unsolvable
	// horizon: the Result then carries the verdict alone and every count
	// is zero, whatever path the scan took.
	Exhaustive bool
}

// Graph is the analysis structure retained by BuildGraph: the logging
// root interner plus the final scan's union-find, addressed through its
// dense (view, process) vertex window. It aliases engine state and is
// valid until the engine's next Extend/ExtendTo call.
type Graph struct {
	in   *Interner
	uf   *compUF
	vert []int32 // (view-base)·n + proc → union-find index + 1; 0 = absent
	base int
	n    int
}

// EachView calls f for every canonical view transition
// (prev, recv) → id. For two-process problems recv is the peer's view id
// or -1; for n-process problems it is a received-views tuple id.
func (g *Graph) EachView(f func(prev, recv, id int)) { g.in.EachView(f) }

// EachVertex calls f for every (process, view) vertex with its
// component's unanimity flags.
func (g *Graph) EachVertex(f func(proc, view int, has0, has1 bool)) {
	for i, slot := range g.vert {
		if slot == 0 {
			continue
		}
		fl := g.uf.flag[g.uf.find(slot-1)]
		f(i%g.n, g.base+i/g.n, fl&flagHas0 != 0, fl&flagHas1 != 0)
	}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.uf.parent) }

// RunChecked analyzes horizon r in one shot on a fresh Engine. The
// Graph is nil unless opt.BuildGraph is set. Stepper panics and context
// cancellation surface as errors, with a zero (non-exhaustive) Result.
func RunChecked(ctx context.Context, st Stepper, r int, opt Options) (Result, *Graph, error) {
	e := NewEngine(st, opt)
	defer e.Release()
	res, err := e.ExtendTo(ctx, max(r, 0))
	if err != nil {
		return Result{}, nil, err
	}
	return res, e.Graph(), nil
}

// recoverStepper converts a Stepper panic into an error carrying the
// panic value and stack.
func recoverStepper(errp *error) {
	if p := recover(); p != nil {
		*errp = fmt.Errorf("fullinfo: Stepper panicked: %v\n%s", p, debug.Stack())
	}
}
