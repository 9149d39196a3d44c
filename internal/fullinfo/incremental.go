package fullinfo

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Engine is the package's enumerating engine. It keeps the interner and
// the leaf frontier alive between calls: the frontier at horizon r is
// exactly the node set that horizon r+1 grows from, so Extend performs
// one round of growth plus one leaf scan instead of a from-scratch walk.
// A fixed horizon is a single ExtendTo (RunChecked wraps that
// lifecycle); MinRounds-style searches (solvable at 0? at 1? …) stay
// linear in the final tree instead of quadratic in its levels.
//
// Every admissible history is its own frontier node; nodes are never
// merged. The shipped steppers are history-injective — a view records
// its null receptions, and a loss pattern shows up as a −1 in some
// receiver's tuple — so no two nodes share (state, inputs, views) and
// merging would save nothing. A stepper whose views forget history
// still gets exact counts.
//
// Options contract:
//
//   - Every round runs on the calling goroutine; the final round fuses
//     its leaf scan into the growth sweep. Concurrency lives one level
//     up: independent requests run independent engines.
//   - EarlyExit truncates only the leaf scan (never frontier growth,
//     which later rounds depend on). An unsolvable horizon then reports
//     its verdict alone — Solvable=false, Exhaustive=false, zero counts
//     — on every path, so the Result never depends on how far a
//     particular scan got.
//   - BuildGraph runs the root interner with its creation log on and
//     keeps the final scan's union-find and vertex window for Graph. It
//     bypasses the symbolic backend and the Scratch.
//   - Observer receives one Stats snapshot per Extend/ExtendTo call.
//
// An Engine is not safe for concurrent use. After a Stepper panic the
// engine is poisoned and every later call returns the same error; after
// a context cancellation the engine is left at its previous horizon and
// the call may simply be retried.
type Engine struct {
	st  Stepper
	opt Options
	// sctx wraps the interner. Unless BuildGraph needs it, the creation
	// log is off, shaving an append per new view.
	sctx *Ctx

	n, na, all1 int
	horizon     int

	// Frontier at the current horizon, parallel slices: automaton
	// state, input-assignment bitmask, and n flat view ids per node.
	// Input blocks stay contiguous and in mask order: the roots are
	// appended by mask and growth keeps parent order.
	states []int
	inputs []int32
	views  []int

	// Double buffers: a round builds the next frontier in the sp*
	// slices and swaps, so steady-state rounds allocate only on
	// high-water growth.
	spStates []int
	spInputs []int32
	spViews  []int
	growBuf  []int
	// lastNodes/lastChildren record the previous round's fan-out so the
	// next round's buffers can be presized (killing append-doubling
	// copies on geometric frontiers).
	lastNodes    int
	lastChildren int

	// Leaf-scan scratch, reused across rounds: a union-find plus a
	// dense (view, process) → vertex table (frontier view ids are
	// interner-dense; +3 covers the sentinels down to InitView(1) = -3).
	uf   compUF
	vert []int32
	// graph is the last scan's structure, retained under BuildGraph.
	graph *Graph

	// sym is the live symbolic backend, when backend selection picked
	// it. While non-nil, the enumerating frontier above stays parked at
	// the horizon-0 roots; on fragmentation sym is dropped and the
	// enumerating rounds replay from there. pendingSymFallback is 1
	// when BackendSymbolic was requested but no symbolic engine could
	// be built — reported on the next ExtendTo snapshot.
	sym                *symEngine
	pendingSymFallback int

	// scr is the arena this engine borrowed its storage from, when
	// Options.Scratch engaged; Release hands the storage back.
	scr *Scratch

	err error
}

// ctx poll strides: how many nodes are processed between context
// checks while growing the frontier and while scanning leaves.
const (
	growPollStride = 1024
	scanPollStride = 4096
)

// NewEngine returns an engine positioned at horizon 0 (the frontier is
// the 2^n input-assignment roots, or empty when the Stepper admits no
// history at all).
func NewEngine(st Stepper, opt Options) *Engine {
	n := st.NumProcs()
	e := &Engine{
		st:   st,
		opt:  opt,
		n:    n,
		na:   st.NumActions(),
		all1: 1<<n - 1,
	}
	if scr := opt.Scratch; !opt.BuildGraph && scr.acquire() {
		// Borrow the arena's storage; Release hands it back grown.
		e.scr = scr
		e.sctx = scr.freshCtx()
		e.states = scr.states[:0]
		e.inputs = scr.inputs[:0]
		e.views = scr.views[:0]
		e.spStates = scr.spStates[:0]
		e.spInputs = scr.spInputs[:0]
		e.spViews = scr.spViews[:0]
		e.uf = scr.uf
		e.uf.reset()
		e.vert = scr.vert
		e.growBuf = sliceLen(scr.growBuf, n)
	} else {
		// Graph.EachView replays the interner's creation log.
		e.sctx = &Ctx{In: newInterner(opt.BuildGraph)}
		e.growBuf = make([]int, n)
	}
	if sym := symEngineFor(st, opt); sym != nil {
		e.sym = sym
	} else if opt.Backend == BackendSymbolic {
		e.pendingSymFallback = 1
	}
	if start, ok := st.Root(); ok {
		for inputs := 0; inputs < 1<<n; inputs++ {
			e.states = append(e.states, start)
			e.inputs = append(e.inputs, int32(inputs))
			for i := 0; i < n; i++ {
				e.views = append(e.views, InitView((inputs>>i)&1))
			}
		}
	}
	return e
}

// Release hands the engine's borrowed arena storage (with any growth)
// back to the Scratch it was built with, and is a no-op otherwise. The
// engine must not be used after Release. Idempotent.
func (e *Engine) Release() {
	s := e.scr
	if s == nil {
		return
	}
	e.scr = nil
	s.states, s.spStates = e.states, e.spStates
	s.inputs, s.spInputs = e.inputs, e.spInputs
	s.views, s.spViews = e.views, e.spViews
	s.growBuf = e.growBuf
	s.uf = e.uf
	s.vert = e.vert
	s.release()
	e.err = errEngineReleased
}

// errEngineReleased poisons an engine whose arena went back to its
// Scratch: any later call would read recycled storage.
var errEngineReleased = errors.New("fullinfo: Engine used after Release")

// Horizon returns the round horizon of the live frontier.
func (e *Engine) Horizon() int {
	if e.sym != nil {
		return e.sym.depth
	}
	return e.horizon
}

// FrontierLen returns the number of live frontier nodes — (state,
// interval) pairs while the symbolic backend is live.
func (e *Engine) FrontierLen() int {
	if e.sym != nil {
		return e.sym.intervals
	}
	return len(e.states)
}

// Graph returns the structure of the last analyzed horizon when the
// engine was built with Options.BuildGraph, and nil otherwise.
func (e *Engine) Graph() *Graph { return e.graph }

// reuse returns s emptied, reallocating only when capacity c is not
// already available.
func reuse[T any](s []T, c int) []T {
	if cap(s) < c {
		return make([]T, 0, c)
	}
	return s[:0]
}

// childEstimate predicts the next frontier's node count from the
// previous round's fan-out (falling back to the na upper bound), so
// grow can presize its buffers.
func (e *Engine) childEstimate(nodes int) int {
	worst := nodes * e.na
	if e.lastNodes == 0 {
		return worst
	}
	est := int(int64(nodes)*int64(e.lastChildren)/int64(e.lastNodes)) + 64
	return min(est, worst)
}

// Extend grows the frontier by one round and analyzes the new horizon.
func (e *Engine) Extend(ctx context.Context) (Result, error) {
	return e.ExtendTo(ctx, e.horizon+1)
}

// ExtendTo grows the frontier to horizon r (which must not be below the
// current horizon; r equal to the current horizon just re-scans, which
// is how horizon 0 is analyzed) and returns the analysis there.
func (e *Engine) ExtendTo(ctx context.Context, r int) (Result, error) {
	if e.err != nil {
		return Result{}, e.err
	}
	if h := e.Horizon(); r < h {
		return Result{}, fmt.Errorf("fullinfo: ExtendTo(%d) below current horizon %d", r, h)
	}
	start := time.Now()
	symFB := e.pendingSymFallback
	e.pendingSymFallback = 0
	if e.sym != nil {
		symRounds := r - e.sym.depth
		res, err := e.sym.extendTo(ctx, r)
		if err == nil {
			res = e.verdict(res)
			if e.opt.Observer != nil {
				e.opt.Observer(e.sym.stats(res, symRounds, start, symFB))
			}
			return res, nil
		}
		if !errors.Is(err, errSymbolicFragmented) {
			// Context cancellation: the symbolic frontier is intact at
			// its previous depth, so the call may simply be retried.
			e.pendingSymFallback = symFB
			return Result{}, err
		}
		// The interval frontier fragmented. Drop the symbolic engine and
		// replay enumerating rounds from the parked horizon-0 roots —
		// the one-time cost of reaching r this way is what enumeration
		// would have paid anyway, and every later ExtendTo grows
		// incrementally as usual.
		e.sym = nil
		symFB++
	}
	startIDs := e.sctx.In.NumIDs()
	rounds := r - e.horizon
	var sink leafSink
	if rounds == 0 {
		if err := e.scan(ctx, &sink); err != nil {
			return Result{}, err
		}
	}
	for e.horizon < r {
		// The final round fuses its leaf scan into the growth sweep:
		// each configuration streams into the union-find the moment it
		// is appended, saving a full re-read of the new frontier.
		var s *leafSink
		if e.horizon == r-1 {
			sink.reset(e, e.sctx.In.NumIDs())
			s = &sink
		}
		if err := e.grow(ctx, s); err != nil {
			return Result{}, err
		}
	}
	res := e.verdict(sink.result())
	if e.opt.BuildGraph {
		e.graph = &Graph{in: e.sctx.In, uf: &e.uf, vert: e.vert, base: sink.base, n: e.n}
	}
	if e.opt.Observer != nil {
		e.opt.Observer(Stats{
			Horizon:           e.horizon,
			Rounds:            rounds,
			Configs:           res.Configs,
			Vertices:          res.Vertices,
			Components:        res.Components,
			MixedComponents:   res.MixedComponents,
			Merges:            res.Vertices - res.Components,
			ViewsInterned:     e.sctx.In.NumIDs(),
			NewViews:          e.sctx.In.NumIDs() - startIDs,
			Subtrees:          len(e.states),
			SymbolicFallbacks: symFB,
			WallNanos:         time.Since(start).Nanoseconds(),
		})
	}
	return res, nil
}

// verdict applies the EarlyExit contract to an analyzed horizon: an
// unsolvable one keeps its verdict alone. Partial counts would record
// how far a particular scan got before the first mixed component — the
// fused sweep, a same-horizon re-scan and the symbolic backend would
// each report their own — so none are kept.
func (e *Engine) verdict(res Result) Result {
	if e.opt.EarlyExit && !res.Solvable {
		return Result{}
	}
	return res
}

// leafSink streams leaf configurations into the engine's scan scratch
// (union-find plus dense vertex table). It backs both the fused
// grow-and-scan sweep and the standalone re-scan. The vertex table is
// a window over view ids [base, NumIDs): the repository's steppers are
// generational — every view in a frontier was interned while growing
// that frontier — so basing the window at the round's first id (or the
// frontier's minimum) keeps the table proportional to one round, not
// to the whole interner history.
type leafSink struct {
	e    *Engine
	base int // lowest view id the dense window covers
	// stopped is set once EarlyExit observes a mixed component: the
	// sink goes quiet while frontier growth, which later rounds depend
	// on, continues.
	stopped bool
}

func (s *leafSink) reset(e *Engine, base int) {
	s.e = e
	s.base = base
	s.stopped = false
	e.uf.reset()
	need := (e.sctx.In.NumIDs() - base) * e.n
	if need <= cap(e.vert) {
		// Clear the full capacity so later in-place extensions (views
		// interned mid-sweep) expose zeroed, not stale, slots.
		e.vert = e.vert[:cap(e.vert)]
		clear(e.vert)
		e.vert = e.vert[:need]
	} else {
		e.vert = make([]int32, need)
	}
}

// vertex resolves (proc, view) to a union-find index through the dense
// window, extending it when the interner has grown past its high-water
// and rebasing in the (never-for-our-steppers) case of a view below
// the window.
func (s *leafSink) vertex(proc, view int) int32 {
	e := s.e
	if view < s.base {
		s.rebase()
	}
	idx := (view-s.base)*e.n + proc
	if idx >= len(e.vert) {
		need := (e.sctx.In.NumIDs() - s.base) * e.n
		if need <= cap(e.vert) {
			e.vert = e.vert[:need] // zeroed by reset
		} else {
			g := make([]int32, need+need/2)
			copy(g, e.vert)
			e.vert = g[:need]
		}
	}
	slot := &e.vert[idx]
	if *slot == 0 {
		*slot = e.uf.add() + 1
	}
	return *slot - 1
}

// rebase widens the window down to the sentinel floor (-3, below every
// valid view id): a stepper handed the sink a view older than the
// window base, which the generational steppers never do but the
// Stepper contract allows. Runs at most once per scan.
func (s *leafSink) rebase() {
	e := s.e
	const floor = -3
	shift := (s.base - floor) * e.n
	g := make([]int32, (e.sctx.In.NumIDs()-floor)*e.n)
	copy(g[shift:], e.vert)
	e.vert = g
	s.base = floor
}

// frontierBase returns the smallest view id in the live frontier (the
// scan window base), or the sentinel floor for an empty frontier.
func (e *Engine) frontierBase() int {
	base := e.sctx.In.NumIDs()
	for _, v := range e.views {
		if v < base {
			base = v
		}
	}
	if len(e.views) == 0 {
		base = -3
	}
	return base
}

// leaf streams one leaf configuration: its vertices join one component,
// which inherits the unanimity flags of the input mask.
func (s *leafSink) leaf(vs []int, inputs int32) {
	if s.stopped {
		return
	}
	uf := &s.e.uf
	root := uf.find(s.vertex(0, vs[0]))
	for p := 1; p < len(vs); p++ {
		root = uf.union(root, s.vertex(p, vs[p]))
	}
	switch inputs {
	case 0:
		uf.mark(root, flagHas0)
	case int32(s.e.all1):
		uf.mark(root, flagHas1)
	}
	if s.e.opt.EarlyExit && uf.mixed > 0 {
		s.stopped = true
	}
}

// result reads the horizon's analysis off the scan. Every admissible
// history is one frontier node, so Configs is the frontier length.
func (s *leafSink) result() Result {
	uf := &s.e.uf
	return Result{
		Configs:         int64(len(s.e.states)),
		Vertices:        len(uf.parent),
		Components:      uf.roots,
		MixedComponents: uf.mixed,
		Solvable:        uf.mixed == 0,
		Exhaustive:      !s.stopped,
	}
}

// grow advances the frontier one round and, when sink is non-nil, fuses the leaf scan into the sweep. The new
// frontier is committed only on success: a context cancellation leaves
// the engine retryable at its previous horizon, while a Stepper panic
// poisons it.
func (e *Engine) grow(ctx context.Context, sink *leafSink) error {
	n, na := e.n, e.na
	nodes := len(e.states)
	est := e.childEstimate(nodes)
	nextStates := reuse(e.spStates, est)
	nextInputs := reuse(e.spInputs, est)
	nextViews := reuse(e.spViews, est*n)
	nv := e.growBuf
	err := func() (err error) {
		defer recoverStepper(&err)
		for i := 0; i < nodes; i++ {
			if i%growPollStride == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
			}
			vs := e.views[i*n : (i+1)*n]
			for a := 0; a < na; a++ {
				ns, ok := e.st.Step(e.sctx, e.states[i], a, vs, nv)
				if !ok {
					continue
				}
				nextStates = append(nextStates, ns)
				nextInputs = append(nextInputs, e.inputs[i])
				nextViews = append(nextViews, nv...)
				if sink != nil {
					sink.leaf(nextViews[len(nextViews)-n:], e.inputs[i])
				}
			}
		}
		return nil
	}()
	if err != nil {
		if ctx.Err() == nil {
			e.err = err // Stepper panic: state is suspect, poison.
		}
		return err
	}
	e.commit(nextStates, nextInputs, nextViews)
	return nil
}

// commit swaps the freshly grown frontier in and retires the old
// arrays as next round's spare buffers, recording the round's fan-out
// for the next presize estimate.
func (e *Engine) commit(states []int, inputs []int32, views []int) {
	e.lastNodes, e.lastChildren = len(e.states), len(states)
	e.spStates, e.states = e.states, states
	e.spInputs, e.inputs = e.inputs, inputs
	e.spViews, e.views = e.views, views
	e.horizon++
	// Seal the interner round so next round's view lookups probe a
	// fresh, round-sized shard instead of the cumulative table.
	e.sctx.In.sealRound()
}

// scan analyzes the live frontier at the current horizon without
// growing it (the rounds == 0 path: horizon 0, or a same-horizon
// re-scan).
func (e *Engine) scan(ctx context.Context, sink *leafSink) error {
	sink.reset(e, e.frontierBase())
	n := e.n
	for i := range e.states {
		if i%scanPollStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		sink.leaf(e.views[i*n:(i+1)*n], e.inputs[i])
		if sink.stopped {
			break
		}
	}
	return nil
}
