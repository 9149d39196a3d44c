package fullinfo

// Scratch is an arena of engine state — the interner's shard tables,
// the frontier's parallel slices, and the leaf-scan union-find — reused
// across runs instead of reallocated per call. A service handling a
// stream of cache-miss requests hands the same Scratch (typically from
// a sync.Pool) to each one via Options.Scratch and the flat tables
// grow to the workload's high-water mark once.
//
// A Scratch serves one run at a time. Concurrent runs need one Scratch
// each; handing an in-use Scratch to a second run is detected and the
// second run silently falls back to fresh allocation (no sharing, no
// corruption). Options.BuildGraph also disables the Scratch for that
// run: the retained Graph would alias arena storage that the next run
// recycles.
//
// Results are bit-identical with and without a Scratch — the reset
// paths restore exactly the state a fresh allocation starts from, and
// the differential tests in scratch_test.go pin this.
type Scratch struct {
	in  *Interner
	ctx Ctx

	// Engine arenas (see Engine).
	states, spStates []int
	inputs, spInputs []int32
	views, spViews   []int
	growBuf          []int
	uf               compUF
	vert             []int32

	inUse bool
}

// NewScratch returns an empty arena. The zero value is not usable;
// always construct through here (future fields may need init).
func NewScratch() *Scratch { return &Scratch{} }

// acquire claims the arena for one run. It returns false when the
// arena is already serving a run, in which case the caller must
// allocate fresh state instead.
func (s *Scratch) acquire() bool {
	if s == nil || s.inUse {
		return false
	}
	s.inUse = true
	return true
}

// release returns the arena to the idle state. Idempotent.
func (s *Scratch) release() {
	if s != nil {
		s.inUse = false
	}
}

// freshCtx resets the reusable interner for a new run (creation
// log off: only BuildGraph needs it, and BuildGraph bypasses the arena)
// and wraps it in the reusable Ctx.
func (s *Scratch) freshCtx() *Ctx {
	if s.in == nil {
		s.in = newInterner(false)
	} else {
		s.in.reset()
	}
	s.ctx.In = s.in
	s.ctx.buf = s.ctx.buf[:0]
	s.ctx.resetMemo()
	return &s.ctx
}

// sliceLen returns a length-n slice reusing s's storage when possible.
// Contents are unspecified; callers must write before reading.
func sliceLen[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
