package fullinfo

import (
	"encoding/binary"
	"math"
	"sort"
)

// View ids. Non-negative ids are interned views; the engine reserves
// small negative values as sentinels:
//
//	-1         null reception (a dropped message)
//	-2 - bit   initial view of a process whose input bit is bit (InitView)
//
// An interner hands out ids densely from 0, in creation order.

// InitView returns the sentinel view id of a process that has seen
// nothing but its own input bit (0 or 1).
func InitView(bit int) int { return -2 - bit }

// internEntry is one creation-log record: either a view (prev, recv) or
// a received-views tuple (arena offset, length).
type internEntry struct {
	tuple bool
	a, b  int
}

// maxInternID caps the id space so ids always fit the int32 slots of
// the flat tables; a run needing more ids would exhaust memory long
// before reaching it.
const maxInternID = math.MaxInt32

// Interner hash-conses full-information views and received-view tuples
// into dense integer ids. Views and tuples share one id space. View is
// the single hottest call of the engine, so views live in flat
// direct-indexed shards (viewShard) rather than a Go map.
//
// The view table is sharded by round. The incremental engine seals a
// boundary after every frontier round (sealRound), and an entry
// (prev, recv) is placed in — and looked up from — the shard indexed by
// prev's round plus one. Any two calls with the same key compute the
// same shard, so hash-consing stays exact for arbitrary steppers; for
// the generational steppers in this repository (every view's prev comes
// from the previous frontier) the effect is that the hot probe touches
// a table sized like one round, not like the whole history, and the
// cumulative table's ever-growing rehashes disappear.
type Interner struct {
	next   int
	shards []viewShard // view tables, bucketed by shardIdx
	bounds []int       // round boundaries: bounds[i] = first id after seal i
	tuples map[string]int
	// logging records a creation log, which EachView replays. Only
	// BuildGraph needs it; the engine otherwise runs with it off,
	// skipping one append per created id.
	logging bool
	log     []internEntry
	arena   []int // tuple value storage, referenced by log entries
	keyBuf  []byte
}

func newInterner(logging bool) *Interner {
	return &Interner{
		tuples:  map[string]int{},
		logging: logging,
		keyBuf:  make([]byte, 0, 64),
	}
}

// reset restores the interner to the state newInterner(false)
// constructs, keeping every table's capacity: shard arrays are zeroed
// in place and re-adopted by shardFor, the tuple map is cleared, and
// the log/arena truncate. Scratch reuse only (whose engines never log:
// BuildGraph bypasses the arena).
func (in *Interner) reset() {
	in.next = 0
	for i := range in.shards {
		in.shards[i].clearKeep()
	}
	in.shards = in.shards[:0]
	in.bounds = in.bounds[:0]
	clear(in.tuples)
	in.logging = false
	in.log = in.log[:0]
	in.arena = in.arena[:0]
}

// sealRound records a round boundary: ids created from now on belong
// to a new round, and view entries keyed by a pre-seal prev land in a
// fresh shard. The incremental engine calls this after committing each
// frontier round.
func (in *Interner) sealRound() {
	in.bounds = append(in.bounds, in.next)
}

// shardIdx maps a view key's prev id to the shard holding every entry
// with that prev: shard 0 for sentinel prevs, shard r+1 for a prev
// created in round r (rounds are the id intervals cut by sealRound;
// ids at or past the last seal count as the current round). bounds is
// append-only and a prev is only ever interned before it can appear as
// a key, so the index computed for a given prev never changes across
// seals — placement and every later lookup agree.
func (in *Interner) shardIdx(prev int) int {
	if prev < 0 {
		return 0
	}
	b := in.bounds
	nb := len(b)
	if nb == 0 || prev >= b[nb-1] {
		return nb + 1 // current round's ids
	}
	if nb == 1 || prev >= b[nb-2] {
		return nb // previous round — the generational hot path
	}
	return sort.SearchInts(b, prev+1) + 1
}

// shardFor returns the shard for keys with the given prev, extending
// the shard list on demand. A new shard's prev range starts at the
// round boundary for its index; when the range's end is already sealed
// the direct-index arrays are presized to it, so inserts never
// reallocate.
func (in *Interner) shardFor(prev int) *viewShard {
	i := in.shardIdx(prev)
	for len(in.shards) <= i {
		k := len(in.shards)
		if k < cap(in.shards) {
			// Re-adopt a retired shard's storage (zeroed by clearKeep
			// during reset), so arena reuse keeps shard capacity.
			in.shards = in.shards[:k+1]
		} else {
			in.shards = append(in.shards, viewShard{})
		}
		sh := &in.shards[k]
		sh.lo = in.shardLo(k)
		if k >= 1 && k-1 < len(in.bounds) {
			if r := in.bounds[k-1] - sh.lo; r > 0 {
				sh.null = growZeroed(sh.null, r)
				sh.buckets = growZeroed(sh.buckets, r)
			}
		}
	}
	return &in.shards[i]
}

// shardLo returns the smallest prev id shard k can serve: the sentinel
// floor for shard 0, otherwise the start of round k-1.
func (in *Interner) shardLo(k int) int {
	switch {
	case k == 0:
		return -3
	case k == 1:
		return 0
	default:
		return in.bounds[k-2]
	}
}

// View interns the full-information view "previous view prev, then
// received recv" (recv is a view id, a tuple id, or -1 for null).
func (in *Interner) View(prev, recv int) int {
	sh := in.shardFor(prev)
	if id, ok := sh.lookup(prev, recv); ok {
		return int(id)
	}
	id := in.newID()
	sh.insert(prev, recv, int32(id))
	if in.logging {
		in.log = append(in.log, internEntry{a: prev, b: recv})
	}
	return id
}

func (in *Interner) newID() int {
	id := in.next
	if id > maxInternID {
		panic("fullinfo: interner id space exhausted")
	}
	in.next++
	return id
}

// Tuple interns a vector of received view ids (-1 entries for dropped
// messages). The caller may reuse vals after the call returns. The hit
// path performs zero heap allocations: both map lookups use the
// []byte→string compiler fast path and keyBuf is retained across calls.
func (in *Interner) Tuple(vals []int) int {
	b := in.keyBuf[:0]
	for _, v := range vals {
		b = binary.AppendVarint(b, int64(v))
	}
	in.keyBuf = b
	if id, ok := in.tuples[string(b)]; ok {
		return id
	}
	id := in.newID()
	in.tuples[string(b)] = id
	if in.logging {
		off := len(in.arena)
		in.arena = append(in.arena, vals...)
		in.log = append(in.log, internEntry{tuple: true, a: off, b: len(vals)})
	}
	return id
}

// NumIDs returns the number of ids assigned so far.
func (in *Interner) NumIDs() int { return in.next }

// EachView calls f for every interned view (prev, recv) → id, in
// creation order. Tuples are skipped. Only meaningful on a logging
// interner, where ids equal log positions.
func (in *Interner) EachView(f func(prev, recv, id int)) {
	for i, e := range in.log {
		if !e.tuple {
			f(e.a, e.b, i)
		}
	}
}
