package fullinfo

// Flat tables behind the Interner's view lookups. A view table kept as
// a Go map spends most of an incremental run inside runtime map code
// (hashing, group probing, incremental growth) plus one heap allocation
// per interned view. The round shards (viewShard) instead direct-index
// views by their prev id, and the few prevs with crowded receptions
// spill into flatU64: a power-of-two linear-probing table with inline
// uint64 keys, where a lookup is one multiply and, in the common case,
// a single cache line touch, and only doubling allocates.
//
// Keys are biased by the caller so that the packed value 0 never occurs
// (0 marks an empty slot); see packView.

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit
// hash for already-packed keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// flatU64 maps non-zero uint64 keys to int32 values with open
// addressing and linear probing at a maximum load factor of 1/2. The
// zero value is an empty table.
type flatU64 struct {
	keys []uint64
	vals []int32
	mask uint64
	n    int
}

const flatMinCap = 16

// get returns the value stored under k.
func (f *flatU64) get(k uint64) (int32, bool) {
	if f.n == 0 {
		return 0, false
	}
	for i := mix64(k) & f.mask; ; i = (i + 1) & f.mask {
		switch f.keys[i] {
		case k:
			return f.vals[i], true
		case 0:
			return 0, false
		}
	}
}

// put stores v under k. k must not already be present (the engine's
// callers always probe first) and must be non-zero.
func (f *flatU64) put(k uint64, v int32) {
	if 2*(f.n+1) > len(f.keys) {
		f.grow()
	}
	i := mix64(k) & f.mask
	for f.keys[i] != 0 {
		i = (i + 1) & f.mask
	}
	f.keys[i] = k
	f.vals[i] = v
	f.n++
}

// grow doubles the table (or allocates the initial one) and rehashes.
func (f *flatU64) grow() {
	newCap := flatMinCap
	if len(f.keys) > 0 {
		newCap = 2 * len(f.keys)
	}
	oldKeys, oldVals := f.keys, f.vals
	f.keys = make([]uint64, newCap)
	f.vals = make([]int32, newCap)
	f.mask = uint64(newCap - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := mix64(k) & f.mask
		for f.keys[j] != 0 {
			j = (j + 1) & f.mask
		}
		f.keys[j] = k
		f.vals[j] = oldVals[i]
	}
}

// reset empties the table, keeping capacity.
func (f *flatU64) reset() {
	if f.n == 0 {
		return
	}
	clear(f.keys)
	f.n = 0
}

// packView packs an Interner view key (prev, recv) into a non-zero
// uint64. prev is a view id or an initial-view sentinel (≥ -3, never
// -1), recv is a view id, tuple id, or -1; both fit in int32 (the
// interner guards its id space). The +1 bias makes 0 unreachable: it
// would require prev == recv == -1, and prev is never -1.
func packView(prev, recv int) uint64 {
	return (uint64(uint32(int32(prev)))<<32 | uint64(uint32(int32(recv)))) + 1
}

// viewShard holds the view entries whose prev falls in one interner
// round (see Interner.shardIdx). Because round ids are a dense
// contiguous range and engine traversal visits prevs near-monotonically,
// the shard is direct-indexed by prev-lo rather than hashed: null
// receptions (recv == -1, exactly one entry per prev, half of a chain
// engine's probe volume) live in a flat array, other receptions in
// 3-entry inline buckets with a hash-table spill for crowded prevs.
// Lookups are read-only; only insert extends the arrays.
type viewShard struct {
	lo       int          // smallest prev this shard serves
	null     []int32      // (prev, -1) → id+1, indexed by prev-lo
	buckets  []viewBucket // other recvs, indexed by prev-lo
	overflow flatU64      // spill for buckets past viewBucketCap entries
}

const viewBucketCap = 3

// viewBucket inlines up to viewBucketCap (recv → id) pairs for one
// prev. n > viewBucketCap marks that further entries spilled to the
// shard's overflow table.
type viewBucket struct {
	n    int32
	recv [viewBucketCap]int32
	id   [viewBucketCap]int32
}

// lookup returns the id interned for (prev, recv), if any.
func (s *viewShard) lookup(prev, recv int) (int32, bool) {
	i := prev - s.lo
	if recv == -1 {
		if i < len(s.null) {
			if v := s.null[i]; v != 0 {
				return v - 1, true
			}
		}
		return 0, false
	}
	if i < len(s.buckets) {
		bk := &s.buckets[i]
		n := bk.n
		if n > viewBucketCap {
			n = viewBucketCap
		}
		r := int32(recv)
		for j := int32(0); j < n; j++ {
			if bk.recv[j] == r {
				return bk.id[j], true
			}
		}
		if bk.n > viewBucketCap {
			return s.overflow.get(packView(prev, recv))
		}
	}
	return 0, false
}

// insert records (prev, recv) → id. The key must not be present.
func (s *viewShard) insert(prev, recv int, id int32) {
	i := prev - s.lo
	if recv == -1 {
		s.null = growZeroed(s.null, i+1)
		s.null[i] = id + 1
		return
	}
	s.buckets = growZeroed(s.buckets, i+1)
	bk := &s.buckets[i]
	if bk.n < viewBucketCap {
		bk.recv[bk.n] = int32(recv)
		bk.id[bk.n] = id
		bk.n++
		return
	}
	s.overflow.put(packView(prev, recv), id)
	bk.n = viewBucketCap + 1
}

// clearKeep empties the shard for arena reuse, zeroing live entries and
// truncating so the storage can be re-adopted by a later shardFor. The
// growZeroed invariant (slots past len are zero) holds afterwards for
// the whole capacity: clear zeroes [0, len) and [len, cap) was already
// zero.
func (s *viewShard) clearKeep() {
	clear(s.null)
	s.null = s.null[:0]
	clear(s.buckets)
	s.buckets = s.buckets[:0]
	s.overflow.reset()
}

// growZeroed extends s to length n, preserving contents and keeping
// every slot past the old length zero (make zeroes full capacity and
// the extended region is never written before this returns).
func growZeroed[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	ns := make([]T, n, c)
	copy(ns, s)
	return ns
}
