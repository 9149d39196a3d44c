// Package cluster implements the capserved coordinator: a router that
// consistent-hashes canonical automaton keys across N backend capserved
// instances, hedges slow or broken shards to the next replica on the
// ring, fans chaos campaigns out over the fleet, and fronts everything
// with the same verdict cache a single node uses: a bounded LRU, backed
// by an optional append-only warm store that preloads it at boot.
//
// The failure model is deliberately the paper's: the coordinator treats
// its backends the way a process treats its peers under a message
// adversary — any request can be lost or delayed, so every keyed query
// has a replica set, a per-shard circuit breaker decides when a shard
// is (temporarily) crashed, and a hedged second request bounds the
// latency an adaptive adversary can extract by slowing exactly the
// shard a key hashes to. Since the live-membership work, the adversary
// may also add and remove parties mid-run: membership is an
// epoch-versioned copy-on-write table (see membership.go), an active
// prober ejects dead backends from routing and readmits recovered
// ones. A rejoining shard needs no verdict replay: the coordinator's
// LRU answers the keys it served before the change.
// DESIGN.md §3d spells out the full model.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringPoint is one virtual node: a position on the 64-bit ring owned by
// a member index.
type ringPoint struct {
	hash   uint64
	member int
}

// Ring is a consistent-hash ring over a fixed member list with virtual
// nodes. A Ring value is immutable — live membership is expressed by
// building a NEW ring for each epoch (copy-on-write, see membership.go)
// rather than mutating one in place, so in-flight requests keep a
// coherent view. Vnode positions hash the member's stable identity (its
// base URL), not its slice index: adding or removing one member leaves
// every other member's points untouched, which is what makes rebalance
// minimal (≈1/N of keys change owner, tested in cluster_test.go).
type Ring struct {
	points []ringPoint
	n      int
}

// NewRing places the members on the ring with vnodes virtual nodes each
// (vnodes ≤ 0 defaults to 64). Replicas/Owner return indices into the
// given slice.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{n: len(members), points: make([]ringPoint, 0, len(members)*vnodes)}
	for m, id := range members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", id, v)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// hash64 is fnv-1a finished with a SplitMix64 mix. Raw fnv-1a has weak
// avalanche on near-identical short strings — vnode labels differ only
// in trailing digits, and without the finalizer a 3-backend ring
// measured a 56%/35%/9% key split. The mix restores uniformity.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Replicas returns up to k distinct members for key, in ring order
// starting at the key's successor point: Replicas(key, k)[0] is the
// primary shard, the rest are its hedge/failover candidates. k is
// clamped to the member count.
func (r *Ring) Replicas(key string, k int) []int {
	if r.n == 0 {
		return nil
	}
	if k > r.n {
		k = r.n
	}
	if k <= 0 {
		k = 1
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for i := 0; len(out) < k && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
