// Package shard partitions the SoftCell control plane into parallel
// controller shards. A consistent-hash Ring maps every base station to one
// shard; each Shard wraps a core.Controller restricted to its stations
// (which, because LocIPs embed the base-station ID, also gives it a
// disjoint LocIP sub-pool) and a disjoint tag-space residue class; what is
// a subscriber's rather than a location's — registration, permanent
// address — sits in the one core.Subscribers table every shard admits from.
// A Dispatcher fronts the shards and runs every operation on its caller's
// goroutine, behind per-shard admission control and a per-shard bound on
// concurrent operations, so N shards serve requests with no shared lock on
// the hot path.
//
// Cross-shard concerns are explicit: handoff.go migrates a UE between
// shards in two phases (freeze-on-source, install-on-target) behind the
// UE's lock stripe, and failover.go rebuilds a dead shard's UE state
// on the survivors from its replicated store plus live agents' location
// reports, rehashing its stations across the ring.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/packet"
)

// Ring is an immutable consistent-hash ring with virtual nodes: each shard
// contributes vnodes points, and a base station is owned by the shard whose
// point follows the station's hash clockwise. With/Without derive new
// rings, so a ring value can be shared lock-free (the dispatcher publishes
// snapshots through an atomic pointer).
type Ring struct {
	vnodes int
	shards []int   // live shard ids, sorted
	points []point // sorted by hash
}

type point struct {
	hash  uint64
	shard int
}

// DefaultVNodes balances ownership well for hundreds-to-thousands of
// stations without making ring construction noticeable.
const DefaultVNodes = 128

// mix64 is fmix64 from MurmurHash3 — the same finaliser packet.FlowKey
// uses; it is a strong enough point spreader for ring placement.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func vnodeHash(shard, vnode int) uint64 {
	return mix64(uint64(shard+1)*0x9e3779b97f4a7c15 + uint64(vnode))
}

func bsHash(bs packet.BSID) uint64 {
	return mix64(uint64(bs) + 0x5c17c0de) // salted so BSIDs don't collide with vnode inputs
}

// NewRing builds a ring over the given shard ids. vnodes <= 0 selects
// DefaultVNodes.
func NewRing(vnodes int, shards ...int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes}
	for _, s := range shards {
		r.shards = append(r.shards, s)
	}
	sort.Ints(r.shards)
	r.points = make([]point, 0, vnodes*len(r.shards))
	for _, s := range r.shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{vnodeHash(s, v), s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard // deterministic tie-break
	})
	return r
}

// Shards lists the live shard ids, sorted.
func (r *Ring) Shards() []int {
	return append([]int(nil), r.shards...)
}

// Len reports the number of live shards.
func (r *Ring) Len() int { return len(r.shards) }

// Has reports whether shard id is on the ring.
func (r *Ring) Has(id int) bool {
	i := sort.SearchInts(r.shards, id)
	return i < len(r.shards) && r.shards[i] == id
}

// Owner maps a base station to its owning shard. ok is false only on an
// empty ring.
func (r *Ring) Owner(bs packet.BSID) (int, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := bsHash(bs)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].shard, true
}

// With returns a new ring that additionally contains shard id.
func (r *Ring) With(id int) *Ring {
	if r.Has(id) {
		return r
	}
	return NewRing(r.vnodes, append(r.Shards(), id)...)
}

// Without returns a new ring with shard id removed.
func (r *Ring) Without(id int) *Ring {
	if !r.Has(id) {
		return r
	}
	keep := make([]int, 0, len(r.shards)-1)
	for _, s := range r.shards {
		if s != id {
			keep = append(keep, s)
		}
	}
	return NewRing(r.vnodes, keep...)
}

// Partition groups the given stations by owning shard.
func (r *Ring) Partition(stations []packet.BSID) (map[int][]packet.BSID, error) {
	out := make(map[int][]packet.BSID, len(r.shards))
	for _, bs := range stations {
		owner, ok := r.Owner(bs)
		if !ok {
			return nil, fmt.Errorf("shard: empty ring cannot own station %d", bs)
		}
		out[owner] = append(out[owner], bs)
	}
	return out, nil
}
