// Package shard partitions the SoftCell control plane into parallel
// controller shards. A consistent-hash Ring maps every block of base
// stations — the stations under one aggregation switch — to one shard, so a
// shard's stations share location prefixes and its rule tables aggregate
// the way one controller's do. Each Shard wraps a core.Controller
// restricted to its stations (which, because LocIPs embed the base-station
// ID, also gives it a disjoint LocIP sub-pool) and a disjoint tag-space
// residue class; what is a subscriber's rather than a location's —
// registration, permanent address — sits in the one core.Subscribers table
// every shard admits from.
// A Dispatcher fronts the shards and runs every operation on its caller's
// goroutine, behind per-shard admission control and a per-shard bound on
// concurrent operations, so N shards serve requests with no shared lock on
// the hot path.
//
// Cross-shard concerns are explicit: handoff.go migrates a UE between
// shards in two phases (freeze-on-source, install-on-target) behind the
// UE's lock stripe, and failover.go rebuilds a dead shard's UE state
// on the survivors from its replicated store plus live agents' location
// reports, rehashing its blocks across the ring.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/packet"
	"repro/internal/topo"
)

// Ring is an immutable consistent-hash ring with virtual nodes: each shard
// contributes vnodes points, and a block of base stations is owned by the
// shard whose point follows the block's hash clockwise. With/Without derive
// new rings over the same blocks, so a ring value can be shared lock-free
// (the dispatcher publishes snapshots through an atomic pointer) and a
// shard leaving or joining moves whole blocks.
type Ring struct {
	vnodes int
	shards []int   // live shard ids, sorted
	points []point // sorted by hash
	// blocks[bs] is the key of bs's block, its lowest station ID (see
	// stationBlocks); a station past the end is a block of its own.
	blocks []packet.BSID
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

// stationBlocks derives the ring's blocks from a topology: a station's block
// is the set of stations whose first non-access ancestor, on their chain up
// the shortest-path tree rooted at gateway, is the same switch — on a
// generated plant, one aggregation switch's clusters. The result, indexed by
// station ID, holds each station's block key: the lowest station ID in its
// block. A station with no such ancestor is a block of its own.
func stationBlocks(t *topo.Topology, gateway topo.NodeID) []packet.BSID {
	parent := t.SPTree(gateway)
	top := make([]topo.NodeID, len(t.Stations)) // each station's first non-access ancestor
	key := make(map[topo.NodeID]packet.BSID)
	var maxID packet.BSID
	for i, st := range t.Stations {
		n := st.Access
		for n != topo.None && t.Nodes[n].Kind == topo.Access {
			n = parent[n]
		}
		top[i] = n
		if k, ok := key[n]; n != topo.None && (!ok || st.ID < k) {
			key[n] = st.ID
		}
		maxID = max(maxID, st.ID)
	}
	blocks := make([]packet.BSID, int(maxID)+1)
	for i := range blocks {
		blocks[i] = packet.BSID(i)
	}
	for i, st := range t.Stations {
		if top[i] != topo.None {
			blocks[st.ID] = key[top[i]]
		}
	}
	return blocks
}

// NewRing builds a ring over the given shard ids that places the blocks
// stationBlocks describes; nil blocks make every station a block of its
// own. vnodes <= 0 selects DefaultVNodes.
func NewRing(vnodes int, blocks []packet.BSID, shards ...int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, blocks: blocks}
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

// block returns the key of bs's block: the lowest station ID in it.
func (r *Ring) block(bs packet.BSID) packet.BSID {
	if int(bs) < len(r.blocks) {
		return r.blocks[bs]
	}
	return bs
}

// Owner maps a base station to the shard owning its block. ok is false
// only on an empty ring.
func (r *Ring) Owner(bs packet.BSID) (int, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := bsHash(r.block(bs))
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
	return NewRing(r.vnodes, r.blocks, append(r.Shards(), id)...)
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
	return NewRing(r.vnodes, r.blocks, keep...)
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
