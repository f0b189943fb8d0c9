// Package shard partitions the SoftCell control plane into parallel
// controller shards. A Ring gives every shard one contiguous run of station
// blocks — a block is the stations under one aggregation switch — so a
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
// reports, splitting its run of blocks between its neighbours.
package shard

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/packet"
	"repro/internal/topo"
)

// Ring is an immutable placement of station blocks on shards: number the
// stations block by block in ascending key order, cut that numbering into
// n equal slices, and live shard i of n, in ascending id order, owns the
// blocks whose middle station falls in slice i — one contiguous run, as
// even as whole blocks allow, and empty when there are more shards than
// blocks. Without derives a new ring over the same blocks, so a ring value
// can be shared lock-free (the dispatcher publishes snapshots through an
// atomic pointer) and a shard leaving moves only its own blocks.
type Ring struct {
	shards []int // live shard ids, sorted
	// mid[bs] is twice the position of the middle of bs's block in that
	// numbering (twice, so it is whole); derived rings share it.
	mid   []int
	owner []int // owner[bs]: the shard owning station bs
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
// stationBlocks describes: blocks[bs] is the key of station bs's block, and
// the ring knows stations 0 to len(blocks)-1 only.
func NewRing(blocks []packet.BSID, shards ...int) *Ring {
	size := make([]int, len(blocks)) // stations per block, at its key
	for _, key := range blocks {
		size[key]++
	}
	r := &Ring{shards: slices.Clone(shards), mid: make([]int, len(blocks))}
	sort.Ints(r.shards)
	next := 0 // the position of the next block's first station
	for bs, key := range blocks {
		// A key is its block's lowest station, so keys come in ascending
		// order and each is numbered before the rest of its block.
		if int(key) == bs {
			r.mid[bs] = 2*next + size[bs]
			next += size[bs]
		} else {
			r.mid[bs] = r.mid[key]
		}
	}
	if len(r.shards) > 0 {
		r.owner = make([]int, len(blocks))
		for bs, m := range r.mid {
			r.owner[bs] = r.shards[m*len(r.shards)/(2*len(blocks))]
		}
	}
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

// Owner maps a base station to the shard owning its block. ok is false on
// an empty ring and for a station the ring's blocks do not cover.
//
// hotpath: no alloc, no lock
func (r *Ring) Owner(bs packet.BSID) (int, bool) {
	if uint(bs) >= uint(len(r.owner)) {
		return 0, false
	}
	return r.owner[bs], true
}

// Without returns a new ring with shard id removed. Its run is split at
// its middle station: the blocks below it go to the live shard before it,
// the rest to the live shard after it, and at either end the one neighbour
// takes the whole run. No other block moves.
func (r *Ring) Without(id int) *Ring {
	if !r.Has(id) {
		return r
	}
	i := sort.SearchInts(r.shards, id)
	out := &Ring{shards: slices.Delete(slices.Clone(r.shards), i, i+1), mid: r.mid}
	if len(out.shards) == 0 {
		return out
	}
	sum, n := 0, 0 // twice the run's middle station is sum/n
	for bs, o := range r.owner {
		if o == id {
			sum, n = sum+r.mid[bs], n+1
		}
	}
	out.owner = slices.Clone(r.owner)
	for bs, o := range r.owner {
		switch {
		case o != id: // not the victim's: it stays
		case i > 0 && (i == len(r.shards)-1 || r.mid[bs]*n < sum):
			out.owner[bs] = r.shards[i-1]
		default:
			out.owner[bs] = r.shards[i+1]
		}
	}
	return out
}

// Partition groups the given stations by owning shard.
func (r *Ring) Partition(stations []packet.BSID) (map[int][]packet.BSID, error) {
	out := make(map[int][]packet.BSID, len(r.shards))
	for _, bs := range stations {
		owner, ok := r.Owner(bs)
		if !ok {
			return nil, fmt.Errorf("shard: no live shard owns station %d", bs)
		}
		out[owner] = append(out[owner], bs)
	}
	return out, nil
}
