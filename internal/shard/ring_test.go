package shard

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// TestRingRemovalMovesOnlyVictimsStations checks the defining consistent-
// hashing invariant with testing/quick: removing a shard relocates exactly
// the stations it owned — every other station keeps its owner.
func TestRingRemovalMovesOnlyVictimsStations(t *testing.T) {
	prop := func(nShards uint8, victimPick uint8, seed uint16) bool {
		n := int(nShards%7) + 2 // 2..8 shards
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		r := NewRing(64, nil, ids...)
		victim := int(victimPick) % n
		r2 := r.Without(victim)
		if r2.Has(victim) || r2.Len() != n-1 {
			return false
		}
		for bs := packet.BSID(seed); bs < packet.BSID(seed)+512; bs++ {
			before, _ := r.Owner(bs)
			after, _ := r2.Owner(bs)
			if before == victim {
				if after == victim {
					return false // the victim must actually lose its stations
				}
				continue
			}
			if after != before {
				return false // a surviving shard's station moved — not consistent
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRingAdditionMovesStationsOnlyToNewcomer checks the dual invariant:
// growing the ring moves stations only onto the new shard.
func TestRingAdditionMovesStationsOnlyToNewcomer(t *testing.T) {
	prop := func(nShards uint8, seed uint16) bool {
		n := int(nShards%7) + 1 // 1..7 existing shards
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		r := NewRing(64, nil, ids...)
		newcomer := n
		r2 := r.With(newcomer)
		if !r2.Has(newcomer) || r2.Len() != n+1 {
			return false
		}
		moved := 0
		for bs := packet.BSID(seed); bs < packet.BSID(seed)+512; bs++ {
			before, _ := r.Owner(bs)
			after, _ := r2.Owner(bs)
			if after != before {
				if after != newcomer {
					return false // stations may only move to the new shard
				}
				moved++
			}
		}
		// With vnodes the newcomer takes ~1/(n+1) of stations; allow a wide
		// margin but insist it is nowhere near a full reshuffle.
		return moved <= 512*2/(n+1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRingBalance(t *testing.T) {
	const nShards, nBS = 4, 4096
	r := NewRing(DefaultVNodes, nil, 0, 1, 2, 3)
	counts := make(map[int]int)
	for bs := packet.BSID(0); bs < nBS; bs++ {
		owner, ok := r.Owner(bs)
		if !ok {
			t.Fatal("empty ring")
		}
		counts[owner]++
	}
	for id := 0; id < nShards; id++ {
		frac := float64(counts[id]) / nBS
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("shard %d owns %.0f%% of stations (counts %v) — ring badly unbalanced", id, frac*100, counts)
		}
	}
}

func TestRingPartitionCoversAllStations(t *testing.T) {
	r := NewRing(0, nil, 0, 1, 2)
	stations := make([]packet.BSID, 160)
	for i := range stations {
		stations[i] = packet.BSID(i)
	}
	part, err := r.Partition(stations)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for id, owned := range part {
		if !r.Has(id) {
			t.Fatalf("partition assigned stations to unknown shard %d", id)
		}
		total += len(owned)
		for _, bs := range owned {
			if owner, _ := r.Owner(bs); owner != id {
				t.Fatalf("station %d grouped under %d but owned by %d", bs, id, owner)
			}
		}
	}
	if total != len(stations) {
		t.Fatalf("partition covers %d of %d stations", total, len(stations))
	}
}

func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(8, nil)
	if _, ok := empty.Owner(0); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if _, err := empty.Partition([]packet.BSID{0}); err == nil {
		t.Fatal("empty ring partitioned stations")
	}
	r := NewRing(8, nil, 5)
	if r.With(5) != r {
		t.Fatal("With(existing) should return the same ring")
	}
	if r.Without(9) != r {
		t.Fatal("Without(absent) should return the same ring")
	}
	if owner, ok := r.Owner(1234); !ok || owner != 5 {
		t.Fatalf("single-shard ring: owner = %d, %v", owner, ok)
	}
}

// cityBlocks is the generated city plant (K=8, three stations per cluster,
// 384 stations) and its station blocks.
func cityBlocks(t testing.TB) (*topo.Generated, []packet.BSID) {
	t.Helper()
	g, err := topo.Generate(topo.GenParams{K: 8, ClusterSize: 3, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g, stationBlocks(g.Topology, g.GatewayID)
}

// TestStationBlocksAreAggregationSwitches: on the generated plants a block
// is the twelve (K=8) or six (K=4) stations under one aggregation switch,
// keyed by its lowest station ID, and consecutive in station order.
func TestStationBlocksAreAggregationSwitches(t *testing.T) {
	for _, k := range []int{4, 8} {
		g, err := topo.Generate(topo.GenParams{K: k, ClusterSize: 3, MBTypes: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		blocks := stationBlocks(g.Topology, g.GatewayID)
		size := 3 * k / 2
		if len(blocks) != len(g.Stations) {
			t.Fatalf("K=%d: %d block entries for %d stations", k, len(blocks), len(g.Stations))
		}
		for bs, key := range blocks {
			if want := packet.BSID(bs - bs%size); key != want {
				t.Fatalf("K=%d: station %d in block %d, want %d (%d stations a block)", k, bs, key, want, size)
			}
		}
	}
}

// TestRingBlocksLieOnOneShard checks with testing/quick that every block
// of the city plant lies wholly on one shard, whatever the ring.
func TestRingBlocksLieOnOneShard(t *testing.T) {
	g, blocks := cityBlocks(t)
	prop := func(nShards, vnodes uint8) bool {
		ids := make([]int, int(nShards%8)+1)
		for i := range ids {
			ids[i] = i
		}
		r := NewRing(int(vnodes%64)+1, blocks, ids...)
		for _, st := range g.Stations {
			own, _ := r.Owner(st.ID)
			if blockOwner, _ := r.Owner(r.block(st.ID)); own != blockOwner {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRingBlockRemovalMovesOnlyVictimsBlocks: Without(id) moves exactly
// id's blocks, and With(id) moves blocks only onto id.
func TestRingBlockRemovalMovesOnlyVictimsBlocks(t *testing.T) {
	g, blocks := cityBlocks(t)
	prop := func(nShards, pick uint8) bool {
		n := int(nShards%7) + 2 // 2..8 shards
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		r := NewRing(DefaultVNodes, blocks, ids...)
		id := int(pick) % n
		without := r.Without(id)
		again := without.With(id)
		for _, st := range g.Stations {
			before, _ := r.Owner(st.ID)
			after, _ := without.Owner(st.ID)
			if (before == id) == (after == before) {
				return false // a victim's block stayed, or a survivor's moved
			}
			if back, _ := again.Owner(st.ID); back != before {
				return false // re-adding id must move exactly its blocks back
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRingBlockAdditionMovesBlocksOnlyToNewcomer is the dual: growing the
// ring moves blocks only onto the new shard.
func TestRingBlockAdditionMovesBlocksOnlyToNewcomer(t *testing.T) {
	g, blocks := cityBlocks(t)
	prop := func(nShards uint8) bool {
		n := int(nShards%7) + 1 // 1..7 existing shards
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		r := NewRing(DefaultVNodes, blocks, ids...)
		with := r.With(n)
		for _, st := range g.Stations {
			before, _ := r.Owner(st.ID)
			if after, _ := with.Owner(st.ID); after != before && after != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBlocksKeepTheGatewayTableSmall is the measured table behind placing
// blocks rather than stations (DESIGN.md §8): the city plant at 1, 2 and 4
// shards with every (station, allow clause) path installed, reporting the
// fullest hardware switch and the station imbalance (fullest shard over the
// mean) under each layout. Per-station hashing gives every shard stations
// everywhere, so no shard's location prefixes aggregate; blocks keep a
// shard's stations under shared prefixes.
func TestBlocksKeepTheGatewayTableSmall(t *testing.T) {
	g, blocks := cityBlocks(t)
	plan := packet.DefaultPlan
	plan.TagBits = 12
	pol := policy.ExampleCarrierPolicy()
	fullest := func(shards int, blocks []packet.BSID) (rules int, imbalance float64) {
		d, err := newOverBlocks(Config{
			Topology: g.Topology, Gateway: g.GatewayID, Policy: pol, Plan: plan, Shards: shards,
			MBTypes: map[string]topo.MBType{policy.MBFirewall: 0, policy.MBTranscoder: 1, policy.MBEchoCancel: 2},
		}, blocks)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for _, st := range g.Stations {
			for _, cl := range allowClauses(t, d) {
				if _, err := d.RequestPath(st.ID, cl); err != nil {
					t.Fatal(err)
				}
			}
		}
		most := 0
		for _, s := range d.Shards() {
			most = max(most, len(s.Stations))
		}
		for n := range g.Nodes {
			if g.Nodes[n].Kind == topo.Access {
				continue
			}
			sum := 0
			for _, s := range d.Shards() {
				sum += s.Ctrl.Installer.FIB(topo.NodeID(n)).NumRules()
			}
			rules = max(rules, sum)
		}
		return rules, float64(most) * float64(shards) / float64(len(g.Stations))
	}
	t.Logf("%-6s  %-26s  %s", "shards", "fullest switch: stations", "blocks (station imbalance)")
	for _, shards := range []int{1, 2, 4} {
		byStation, _ := fullest(shards, nil)
		byBlock, imb := fullest(shards, blocks)
		t.Logf("%-6d  %-26d  %d (%.3f)", shards, byStation, byBlock, imb)
		if shards == 1 && byBlock != byStation {
			t.Fatalf("one shard: %d rules with blocks, %d without; the layout must not matter", byBlock, byStation)
		}
		if shards > 1 && byBlock >= byStation {
			t.Fatalf("%d shards: fullest switch holds %d rules with blocks, %d with stations", shards, byBlock, byStation)
		}
		if shards == 2 && byBlock > 400 {
			t.Fatalf("two shards: fullest switch holds %d rules with blocks, more than 400", byBlock)
		}
	}
}
