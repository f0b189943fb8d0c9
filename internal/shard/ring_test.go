package shard

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// layouts are the block sets the placement properties run on: the city
// plant's blocks (32 of twelve stations), the same 384 stations one to a
// block, the K=2 plant's two blocks of ten (the dispatcher tests' and
// chaos's plant: with more shards than blocks some runs are empty), and
// nil blocks, which place no station at all.
func layouts(t testing.TB) map[string][]packet.BSID {
	t.Helper()
	_, city := cityBlocks(t)
	perStation := make([]packet.BSID, len(city))
	for bs := range perStation {
		perStation[bs] = packet.BSID(bs)
	}
	g, err := topo.Generate(topo.GenParams{K: 2, ClusterSize: 10, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]packet.BSID{"city": city, "per-station": perStation,
		"two blocks": stationBlocks(g.Topology, g.GatewayID), "nil": nil}
}

// shardIDs returns 0 to n-1.
func shardIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// checkRuns verifies a ring over blocks against the placement's defining
// properties: the ring owns exactly the stations the blocks cover, every
// block lies on one shard, and walking the blocks in ascending key order
// visits the live shards' runs in ascending shard order, each once.
func checkRuns(r *Ring, blocks []packet.BSID) error {
	if _, ok := r.Owner(packet.BSID(len(blocks))); ok {
		return fmt.Errorf("station %d, past the blocks, has an owner", len(blocks))
	}
	pos := -1 // position in r.Shards() of the last block's owner
	for bs, key := range blocks {
		own, ok := r.Owner(packet.BSID(bs))
		if ok != (r.Len() > 0) || ok && !r.Has(own) {
			return fmt.Errorf("station %d: owner %d, %v on a ring of %v", bs, own, ok, r.Shards())
		}
		if blockOwner, _ := r.Owner(key); own != blockOwner {
			return fmt.Errorf("station %d on shard %d, its block %d on shard %d", bs, own, key, blockOwner)
		}
		if int(key) != bs || !ok {
			continue // not a block's first station
		}
		p := 0
		for r.Shards()[p] != own {
			p++
		}
		if p < pos {
			return fmt.Errorf("block %d on shard %d comes after shard %d's run", key, own, r.Shards()[pos])
		}
		pos = p
	}
	return nil
}

// stationsBy counts each shard's stations, zero for an empty run.
func stationsBy(r *Ring, blocks []packet.BSID) map[int]int {
	n := make(map[int]int)
	for _, id := range r.Shards() {
		n[id] = 0
	}
	for bs := range blocks {
		own, _ := r.Owner(packet.BSID(bs))
		n[own]++
	}
	return n
}

// TestRingBalance: on every layout and at 1–8 shards, the initial runs are
// contiguous and differ in station count by at most the largest block.
func TestRingBalance(t *testing.T) {
	for name, blocks := range layouts(t) {
		size := make(map[packet.BSID]int)
		block := 0
		for _, key := range blocks {
			size[key]++
			block = max(block, size[key])
		}
		for n := 1; n <= 8; n++ {
			r := NewRing(blocks, shardIDs(n)...)
			if err := checkRuns(r, blocks); err != nil {
				t.Fatalf("%s, %d shards: %v", name, n, err)
			}
			lo, hi := len(blocks), 0
			for _, c := range stationsBy(r, blocks) {
				lo, hi = min(lo, c), max(hi, c)
			}
			if hi-lo > block {
				t.Fatalf("%s, %d shards: runs hold %v stations, more than a block apart", name, n, stationsBy(r, blocks))
			}
		}
	}
}

// TestRingRemovalMovesOnlyVictimsStations checks failover placement with
// testing/quick: from 1–8 shards, remove shards in a random order down to
// one. Each Without moves only the victim's stations, each to the nearest
// live shard before or after it — all of them to the one neighbour at
// either end — and leaves every live shard one contiguous run in shard
// order.
func TestRingRemovalMovesOnlyVictimsStations(t *testing.T) {
	for name, blocks := range layouts(t) {
		prop := func(nShards uint8, seed int64) bool {
			r := NewRing(blocks, shardIDs(int(nShards%8)+1)...)
			for _, victim := range rand.New(rand.NewSource(seed)).Perm(r.Len())[1:] {
				if err := removeOne(r, victim, blocks); err != nil {
					t.Logf("%s: %v", name, err)
					return false
				}
				r = r.Without(victim)
			}
			return r.Len() == 1
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// removeOne checks r.Without(victim) against r.
func removeOne(r *Ring, victim int, blocks []packet.BSID) error {
	after := r.Without(victim)
	if after.Has(victim) || after.Len() != r.Len()-1 {
		return fmt.Errorf("without %d: shards %v", victim, after.Shards())
	}
	if err := checkRuns(after, blocks); err != nil {
		return fmt.Errorf("without %d: %v", victim, err)
	}
	ids := r.Shards()
	prev, next := -1, -1 // the victim's live neighbours in shard order
	for i, id := range ids {
		if id == victim {
			if i > 0 {
				prev = ids[i-1]
			}
			if i+1 < len(ids) {
				next = ids[i+1]
			}
		}
	}
	for bs := range blocks {
		was, _ := r.Owner(packet.BSID(bs))
		now, _ := after.Owner(packet.BSID(bs))
		switch {
		case was != victim && now != was:
			return fmt.Errorf("without %d: station %d moved from live shard %d to %d", victim, bs, was, now)
		case was == victim && now != prev && now != next:
			return fmt.Errorf("without %d: station %d went to %d, not neighbour %d or %d", victim, bs, now, prev, next)
		}
	}
	return nil
}

// TestRingBlocksLieOnOneShard checks with testing/quick that every block
// of the city plant lies wholly on one shard, however many shards start
// and whichever ones fail.
func TestRingBlocksLieOnOneShard(t *testing.T) {
	_, blocks := cityBlocks(t)
	prop := func(nShards uint8, kills uint8, seed int64) bool {
		r := NewRing(blocks, shardIDs(int(nShards%8)+1)...)
		for _, victim := range rand.New(rand.NewSource(seed)).Perm(r.Len())[:int(kills)%r.Len()] {
			r = r.Without(victim)
		}
		for bs, key := range blocks {
			own, _ := r.Owner(packet.BSID(bs))
			if blockOwner, _ := r.Owner(key); own != blockOwner {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRingBlockRemovalMovesOnlyVictimsBlocks: on the city plant, removing
// a middle shard splits its run at the middle block — the lower half to
// the shard before it, the upper half to the one after — and removing an
// end shard hands its whole run to its one neighbour.
func TestRingBlockRemovalMovesOnlyVictimsBlocks(t *testing.T) {
	_, blocks := cityBlocks(t)
	r := NewRing(blocks, 0, 1, 2, 3) // eight blocks, 96 stations each
	for _, tc := range []struct {
		victim int
		want   map[int]int // stations per live shard after
	}{
		{0, map[int]int{1: 192, 2: 96, 3: 96}},
		{1, map[int]int{0: 144, 2: 144, 3: 96}},
		{2, map[int]int{0: 96, 1: 144, 3: 144}},
		{3, map[int]int{0: 96, 1: 96, 2: 192}},
	} {
		if err := removeOne(r, tc.victim, blocks); err != nil {
			t.Fatal(err)
		}
		if got := stationsBy(r.Without(tc.victim), blocks); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("without %d: stations per shard %v, want %v", tc.victim, got, tc.want)
		}
	}
}

func TestRingPartitionCoversAllStations(t *testing.T) {
	_, blocks := cityBlocks(t)
	r := NewRing(blocks, 0, 1, 2)
	stations := make([]packet.BSID, len(blocks))
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
	if _, err := r.Partition([]packet.BSID{packet.BSID(len(blocks))}); err == nil {
		t.Fatal("partitioned a station past the blocks")
	}
}

func TestRingEdgeCases(t *testing.T) {
	blocks := []packet.BSID{0, 0, 2, 2}
	empty := NewRing(blocks)
	if _, ok := empty.Owner(0); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if _, err := empty.Partition([]packet.BSID{0}); err == nil {
		t.Fatal("empty ring partitioned stations")
	}
	r := NewRing(blocks, 5)
	if r.Without(9) != r {
		t.Fatal("Without(absent) should return the same ring")
	}
	if owner, ok := r.Owner(3); !ok || owner != 5 {
		t.Fatalf("single-shard ring: owner = %d, %v", owner, ok)
	}
	for _, bs := range []packet.BSID{4, 1<<32 - 1} {
		if _, ok := r.Owner(bs); ok {
			t.Fatalf("station %d, outside the blocks, has an owner", bs)
		}
	}
	if last := r.Without(5); last.Len() != 0 {
		t.Fatalf("removing the last shard left %v", last.Shards())
	} else if _, ok := last.Owner(0); ok {
		t.Fatal("a ring with no shards left claimed an owner")
	}
	// More shards than blocks: the middle run is empty, and removing its
	// shard moves nothing.
	r = NewRing(blocks, 0, 1, 2)
	if got := fmt.Sprint(stationsBy(r, blocks)); got != "map[0:2 1:0 2:2]" {
		t.Fatalf("two blocks on three shards: %s", got)
	}
	if err := removeOne(r, 1, blocks); err != nil {
		t.Fatal(err)
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

// TestBlocksKeepTheGatewayTableSmall is the measured table behind placing
// contiguous runs of blocks (DESIGN.md §8): the city plant at 1, 2 and 4
// shards with every (station, allow clause) path installed, reporting the
// fullest hardware switch and the station imbalance (fullest shard over
// the mean). A shard whose stations sit under a few shared location
// prefixes needs few per-prefix rules; the runs keep them there.
func TestBlocksKeepTheGatewayTableSmall(t *testing.T) {
	g, _ := cityBlocks(t)
	plan := packet.DefaultPlan
	plan.TagBits = 12
	pol := policy.ExampleCarrierPolicy()
	want := map[int]int{1: 162, 2: 219, 4: 333}
	t.Logf("%-6s  %-14s  %s", "shards", "fullest switch", "station imbalance")
	for _, shards := range []int{1, 2, 4} {
		d, err := New(Config{
			Topology: g.Topology, Gateway: g.GatewayID, Policy: pol, Plan: plan, Shards: shards,
			MBTypes: map[string]topo.MBType{policy.MBFirewall: 0, policy.MBTranscoder: 1, policy.MBEchoCancel: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range g.Stations {
			for _, cl := range allowClauses(t, d) {
				if _, err := d.RequestPath(st.ID, cl); err != nil {
					t.Fatal(err)
				}
			}
		}
		most, rules := 0, 0
		for _, s := range d.Shards() {
			most = max(most, len(s.Ctrl.Stations()))
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
		d.Close()
		imbalance := float64(most) * float64(shards) / float64(len(g.Stations))
		t.Logf("%-6d  %-14d  %.3f", shards, rules, imbalance)
		if shards == 1 && rules != want[1] {
			t.Fatalf("one shard: fullest switch holds %d rules, want %d", rules, want[1])
		}
		if diff := float64(rules-want[shards]) / float64(want[shards]); diff > 0.05 || diff < -0.05 {
			t.Fatalf("%d shards: fullest switch holds %d rules, want %d within 5%%", shards, rules, want[shards])
		}
		if imbalance > 1.1 {
			t.Fatalf("%d shards: station imbalance %.3f, above 1.1", shards, imbalance)
		}
	}
}
