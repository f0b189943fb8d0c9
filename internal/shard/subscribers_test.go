package shard

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/policy"
)

// subKeys counts "sub/" keys across the shared store and every shard's own.
func subKeys(d *Dispatcher) int {
	n := d.subs.Store.Primary().Count("sub/")
	for _, s := range d.shards {
		n += s.Ctrl.Store.Primary().Count("sub/")
	}
	return n
}

// TestSubscriberRecordedOnceAtAnyWidth is the property the shared table
// exists for: the same 10 000 subscribers over the same topology cost the
// same at 1, 2 and 4 shards — one table entry and one "sub/" key each,
// and every shard's slab holds only the UEs it owns. Run with -v for the
// EXPERIMENTS.md table.
func TestSubscriberRecordedOnceAtAnyWidth(t *testing.T) {
	const n, attached, recSize = 10000, 2500, 40
	var base uint64 // 1-shard footprint, slab rounding taken out
	for _, width := range []int{1, 2, 4} {
		d, g := newTestDispatcher(t, width)
		for i := 0; i < n; i++ {
			attr := policy.Attributes{Provider: "A", Plan: [3]string{"gold", "silver", "bronze"}[i%3]}
			if err := d.RegisterSubscriber(fmt.Sprintf("imsi-%05d", i), attr); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < attached; i++ {
			if _, _, err := d.Attach(fmt.Sprintf("imsi-%05d", i*4), g.Stations[i%len(g.Stations)].ID); err != nil {
				t.Fatal(err)
			}
		}
		ms := d.MemStats()
		if ms.Subscribers != n {
			t.Fatalf("%d shards: fleet counts %d subscribers, want %d", width, ms.Subscribers, n)
		}
		if keys := subKeys(d); keys != n {
			t.Fatalf("%d shards: %d sub/ keys across all stores, want %d", width, keys, n)
		}
		records, slabs := 0, uint64(0)
		for _, s := range d.shards {
			sm := s.Ctrl.MemStats()
			owned := 0
			for _, ue := range s.Ctrl.UEs() {
				if owner, _ := d.Ring().Owner(ue.BS); owner == s.ID {
					owned++
				}
			}
			if sm.Attached != owned || sm.SlotsAllocated-sm.FreeSlots != owned {
				t.Fatalf("%d shards: shard %d holds %d records in %d slots, owns %d UEs",
					width, s.ID, sm.Attached, sm.SlotsAllocated-sm.FreeSlots, owned)
			}
			records += sm.Attached
			slabs += sm.SlabBytes
		}
		if records != attached || ms.Attached != attached {
			t.Fatalf("%d shards: %d UE records (fleet snapshot %d), want %d", width, records, ms.Attached, attached)
		}
		// A live shard's slab grows 1024 records at a time, so at this
		// population the raw footprint carries one mostly-empty slab per
		// shard; the comparison charges slabs at the records in use.
		used := ms.TableBytes() - slabs + uint64(records)*recSize
		if width == 1 {
			base = used
		} else if used > base+base/10 || used < base-base/10 {
			t.Fatalf("%d shards: table footprint %d B, not within 10%% of the 1-shard %d B", width, used, base)
		}
		t.Logf("shards=%d subscribers=%d sub/keys=%d TableBytes/sub=%.1f (raw %.1f, %d slabs)",
			width, ms.Subscribers, subKeys(d), float64(used)/n, float64(ms.TableBytes())/n, slabs/(1024*recSize))
		if _, err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegisterOnceAttachAnywhere walks one registration across the shard
// boundary in every way the dispatcher moves a UE, and checks a subscriber
// that never attached is still admitted after its would-be shard failed.
func TestRegisterOnceAttachAnywhere(t *testing.T) {
	d, g := newTestDispatcher(t, 3)
	bsA, bsB := twoShardStations(t, d, g)
	shardA, _ := d.ShardOf(bsA)
	shardB, _ := d.ShardOf(bsB)
	for _, imsi := range []string{"walker", "sleeper"} {
		if err := d.RegisterSubscriber(imsi, policy.Attributes{Provider: "A", Plan: "gold"}); err != nil {
			t.Fatal(err)
		}
	}
	heldBy := func(want *Shard) {
		t.Helper()
		for _, s := range d.shards {
			if _, ok := s.Ctrl.LookupUE("walker"); ok != (s == want) {
				t.Fatalf("shard %d holds walker = %v, want the record on shard %d only", s.ID, ok, want.ID)
			}
		}
	}
	first, _, err := d.Attach("walker", bsA)
	if err != nil {
		t.Fatal(err)
	}
	heldBy(shardA)
	if err := d.Detach("walker"); err != nil {
		t.Fatal(err)
	}
	second, _, err := d.Attach("walker", bsB)
	if err != nil {
		t.Fatal(err)
	}
	if second.PermIP != first.PermIP {
		t.Fatalf("permanent IP changed on re-attach across shards: %s -> %s", first.PermIP, second.PermIP)
	}
	heldBy(shardB)
	hr, err := d.Handoff("walker", bsA)
	if err != nil {
		t.Fatal(err)
	}
	if hr.UE.PermIP != first.PermIP || hr.UE.Attr != first.Attr {
		t.Fatalf("handed back as %+v, first admitted as %+v", hr.UE, first)
	}
	heldBy(shardA)

	// sleeper never attached, so no shard ever heard of it; its first
	// attach lands on a survivor that absorbed the dead shard's station.
	if _, err := d.FailShard(shardB.ID, nil); err != nil {
		t.Fatal(err)
	}
	ue, _, err := d.Attach("sleeper", bsB)
	if err != nil {
		t.Fatalf("first attach at a moved station: %v", err)
	}
	if owner, _ := d.Ring().Owner(bsB); owner == shardB.ID || ue.BS != bsB {
		t.Fatalf("sleeper attached as %+v with station %d still routed to the dead shard %d", ue, bsB, owner)
	}
	if _, err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesMarkOnDeadShard stops a failover halfway — the
// shard is dead and off the ring, but nothing rebuilt or released its UE —
// and checks the sweep names the holder mark left pointing at it.
func TestCheckInvariantsCatchesMarkOnDeadShard(t *testing.T) {
	d, g := newTestDispatcher(t, 2)
	bs := g.Stations[0].ID
	if err := d.RegisterSubscriber("orphan", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Attach("orphan", bs); err != nil {
		t.Fatal(err)
	}
	victim, _ := d.ShardOf(bs)
	d.ring.Store(d.Ring().Without(victim.ID))
	victim.close()
	want := fmt.Sprintf("marks 1 UEs held by dead shard %d", victim.ID)
	if _, err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("mark on a dead shard: err = %v, want %q", err, want)
	}
}

// TestCheckInvariantsCatchesSecondSubscriberCopy plants the duplicates the
// shared table removed and checks the sweep names each.
func TestCheckInvariantsCatchesSecondSubscriberCopy(t *testing.T) {
	d, _ := newTestDispatcher(t, 2)
	if err := d.RegisterSubscriber("s", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Shard(1).Ctrl.Store.Put("sub/s", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "own store holds 1 subscriber") {
		t.Fatalf("copy in a shard's store: err = %v", err)
	}
	if _, err := d.Shard(1).Ctrl.Store.Delete("sub/s"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.subs.Store.Put("sub/ghost", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "shared store holds 2 subscriber records, the table 1") {
		t.Fatalf("key with no table entry: err = %v", err)
	}
}
