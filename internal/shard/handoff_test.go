package shard

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
)

func TestCrossShardHandoffPreservesPolicyPath(t *testing.T) {
	const shards = 4
	d, g := newTestDispatcher(t, shards)
	bsA, bsB := twoShardStations(t, d, g)
	if err := d.RegisterSubscriber("mover", policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
		t.Fatal(err)
	}
	ue, before, err := d.Attach("mover", bsA)
	if err != nil {
		t.Fatal(err)
	}

	hr, err := d.Handoff("mover", bsB)
	if err != nil {
		t.Fatal(err)
	}
	if hr.OldBS != bsA || hr.OldLocIP != ue.LocIP {
		t.Fatalf("handoff result names old location %d/%s, want %d/%s",
			hr.OldBS, hr.OldLocIP, bsA, ue.LocIP)
	}
	if hr.UE.PermIP != ue.PermIP {
		t.Fatalf("permanent IP changed: %s -> %s", ue.PermIP, hr.UE.PermIP)
	}
	if hr.UE.BS != bsB {
		t.Fatalf("UE at station %d after handoff, want %d", hr.UE.BS, bsB)
	}

	// The policy path survives the shard boundary: the same clauses
	// classify the UE on the target, and each resolves to a live path
	// minted from the target shard's tag partition.
	targetOwner, _ := d.Ring().Owner(bsB)
	byClause := make(map[int]bool)
	for _, c := range before {
		byClause[c.Clause] = true
	}
	if len(hr.Classifiers) != len(before) {
		t.Fatalf("classifier count changed: %d -> %d", len(before), len(hr.Classifiers))
	}
	for _, c := range hr.Classifiers {
		if !byClause[c.Clause] {
			t.Fatalf("classifier clause %d appeared out of nowhere", c.Clause)
		}
		tag, err := d.RequestPath(bsB, c.Clause)
		if err != nil {
			t.Fatalf("path for clause %d at new station: %v", c.Clause, err)
		}
		if tag == 0 || int(tag)%shards != targetOwner {
			t.Fatalf("clause %d path tag %d not from target shard %d", c.Clause, tag, targetOwner)
		}
	}

	// The directory follows the move.
	if loc, err := d.ResolveLocIP(ue.PermIP); err != nil || loc != hr.UE.LocIP {
		t.Fatalf("ResolveLocIP = %s, %v; want %s", loc, err, hr.UE.LocIP)
	}
	srcShard, _ := d.ShardOf(bsA)
	if _, ok := srcShard.Ctrl.LookupUE("mover"); ok {
		t.Fatal("source shard still holds the UE")
	}
}

func TestHandoffOfUnknownUE(t *testing.T) {
	d, g := newTestDispatcher(t, 2)
	_, err := d.Handoff("ghost", g.Stations[0].ID)
	if !errors.Is(err, core.ErrNotAttached) {
		t.Fatalf("Handoff(ghost) = %v", err)
	}
}

// TestConcurrentCrossShardHandoffs hammers one UE with competing handoffs
// from two goroutines (plus readers) and checks, under the race detector,
// that the record ends up on exactly one shard with a consistent directory.
func TestConcurrentCrossShardHandoffs(t *testing.T) {
	d, g := newTestDispatcher(t, 4)
	bsA, bsB := twoShardStations(t, d, g)
	if err := d.RegisterSubscriber("contested", policy.Attributes{Provider: "B"}); err != nil {
		t.Fatal(err)
	}
	ue, _, err := d.Attach("contested", bsA)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 50
	var wg sync.WaitGroup
	hammer := func(phase int) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			bs := bsA
			if (i+phase)%2 == 0 {
				bs = bsB
			}
			// "already at" errors are expected when both goroutines pick the
			// same side; the invariant under test is consistency, not success.
			_, _ = d.Handoff("contested", bs)
		}
	}
	wg.Add(2)
	go hammer(0)
	go hammer(1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*2; i++ {
			_, _ = d.ResolveLocIP(ue.PermIP)
			_, _ = d.LookupUE("contested")
		}
	}()
	wg.Wait()

	// Exactly one shard holds the record, and the directory points at it.
	holders := 0
	var heldBy *Shard
	for _, s := range d.Shards() {
		if _, ok := s.Ctrl.LookupUE("contested"); ok {
			holders++
			heldBy = s
		}
	}
	if holders != 1 {
		t.Fatalf("%d shards hold the UE, want exactly 1", holders)
	}
	got, ok := d.LookupUE("contested")
	if !ok {
		t.Fatal("dispatcher lost the UE")
	}
	if got.BS != bsA && got.BS != bsB {
		t.Fatalf("UE at unexpected station %d", got.BS)
	}
	if owner, _ := d.Ring().Owner(got.BS); d.Shard(owner) != heldBy {
		t.Fatalf("UE at station %d but held by shard %d", got.BS, heldBy.ID)
	}
	if loc, err := d.ResolveLocIP(ue.PermIP); err != nil || loc != got.LocIP {
		t.Fatalf("directory out of sync: ResolveLocIP = %s, %v; UE.LocIP = %s", loc, err, got.LocIP)
	}
}
