package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
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

// TestFailedMoveKeepsTheUE moves a UE from station A to a station B with
// no UE ID left (a 2-bit UE field holds three), by Attach and by Handoff,
// with A and B on one shard and on two. Every move is refused, and the UE
// is still attached at A: a cross-shard move the target refuses goes back
// onto the source.
func TestFailedMoveKeepsTheUE(t *testing.T) {
	g, err := topo.Generate(topo.GenParams{K: 2, ClusterSize: 10, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	moves := map[string]func(d *Dispatcher, imsi string, bs packet.BSID) error{
		"Attach": func(d *Dispatcher, imsi string, bs packet.BSID) error {
			_, _, err := d.Attach(imsi, bs)
			return err
		},
		"Handoff": func(d *Dispatcher, imsi string, bs packet.BSID) error {
			_, err := d.Handoff(imsi, bs)
			return err
		},
	}
	for name, move := range moves {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%d-shard", name, shards), func(t *testing.T) {
				d, err := New(Config{
					Topology: g.Topology,
					Gateway:  g.GatewayID,
					Policy:   policy.ExampleCarrierPolicy(),
					MBTypes: map[string]topo.MBType{
						policy.MBFirewall: 0, policy.MBTranscoder: 1, policy.MBEchoCancel: 2,
					},
					Shards: shards,
					Plan: packet.Plan{
						Carrier: packet.DefaultPlan.Carrier, UEBits: 2, BSBits: 22, TagBits: 12,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(d.Close)
				bsA, bsB := g.Stations[0].ID, g.Stations[1].ID
				if shards > 1 {
					bsA, bsB = twoShardStations(t, d, g)
				}
				attach := func(imsi string, bs packet.BSID) core.UE {
					t.Helper()
					if err := d.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
						t.Fatal(err)
					}
					ue, _, err := d.Attach(imsi, bs)
					if err != nil {
						t.Fatal(err)
					}
					return ue
				}
				x := attach("x", bsA)
				for i := 0; i < 3; i++ {
					attach(fmt.Sprintf("fill-%d", i), bsB)
				}
				if err := move(d, "x", bsB); err == nil {
					t.Fatal("moved a UE to a station with no UE ID left")
				}
				ue, ok := d.LookupUE("x")
				if !ok || ue.BS != bsA || ue.PermIP != x.PermIP {
					t.Fatalf("after the refused move: %+v attached=%v, want at station %d", ue, ok, bsA)
				}
				if _, err := d.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLateReleaseOfAMovedUEFreesOnlyItsOwnAddress: a UE that hands off
// within shard 0 and then moves to shard 1 leaves its reserved old LocIP
// parked on shard 0, so the release that fires later frees that address
// alone. Another UE given the same station's next address, and the handoff
// reservation it makes there, outlive that release; a third UE attaching at
// the station is never handed the second one's reserved LocIP.
func TestLateReleaseOfAMovedUEFreesOnlyItsOwnAddress(t *testing.T) {
	d, _ := newTestDispatcher(t, 2)
	home, away := d.Shard(0), d.Shard(1)
	st := home.Ctrl.Stations()
	s0, s1, far := st[0], st[1], away.Ctrl.Stations()[0]
	for _, imsi := range []string{"a", "b", "c"} {
		if err := d.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := d.Attach("a", s0); err != nil {
		t.Fatal(err)
	}
	hrA, err := d.Handoff("a", s1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Handoff("a", far); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Attach("b", s0); err != nil {
		t.Fatal(err)
	}
	hrB, err := d.Handoff("b", s1)
	if err != nil {
		t.Fatal(err)
	}
	before := home.Ctrl.MemStats().Reservations
	home.Ctrl.ReleaseOldLocIP(hrA.OldLocIP, hrA.Shortcuts)
	if after := home.Ctrl.MemStats().Reservations; after != 1 {
		t.Errorf("a's late release of %s took shard 0's reservations from %d to %d; b's alone should remain", hrA.OldLocIP, before, after)
	}
	view, err := home.Ctrl.AgentView(s1)
	if err != nil {
		t.Fatal(err)
	}
	held := ""
	for _, u := range view.UEs {
		if slices.Contains(u.Reserved, hrB.OldLocIP) {
			held = u.UE.IMSI
		}
	}
	if held != "b" {
		t.Errorf("after a's release, b's reserved %s is held by %q, want b", hrB.OldLocIP, held)
	}
	ue, _, err := d.Attach("c", s0)
	if err != nil {
		t.Fatal(err)
	}
	if ue.LocIP == hrB.OldLocIP {
		t.Errorf("c was handed %s, which b's handoff still reserves", ue.LocIP)
	}
	if _, err := home.Ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
