package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/routing"
	"repro/internal/store"
	"repro/internal/topo"
)

// shardedController builds a controller restricted to the given stations
// with the tag partition (offset, stride) and its own permanent-address
// block over a fresh Fig. 3 network, admitting from subs (nil = a table of
// its own).
func shardedController(t *testing.T, subs *Subscribers, stations []packet.BSID, offset, stride int) *Controller {
	t.Helper()
	n := newFig3Net(t)
	if _, err := n.AttachMiddlebox(2, n.cs1); err != nil {
		t.Fatal(err)
	}
	c, err := NewController(n.Topology, ControllerConfig{
		Gateway: n.gw,
		Policy:  policy.ExampleCarrierPolicy(),
		MBTypes: map[string]topo.MBType{
			policy.MBFirewall:   0,
			policy.MBTranscoder: 1,
			policy.MBEchoCancel: 2,
		},
		PermPool:    packet.NewPrefix(packet.AddrFrom4(100, 64+byte(offset), 0, 0), 16),
		Stations:    stations,
		Install:     InstallerOptions{TagOffset: offset, TagStride: stride},
		Subscribers: subs,
		Obs:         obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRestrictedControllerRejectsForeignStations(t *testing.T) {
	c := shardedController(t, nil, []packet.BSID{0, 1}, 0, 2)
	if err := c.RegisterSubscriber("a", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attach("a", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attach("a", 2); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("attach at foreign station: err = %v, want ErrNotOwned", err)
	}
	if _, err := c.Handoff("a", 3); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("handoff to foreign station: err = %v, want ErrNotOwned", err)
	}
	web, _ := c.Policy.Match(policy.Attributes{Provider: "A"}, policy.AppWeb)
	if _, err := c.RequestPath(2, web); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("path request from foreign station: err = %v, want ErrNotOwned", err)
	}
	if _, err := c.RequestPath(1, web); err != nil {
		t.Fatalf("path request from owned station: %v", err)
	}
	if c.Owns(2) || !c.Owns(0) {
		t.Fatal("Owns disagrees with the restriction")
	}
	if got := len(c.Stations()); got != 2 {
		t.Fatalf("Stations() = %d entries, want 2", got)
	}
}

func TestExtractAdoptMigratesUE(t *testing.T) {
	// Two shards over their own copies of the network: A owns {0,1},
	// B owns {2,3}; tag partition 0/2 and 1/2. Both admit from one
	// subscriber table, the way shard.New wires its shards.
	subs := NewSubscribers(store.New(1), packet.Prefix{})
	a := shardedController(t, subs, []packet.BSID{0, 1}, 0, 2)
	b := shardedController(t, subs, []packet.BSID{2, 3}, 1, 2)
	if err := a.RegisterSubscriber("mover", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	if subs.Len() != 1 || subs.Store.Primary().Count("sub/") != 1 {
		t.Fatal("registration through a controller did not land in the shared table, once")
	}
	if a.Store.Primary().Count("sub/") != 0 || b.Store.Primary().Count("sub/") != 0 {
		t.Fatal("a controller's own store holds a copy of the registration")
	}
	ue, _, err := a.Attach("mover", 0)
	if err != nil {
		t.Fatal(err)
	}
	perm := ue.PermIP

	m, err := a.ExtractUE("mover")
	if err != nil {
		t.Fatal(err)
	}
	if m.PermIP != perm || m.OldBS != 0 || m.OldLocIP != ue.LocIP {
		t.Fatalf("migrated record wrong: %+v", m)
	}
	if _, ok := a.LookupUE("mover"); ok {
		t.Fatal("source still holds the UE after extract")
	}
	if _, err := a.ResolveLocIP(perm); err == nil {
		t.Fatal("source still resolves the moved UE's permanent IP")
	}
	// The record played one role, so extraction frees its slot; the shared
	// table is not this controller's to count.
	if ms := a.MemStats(); ms.Attached != 0 || ms.FreeSlots != 1 || ms.Subscribers != 0 {
		t.Fatalf("source after extract: %d records, %d free slots, %d subscribers; want 0, 1, 0",
			ms.Attached, ms.FreeSlots, ms.Subscribers)
	}

	got, cls, err := b.AdoptUE(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.PermIP != perm {
		t.Fatalf("permanent IP changed across shards: %s != %s", got.PermIP, perm)
	}
	if bs, _, ok := b.Plan().Split(got.LocIP); !ok || bs != 2 {
		t.Fatalf("LocIP %s not allocated at the new station", got.LocIP)
	}
	if len(cls) == 0 {
		t.Fatal("no classifiers compiled on the target shard")
	}
	if loc, err := b.ResolveLocIP(perm); err != nil || loc != got.LocIP {
		t.Fatalf("target resolve = %s, %v", loc, err)
	}
	// Policy paths resolve on the target, with tags from its partition.
	web, _ := b.Policy.Match(got.Attr, policy.AppWeb)
	tag, err := b.RequestPath(2, web)
	if err != nil {
		t.Fatal(err)
	}
	if tag%2 != 1 {
		t.Fatalf("target shard (offset 1, stride 2) emitted tag %d outside its residue class", tag)
	}
	// Adopting twice is an error; adopting at a foreign station is refused.
	if _, _, err := b.AdoptUE(m, 2); err == nil {
		t.Fatal("double adopt should fail")
	}
	if _, _, err := a.AdoptUE(MigratedUE{IMSI: "x", PermIP: 1}, 2); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("adopt at foreign station: %v", err)
	}
	// Registered once, admitted anywhere: B first-attaches a subscriber it
	// never heard of directly.
	if err := a.RegisterSubscriber("fresh", policy.Attributes{Provider: "B"}); err != nil {
		t.Fatal(err)
	}
	if fresh, _, err := b.Attach("fresh", 3); err != nil || fresh.Attr.Provider != "B" {
		t.Fatalf("attach on the other controller of a shared table: %+v, %v", fresh, err)
	}
	for _, c := range []*Controller{a, b} {
		if _, err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdoptedUEOutsideSubscriberTable pins the one edge that differs for
// controllers that do not share a table: a migrated-in UE whose IMSI the
// receiver never registered is served while its record exists — the record
// carries its attributes — and is an unknown subscriber once it is gone.
func TestAdoptedUEOutsideSubscriberTable(t *testing.T) {
	a := shardedController(t, nil, []packet.BSID{0, 1}, 0, 2)
	b := shardedController(t, nil, []packet.BSID{2, 3}, 1, 2)
	if err := a.RegisterSubscriber("mover", policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
		t.Fatal(err)
	}
	first, _, err := a.Attach("mover", 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := a.ExtractUE("mover")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.AdoptUE(m, 2); err != nil {
		t.Fatal(err)
	}
	again, _, err := b.Attach("mover", 3)
	if err != nil {
		t.Fatalf("re-attach of an adopted UE while its record exists: %v", err)
	}
	if again.PermIP != first.PermIP || again.Attr != first.Attr {
		t.Fatalf("re-attach changed the UE: %+v, first admitted as %+v", again, first)
	}
	if _, err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Detaching removes the record, and with it everything b knew about the
	// UE except the address its table keeps bound to the IMSI.
	if err := b.Detach("mover"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Attach("mover", 3); err == nil || !strings.Contains(err.Error(), "unknown subscriber") {
		t.Fatalf("attach after the record left: err = %v, want unknown subscriber", err)
	}
}

func TestTagPartitionsAreDisjoint(t *testing.T) {
	n := newFig3Net(t)
	pl := routing.NewPlanner(n.Topology)
	seen := map[packet.Tag]int{}
	for off := 0; off < 3; off++ {
		in := mustInstaller(t, n.Topology, InstallerOptions{TagOffset: off, TagStride: 3})
		for bs := packet.BSID(0); bs < 4; bs++ {
			for _, chain := range [][]topo.MBType{{0}, {0, 1}, {1}} {
				route, err := pl.Plan(bs, chain, n.gw)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := in.InstallPath(route)
				if err != nil {
					t.Fatal(err)
				}
				for _, tag := range rec.Tags {
					if int(tag%3) != off {
						t.Fatalf("installer with offset %d emitted tag %d", off, tag)
					}
					if prev, dup := seen[tag]; dup && prev != off {
						t.Fatalf("tag %d emitted by offsets %d and %d", tag, prev, off)
					}
					seen[tag] = off
				}
			}
		}
	}
	if _, err := NewInstaller(n.Topology, InstallerOptions{TagOffset: 3, TagStride: 3}); err == nil {
		t.Fatal("offset >= stride should be rejected")
	}
}

func TestAbsorbStationRebuildsState(t *testing.T) {
	subs := NewSubscribers(store.New(1), packet.Prefix{})
	a := shardedController(t, subs, []packet.BSID{0, 1}, 0, 2)
	b := shardedController(t, subs, []packet.BSID{2, 3}, 1, 2)
	_ = a.RegisterSubscriber("u1", policy.Attributes{Provider: "A"})
	_ = a.RegisterSubscriber("u2", policy.Attributes{Provider: "A", Plan: "silver"})
	u1, _, err := a.Attach("u1", 1)
	if err != nil {
		t.Fatal(err)
	}
	u2, _, err := a.Attach("u2", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Shard A dies; B absorbs station 1 with A's reported records.
	if b.Owns(1) {
		t.Fatal("precondition: B must not own station 1 yet")
	}
	if err := b.AbsorbStation(1, []UE{u1, u2}); err != nil {
		t.Fatal(err)
	}
	if !b.Owns(1) {
		t.Fatal("absorb did not grant ownership")
	}
	for _, want := range []UE{u1, u2} {
		got, ok := b.LookupUE(want.IMSI)
		if !ok || got.LocIP != want.LocIP || got.UEID != want.UEID || got.PermIP != want.PermIP {
			t.Fatalf("absorbed %q = %+v, want %+v", want.IMSI, got, want)
		}
		if loc, err := b.ResolveLocIP(want.PermIP); err != nil || loc != want.LocIP {
			t.Fatalf("resolve %q after absorb: %s, %v", want.IMSI, loc, err)
		}
	}
	// Fresh allocations at the absorbed station skip the imported UEIDs.
	_ = b.RegisterSubscriber("new", policy.Attributes{Provider: "A"})
	nu, _, err := b.Attach("new", 1)
	if err != nil {
		t.Fatal(err)
	}
	if nu.UEID == u1.UEID || nu.UEID == u2.UEID {
		t.Fatalf("fresh UEID %d collides with an absorbed one", nu.UEID)
	}
	if n := subs.HeldBy(b.Instance()); n != 3 {
		t.Fatalf("table marks %d UEs held by B, want 3", n)
	}
}

// TestReleaseAllDetachesUnreportedUEs: when a dead instance's station is
// absorbed without a report for one of its UEs, that UE's mark is the only
// one still naming the dead instance. ReleaseAll clears it, the UE is
// detached with its address bound, and it re-attaches under that address.
func TestReleaseAllDetachesUnreportedUEs(t *testing.T) {
	subs := NewSubscribers(store.New(1), packet.Prefix{})
	a := shardedController(t, subs, []packet.BSID{0, 1}, 0, 2)
	b := shardedController(t, subs, []packet.BSID{2, 3}, 1, 2)
	var ues []UE
	for _, imsi := range []string{"reported", "silent"} {
		if err := a.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
		ue, _, err := a.Attach(imsi, 1)
		if err != nil {
			t.Fatal(err)
		}
		ues = append(ues, ue)
	}
	if err := b.AbsorbStation(1, ues[:1]); err != nil {
		t.Fatal(err)
	}
	if held := subs.HeldBy(a.Instance()); held != 1 {
		t.Fatalf("after the absorb %d marks name the dead instance, want 1", held)
	}
	if lost := subs.ReleaseAll(a.Instance()); lost != 1 || subs.HeldBy(a.Instance()) != 0 {
		t.Fatalf("ReleaseAll cleared %d marks, %d left; want 1 and 0", lost, subs.HeldBy(a.Instance()))
	}
	if h := subs.Holder("silent"); h != 0 {
		t.Fatalf("silent UE still marked held by %d", h)
	}
	if h := subs.Holder("reported"); h != b.Instance() {
		t.Fatalf("reported UE marked held by %d, want B (%d)", h, b.Instance())
	}
	if imsi, ok := subs.ByPerm(ues[1].PermIP); !ok || imsi != "silent" {
		t.Fatalf("silent UE's address %s resolves to %q, %v", ues[1].PermIP, imsi, ok)
	}
	back, _, err := b.Attach("silent", 1)
	if err != nil || back.PermIP != ues[1].PermIP {
		t.Fatalf("re-attach of the silent UE = %+v, %v; want permanent address %s", back, err, ues[1].PermIP)
	}
	if _, err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesHolderDisagreement plants both ways the
// subscriber table's holder mark and a controller's records can part.
func TestCheckInvariantsCatchesHolderDisagreement(t *testing.T) {
	c := shardedController(t, nil, []packet.BSID{0, 1}, 0, 2)
	for _, imsi := range []string{"here", "idle"} {
		if err := c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Attach("here", 0); err != nil {
		t.Fatal(err)
	}
	c.subs.release("here", c.inst)
	if _, err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "held here = false") {
		t.Fatalf("record whose holder mark is gone: err = %v", err)
	}
	if _, _, err := c.subs.admit("here", c.inst); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.subs.admit("idle", c.inst); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), `holder of UE "idle", which has no record here`) {
		t.Fatalf("holder mark with no record: err = %v", err)
	}
	c.subs.release("idle", c.inst)
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
