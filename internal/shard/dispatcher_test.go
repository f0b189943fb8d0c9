package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// newTestDispatcher builds a dispatcher over a small generated network
// (K=2, ClusterSize=10 → 20 base stations) running the Table 1 policy.
func newTestDispatcher(t testing.TB, shards int) (*Dispatcher, *topo.Generated) {
	t.Helper()
	return newBoundedDispatcher(t, shards, 0)
}

// newBoundedDispatcher is newTestDispatcher with each shard's bound set
// (0 keeps the default), so a handful of goroutines is enough to make
// callers wait at it.
func newBoundedDispatcher(t testing.TB, shards, queueLen int) (*Dispatcher, *topo.Generated) {
	t.Helper()
	g, err := topo.Generate(topo.GenParams{K: 2, ClusterSize: 10, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Topology: g.Topology,
		Gateway:  g.GatewayID,
		Policy:   policy.ExampleCarrierPolicy(),
		MBTypes: map[string]topo.MBType{
			policy.MBFirewall: 0, policy.MBTranscoder: 1, policy.MBEchoCancel: 2,
		},
		Shards:   shards,
		QueueLen: queueLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, g
}

// allowClauses lists the policy's allow-clause ids (the ones with paths).
func allowClauses(t testing.TB, d *Dispatcher) []int {
	t.Helper()
	pol := d.cfg.Policy
	var out []int
	for id := 0; id < pol.Len(); id++ {
		cl, _ := pol.Clause(id)
		if cl.Action.Allow {
			out = append(out, id)
		}
	}
	if len(out) == 0 {
		t.Fatal("policy has no allow clauses")
	}
	return out
}

// twoShardStations finds two stations owned by different shards.
func twoShardStations(t testing.TB, d *Dispatcher, g *topo.Generated) (a, b packet.BSID) {
	t.Helper()
	ring := d.Ring()
	first, _ := ring.Owner(g.Stations[0].ID)
	for _, st := range g.Stations[1:] {
		if owner, _ := ring.Owner(st.ID); owner != first {
			return g.Stations[0].ID, st.ID
		}
	}
	t.Skip("ring placed every station on one shard")
	return 0, 0
}

func TestDispatcherServesPathsWithPartitionedTags(t *testing.T) {
	const shards = 4
	d, g := newTestDispatcher(t, shards)
	clauses := allowClauses(t, d)
	ring := d.Ring()
	requests := 0
	for _, st := range g.Stations {
		owner, _ := ring.Owner(st.ID)
		for _, cl := range clauses {
			tag, err := d.RequestPath(st.ID, cl)
			if err != nil {
				t.Fatalf("RequestPath(%d, %d): %v", st.ID, cl, err)
			}
			if tag == 0 {
				t.Fatalf("RequestPath(%d, %d) returned the ask-controller tag", st.ID, cl)
			}
			// Each shard allocates from its own residue class, so a tag
			// proves which shard minted it.
			if int(tag)%shards != owner {
				t.Fatalf("station %d owned by shard %d got tag %d (residue %d)",
					st.ID, owner, tag, int(tag)%shards)
			}
			requests++
		}
	}
	total := uint64(0)
	for id, served := range d.Served() {
		if served > 0 && !ring.Has(id) {
			t.Fatalf("dead shard %d served requests", id)
		}
		total += served
	}
	if total != uint64(requests) {
		t.Fatalf("shards served %d requests, want %d", total, requests)
	}
}

func TestDispatcherAttachResolveDetach(t *testing.T) {
	d, g := newTestDispatcher(t, 3)
	if err := d.RegisterSubscriber("imsi-1", policy.Attributes{Provider: "A", Plan: "gold"}); err != nil {
		t.Fatal(err)
	}
	bs := g.Stations[0].ID
	ue, cls, err := d.Attach("imsi-1", bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) == 0 {
		t.Fatal("attach returned no classifiers")
	}
	got, ok := d.LookupUE("imsi-1")
	if !ok || got.BS != bs || got.LocIP != ue.LocIP {
		t.Fatalf("LookupUE = %+v, %v", got, ok)
	}
	loc, err := d.ResolveLocIP(ue.PermIP)
	if err != nil || loc != ue.LocIP {
		t.Fatalf("ResolveLocIP = %s, %v; want %s", loc, err, ue.LocIP)
	}
	if err := d.Detach("imsi-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ResolveLocIP(ue.PermIP); !errors.Is(err, core.ErrNotAttached) {
		t.Fatalf("resolving a detached UE: err = %v, want ErrNotAttached", err)
	}
	if err := d.Detach("imsi-1"); !errors.Is(err, core.ErrNotAttached) {
		t.Fatalf("second detach: err = %v, want ErrNotAttached", err)
	}
}

func TestAttachOnAnotherShardMigratesRecord(t *testing.T) {
	d, g := newTestDispatcher(t, 4)
	bsA, bsB := twoShardStations(t, d, g)
	if err := d.RegisterSubscriber("roamer", policy.Attributes{Provider: "B"}); err != nil {
		t.Fatal(err)
	}
	first, _, err := d.Attach("roamer", bsA)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := d.Attach("roamer", bsB)
	if err != nil {
		t.Fatal(err)
	}
	if second.PermIP != first.PermIP {
		t.Fatalf("permanent IP changed across shards: %s -> %s", first.PermIP, second.PermIP)
	}
	srcShard, _ := d.ShardOf(bsA)
	if _, ok := srcShard.Ctrl.LookupUE("roamer"); ok {
		t.Fatal("source shard still holds the migrated record")
	}
	if loc, err := d.ResolveLocIP(first.PermIP); err != nil || loc != second.LocIP {
		t.Fatalf("ResolveLocIP after migration = %s, %v; want %s", loc, err, second.LocIP)
	}
}

// TestPermPoolIsOneAcrossShards: the /30 a per-shard carving used to refuse
// serves a two-shard dispatcher its three addresses, whichever shard takes
// the attach; the fourth subscriber is refused with the typed error on both
// shards, and the refusal leaves nothing behind on either.
func TestPermPoolIsOneAcrossShards(t *testing.T) {
	g, err := topo.Generate(topo.GenParams{K: 2, ClusterSize: 10, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Topology: g.Topology, Gateway: g.GatewayID, Policy: policy.ExampleCarrierPolicy(),
		Shards: 2, PermPool: packet.NewPrefix(packet.AddrFrom4(100, 64, 0, 0), 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	bsA, bsB := twoShardStations(t, d, g)
	seen := map[packet.Addr]bool{}
	for i, bs := range []packet.BSID{bsA, bsB, bsA} {
		imsi := fmt.Sprintf("ue-%d", i)
		if err := d.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
		ue, _, err := d.Attach(imsi, bs)
		if err != nil {
			t.Fatal(err)
		}
		if seen[ue.PermIP] || !d.cfg.PermPool.Contains(ue.PermIP) {
			t.Fatalf("%s bound to %s: outside the pool, or bound twice", imsi, ue.PermIP)
		}
		seen[ue.PermIP] = true
	}
	if err := d.RegisterSubscriber("late", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	before := d.MemStats()
	for _, bs := range []packet.BSID{bsA, bsB} {
		if _, _, err := d.Attach("late", bs); !errors.Is(err, core.ErrPermPoolExhausted) {
			t.Fatalf("attach at station %d with the pool empty: err = %v, want ErrPermPoolExhausted", bs, err)
		}
	}
	if _, ok := d.LookupUE("late"); ok {
		t.Fatal("the refused attach left a UE record")
	}
	after := d.MemStats()
	if after.Attached != 3 || after.SlotsAllocated != before.SlotsAllocated || after.FreeUEIDs != before.FreeUEIDs {
		t.Fatalf("after the refused attaches: %d attached, slots %d -> %d, free UE IDs %d -> %d; want 3 attached, nothing moved",
			after.Attached, before.SlotsAllocated, after.SlotsAllocated, before.FreeUEIDs, after.FreeUEIDs)
	}
	if _, err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLocationChangesCommitNothing: a UE's location is the agents' state
// (§5.2), not the replicated store's. Attach, same-shard and cross-shard
// handoff, adoption by a re-attach on the other shard, and detach commit
// nothing to any shard's store or to the subscriber table's.
func TestLocationChangesCommitNothing(t *testing.T) {
	d, g := newTestDispatcher(t, 2)
	a, b := twoShardStations(t, d, g)
	home, _ := d.ShardOf(a)
	near, found := a, false // a second station of a's shard
	for _, st := range g.Stations {
		if s, _ := d.ShardOf(st.ID); s == home && st.ID != a {
			near, found = st.ID, true
			break
		}
	}
	if !found {
		t.Skip("a's shard owns one station")
	}
	for _, imsi := range []string{"walker", "sitter"} {
		if err := d.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
	}
	commits := func() []uint64 {
		out := []uint64{d.subs.Store.Primary().Applied()}
		for _, s := range d.Shards() {
			out = append(out, s.Ctrl.Store.Primary().Applied())
		}
		return out
	}
	before := commits()
	ops := []struct {
		name string
		run  func() error
	}{
		{"attach", func() error { _, _, err := d.Attach("walker", a); return err }},
		{"same-shard handoff", func() error { _, err := d.Handoff("walker", near); return err }},
		{"cross-shard handoff", func() error { _, err := d.Handoff("walker", b); return err }},
		{"attach sitter", func() error { _, _, err := d.Attach("sitter", b); return err }},
		{"re-attach on the other shard (adopt)", func() error { _, _, err := d.Attach("sitter", a); return err }},
		{"detach", func() error { return d.Detach("walker") }},
		{"detach sitter", func() error { return d.Detach("sitter") }},
	}
	for _, op := range ops {
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if after := commits(); !slices.Equal(after, before) {
			t.Fatalf("%s moved the commit sequences (subscriber store, then each shard's) %v -> %v", op.name, before, after)
		}
	}
}

func TestDispatcherSingleShardMatchesUnsharded(t *testing.T) {
	d, g := newTestDispatcher(t, 1)
	clauses := allowClauses(t, d)
	for _, st := range g.Stations[:4] {
		for _, cl := range clauses {
			if tag, err := d.RequestPath(st.ID, cl); err != nil || tag == 0 {
				t.Fatalf("RequestPath(%d, %d) = %d, %v", st.ID, cl, tag, err)
			}
		}
	}
	if err := d.RegisterSubscriber("solo", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Attach("solo", g.Stations[0].ID); err != nil {
		t.Fatal(err)
	}
}

// TestManyCallersOneShard runs attach, path request, handoff and detach
// from 16 goroutines against the stations of a single shard, whose bound
// (4) is well below the caller count: every operation executes on its
// caller's goroutine inside the one controller, callers beyond the bound
// wait rather than fail, and afterwards the control plane is consistent
// and the shard has served exactly the operations that were issued.
func TestManyCallersOneShard(t *testing.T) {
	d, g := newBoundedDispatcher(t, 2, 4)
	part, err := d.Ring().Partition(stationIDs(g.Stations))
	if err != nil {
		t.Fatal(err)
	}
	s := d.Shard(0)
	owned := part[0]
	if len(owned) < 2 {
		t.Skip("shard 0 owns fewer than two stations under this ring")
	}
	clauses := allowClauses(t, d)
	const callers, rounds = 16, 25
	for i := 0; i < callers; i++ {
		if err := d.RegisterSubscriber(fmt.Sprintf("ue-%d", i), policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
	}
	before, other := s.Served(), d.Shard(1).Served()

	var ops atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			imsi := fmt.Sprintf("ue-%d", i)
			for n := 0; n < rounds; n++ {
				home, away := owned[(i+n)%len(owned)], owned[(i+n+1)%len(owned)]
				_, _, err := d.Attach(imsi, home)
				if err == nil {
					_, err = d.RequestPath(home, clauses[(i+n)%len(clauses)])
				}
				if err == nil {
					_, err = d.Handoff(imsi, away)
				}
				if err == nil {
					_, err = d.RequestPath(away, clauses[n%len(clauses)])
				}
				if err == nil {
					err = d.Detach(imsi)
				}
				if err != nil {
					t.Errorf("caller %d round %d: %v", i, n, err)
					return
				}
				ops.Add(5)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if _, err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.Served() - before; got != ops.Load() {
		t.Fatalf("shard 0 served %d operations, callers completed %d", got, ops.Load())
	}
	if got := d.Shard(1).Served(); got != other {
		t.Fatalf("shard 1 served %d operations for shard 0's stations", got-other)
	}
}

func TestDispatcherRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config with no topology")
	}
	g, err := topo.Generate(topo.GenParams{K: 2, ClusterSize: 2, MBTypes: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Topology: g.Topology, Gateway: g.GatewayID}); err == nil {
		t.Fatal("New accepted a config with no policy")
	}
}

func ExampleRing_Owner() {
	r := NewRing(DefaultVNodes, 0, 1)
	owner, _ := r.Owner(7)
	fmt.Println(owner >= 0 && owner <= 1)
	// Output: true
}

// TestCloseTwiceReturns pins Close as repeatable: plant users defer it and
// may also call it on their way out, and the second call must not try to
// fill the slots the first already took.
func TestCloseTwiceReturns(t *testing.T) {
	d, _ := newTestDispatcher(t, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Close()
		d.Close()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("second Close did not return")
	}
	if _, err := d.RequestPath(0, allowClauses(t, d)[0]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("request after Close: %v, want ErrShardDown", err)
	}
}
