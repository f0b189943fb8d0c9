package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// TestFailShardRebuildsFromStoreAndReports kills a shard and checks its UE
// state is reassembled on the survivors from the two recovery sources: live
// agents' location reports, and — for a UE whose agent stays silent — the
// dead shard's replicated store alone.
func TestFailShardRebuildsFromStoreAndReports(t *testing.T) {
	d, g := newTestDispatcher(t, 3)
	ring := d.Ring()

	// Pick a victim shard owning at least two stations, so one UE can be
	// covered by an agent report and another left to the store.
	part, err := ring.Partition(stationIDs(g.Stations))
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for id, owned := range part {
		if len(owned) >= 2 {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Skip("no shard owns two stations under this ring")
	}
	bsReported, bsSilent := part[victim][0], part[victim][1]

	for i, bs := range []packet.BSID{bsReported, bsSilent} {
		imsi := fmt.Sprintf("ue-%d", i)
		if err := d.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.Attach(imsi, bs); err != nil {
			t.Fatal(err)
		}
	}
	reportedUE, _ := d.LookupUE("ue-0")
	silentUE, _ := d.LookupUE("ue-1")

	// Only the first station's agent answers the post-failure query.
	reports := []core.AgentLocationReport{{BS: bsReported, UEs: []core.UE{reportedUE}}}
	rep, err := d.FailShard(victim, reports)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromReports != 1 || rep.FromStore != 1 {
		t.Fatalf("recovery sources: %+v, want 1 from reports and 1 from store", rep)
	}
	if rep.Stations != len(part[victim]) {
		t.Fatalf("rehashed %d stations, want %d", rep.Stations, len(part[victim]))
	}
	if d.Ring().Has(victim) {
		t.Fatal("failed shard still on the ring")
	}
	if !d.Shard(victim).Down() {
		t.Fatal("failed shard not marked down")
	}

	// Both UEs survive with their addresses intact on surviving shards.
	for _, want := range []core.UE{reportedUE, silentUE} {
		got, ok := d.LookupUE(want.IMSI)
		if !ok {
			t.Fatalf("UE %q lost in failover", want.IMSI)
		}
		if got.BS != want.BS || got.LocIP != want.LocIP || got.PermIP != want.PermIP {
			t.Fatalf("UE %q rebuilt as %+v, want %+v", want.IMSI, got, want)
		}
		owner, _ := d.Ring().Owner(got.BS)
		if owner == victim {
			t.Fatalf("UE %q still maps to the dead shard", want.IMSI)
		}
		if _, ok := d.Shard(owner).Ctrl.LookupUE(want.IMSI); !ok {
			t.Fatalf("new owner shard %d does not hold UE %q", owner, want.IMSI)
		}
		if loc, err := d.ResolveLocIP(want.PermIP); err != nil || loc != want.LocIP {
			t.Fatalf("ResolveLocIP(%s) = %s, %v after failover", want.PermIP, loc, err)
		}
	}

	// Every rehashed station serves path requests again — including ones
	// that held no UEs — and new tags come from the survivor's partition.
	clauses := allowClauses(t, d)
	for _, bs := range part[victim] {
		owner, _ := d.Ring().Owner(bs)
		tag, err := d.RequestPath(bs, clauses[0])
		if err != nil {
			t.Fatalf("RequestPath(%d) after failover: %v", bs, err)
		}
		if tag == 0 || int(tag)%3 != owner {
			t.Fatalf("station %d tag %d not from new owner %d", bs, tag, owner)
		}
	}

	// The survivors can keep serving handoffs for the recovered UE.
	var other packet.BSID
	for _, st := range g.Stations {
		if owner, _ := d.Ring().Owner(st.ID); owner != victim && st.ID != reportedUE.BS {
			other = st.ID
			break
		}
	}
	if hr, err := d.Handoff("ue-0", other); err != nil {
		t.Fatalf("handoff of recovered UE: %v", err)
	} else if hr.UE.PermIP != reportedUE.PermIP {
		t.Fatal("recovered UE lost its permanent IP on handoff")
	}

	// A second failure of the same shard is refused.
	if _, err := d.FailShard(victim, nil); err == nil {
		t.Fatal("FailShard accepted an already-dead shard")
	}
}

func TestFailShardRefusesLastShard(t *testing.T) {
	d, _ := newTestDispatcher(t, 1)
	if _, err := d.FailShard(0, nil); err == nil {
		t.Fatal("failed the only shard")
	}
	if _, err := d.FailShard(7, nil); err == nil {
		t.Fatal("failed a nonexistent shard")
	}
}

// TestRequestPathRetriesAcrossFailover checks the documented retry: a
// request that catches ErrShardDown rides the fresh ring to a survivor.
func TestRequestPathRetriesAcrossFailover(t *testing.T) {
	d, g := newTestDispatcher(t, 2)
	clauses := allowClauses(t, d)
	part, err := d.Ring().Partition(stationIDs(g.Stations))
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for id, owned := range part {
		if len(owned) > 0 {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Skip("degenerate partition")
	}
	bs := part[victim][0]
	if _, err := d.FailShard(victim, nil); err != nil {
		t.Fatal(err)
	}
	// The dead shard answers ErrShardDown directly; the dispatcher's retry
	// hides it from the caller.
	if _, err := d.Shard(victim).requestPath(obs.SpanContext{}, bs, clauses[0]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("dead shard answered %v, want ErrShardDown", err)
	}
	if tag, err := d.RequestPath(bs, clauses[0]); err != nil || tag == 0 {
		t.Fatalf("RequestPath through failover = %d, %v", tag, err)
	}
}

// TestFailShardWithCallersInFlight fails a shard while 16 goroutines are
// inside it or waiting at its bound (2): every call made on the victim
// returns a tag or ErrShardDown, every call made through the dispatcher
// rides its one retry to a survivor, and nobody is left waiting. Half of the
// dispatcher's callers attach fresh subscribers at the victim's station:
// FailShard waits out the operations inside the victim before it reads the
// victim's store, so every attach that reported success — however late it
// committed — is rebuilt on a survivor.
func TestFailShardWithCallersInFlight(t *testing.T) {
	d, g := newBoundedDispatcher(t, 2, 2)
	clauses := allowClauses(t, d)
	part, err := d.Ring().Partition(stationIDs(g.Stations))
	if err != nil {
		t.Fatal(err)
	}
	const victim = 0
	if len(part[victim]) == 0 {
		t.Skip("degenerate partition")
	}
	bs := part[victim][0]

	const callers = 16
	var wg, started sync.WaitGroup
	stop := make(chan struct{})
	var attachedMu sync.Mutex
	var attached []string
	for i := 0; i < callers; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				cl := clauses[(i+n)%len(clauses)]
				var err error
				if i%2 == 0 {
					// Straight at the victim: no ring, no retry.
					_, err = d.Shard(victim).requestPath(obs.SpanContext{}, bs, cl)
				} else if i%4 == 1 {
					imsi := fmt.Sprintf("inflight-%d-%d", i, n)
					if err = d.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err == nil {
						_, _, err = d.Attach(imsi, bs)
					}
					if err == nil {
						attachedMu.Lock()
						attached = append(attached, imsi)
						attachedMu.Unlock()
					} else if errors.Is(err, core.ErrNotOwned) {
						err = nil // the same window as the path requests below
					}
				} else if _, err = d.RequestPath(bs, cl); errors.Is(err, core.ErrNotOwned) {
					// The retry reached the new owner before FailShard had
					// it absorb the station; the window closes with FailShard.
					err = nil
				}
				if err != nil && !errors.Is(err, ErrShardDown) {
					t.Errorf("caller %d: %v", i, err)
				}
				if n == 0 {
					started.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(i)
	}
	started.Wait()
	if _, err := d.FailShard(victim, nil); err != nil {
		t.Error(err)
	}
	// What had attached by now attached through the victim or, after the
	// ring moved, through a survivor; either way a survivor serves it.
	attachedMu.Lock()
	for _, imsi := range attached {
		if ue, ok := d.LookupUE(imsi); !ok || ue.BS != bs {
			t.Errorf("UE %q attached before FailShard returned, LookupUE after = %+v, %v", imsi, ue, ok)
		}
	}
	t.Logf("%d attaches had succeeded when FailShard returned", len(attached))
	attachedMu.Unlock()
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("callers still in flight 30 s after the failover")
	}

	if _, err := d.Shard(victim).requestPath(obs.SpanContext{}, bs, clauses[0]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("dead shard answered %v, want ErrShardDown", err)
	}
	if tag, err := d.RequestPath(bs, clauses[0]); err != nil || tag == 0 {
		t.Fatalf("RequestPath after failover = %d, %v", tag, err)
	}
	if _, err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func stationIDs(stations []topo.BaseStation) []packet.BSID {
	out := make([]packet.BSID, len(stations))
	for i, st := range stations {
		out[i] = st.ID
	}
	return out
}

// TestPermanentAddressSurvivesItsShard: a permanent address is the
// subscriber table's fact, not the serving shard's. A UE that attached and
// detached through a shard that then died has no record anywhere, and its
// next attach — on a survivor — is under the address it always had, which
// resolves to its new location.
func TestPermanentAddressSurvivesItsShard(t *testing.T) {
	d, g := newTestDispatcher(t, 3)
	bs := g.Stations[0].ID
	victim, _ := d.ShardOf(bs)
	if err := d.RegisterSubscriber("idle", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	first, _, err := d.Attach("idle", bs)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Detach("idle"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.FailShard(victim.ID, nil); err != nil {
		t.Fatal(err)
	}
	if stale, ok := d.LookupUE("idle"); ok {
		t.Fatalf("LookupUE found a record of a detached UE: %+v", stale)
	}
	ue, _, err := d.Attach("idle", bs)
	if err != nil {
		t.Fatalf("re-attach after the serving shard died: %v", err)
	}
	if ue.PermIP != first.PermIP {
		t.Fatalf("permanent address changed with the shard: %s -> %s", first.PermIP, ue.PermIP)
	}
	if got, ok := d.LookupUE("idle"); !ok || got != ue {
		t.Fatalf("LookupUE after re-attach = %+v, %v; want %+v", got, ok, ue)
	}
	if loc, err := d.ResolveLocIP(first.PermIP); err != nil || loc != ue.LocIP {
		t.Fatalf("ResolveLocIP(%s) = %s, %v; want the new location %s", first.PermIP, loc, err, ue.LocIP)
	}
	if _, err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
