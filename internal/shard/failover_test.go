package shard

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// TestFailShardRebuildsFromReportsAlone kills a shard and checks its UE
// state is reassembled on the survivors from the one recovery source, live
// agents' location reports (§5.2). A UE whose agent stays silent is lost:
// detached, with its permanent address kept for its next attach.
func TestFailShardRebuildsFromReportsAlone(t *testing.T) {
	d, g := newTestDispatcher(t, 3)
	ring := d.Ring()

	// Pick a victim shard owning at least two stations, so one UE can be
	// covered by an agent report and another left unreported.
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
	if rep.FromReports != 1 || rep.Lost != 1 || rep.Dropped != 0 {
		t.Fatalf("recovery: %+v, want 1 from reports, 1 lost, 0 dropped", rep)
	}
	if rep.Stations != len(part[victim]) {
		t.Fatalf("moved %d stations, want %d", rep.Stations, len(part[victim]))
	}
	if d.Ring().Has(victim) {
		t.Fatal("failed shard still on the ring")
	}
	if !d.Shard(victim).Down() {
		t.Fatal("failed shard not marked down")
	}

	// The reported UE survives with its addresses intact on a survivor.
	got, ok := d.LookupUE(reportedUE.IMSI)
	if !ok || got.BS != reportedUE.BS || got.LocIP != reportedUE.LocIP || got.PermIP != reportedUE.PermIP {
		t.Fatalf("reported UE rebuilt as %+v, %v; want %+v", got, ok, reportedUE)
	}
	owner, _ := d.Ring().Owner(got.BS)
	if owner == victim {
		t.Fatal("reported UE still maps to the dead shard")
	}
	if _, ok := d.Shard(owner).Ctrl.LookupUE(reportedUE.IMSI); !ok {
		t.Fatalf("new owner shard %d does not hold the reported UE", owner)
	}
	if loc, err := d.ResolveLocIP(reportedUE.PermIP); err != nil || loc != reportedUE.LocIP {
		t.Fatalf("ResolveLocIP(%s) = %s, %v after failover", reportedUE.PermIP, loc, err)
	}

	// The silent UE is detached, and says so.
	if stale, ok := d.LookupUE(silentUE.IMSI); ok {
		t.Fatalf("unreported UE still found: %+v", stale)
	}
	if h := d.subs.Holder(silentUE.IMSI); h != 0 {
		t.Fatalf("unreported UE still marked held by instance %d", h)
	}
	if _, err := d.Handoff(silentUE.IMSI, reportedUE.BS); !errors.Is(err, core.ErrNotAttached) {
		t.Fatalf("handoff of the lost UE: err = %v, want ErrNotAttached", err)
	}
	if _, err := d.ResolveLocIP(silentUE.PermIP); !errors.Is(err, core.ErrNotAttached) {
		t.Fatalf("resolving the lost UE: err = %v, want ErrNotAttached", err)
	}
	// Re-attaching restores it under the address it always had.
	back, _, err := d.Attach(silentUE.IMSI, silentUE.BS)
	if err != nil {
		t.Fatalf("re-attach of the lost UE: %v", err)
	}
	if back.PermIP != silentUE.PermIP {
		t.Fatalf("lost UE re-attached under %s, had %s", back.PermIP, silentUE.PermIP)
	}
	if loc, err := d.ResolveLocIP(silentUE.PermIP); err != nil || loc != back.LocIP {
		t.Fatalf("ResolveLocIP(%s) = %s, %v; want the new location %s", silentUE.PermIP, loc, err, back.LocIP)
	}
	if _, err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Every moved station serves path requests again — including ones
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
// dispatcher's callers attach fresh subscribers at the victim's station, and
// no agent reports: every attach that reported success is either held by a
// survivor (it ran after the ring moved) or counted lost (it ran inside the
// victim — FailShard waits those out, however late they commit, before it
// releases the victim's holder marks), and no mark names the victim after.
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
				} else if i%4 == 1 && n < 1000 {
					// Four attaching callers of at most 1 000 each stay under
					// the station's 4 095 UE IDs however long the failover
					// takes on a loaded host; past that they request paths.
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
	rep, err := d.FailShard(victim, nil)
	if err != nil {
		t.Error(err)
	}
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("callers still in flight 30 s after the failover")
	}
	// Every attach that succeeded ran through the victim before it died, or
	// through a survivor after the ring moved; only the latter is found.
	found := 0
	for _, imsi := range attached {
		if ue, ok := d.LookupUE(imsi); ok {
			found++
			if ue.BS != bs {
				t.Errorf("UE %q found at station %d, attached at %d", imsi, ue.BS, bs)
			}
		}
	}
	t.Logf("%d attaches succeeded: %d on a survivor, %d lost with the victim", len(attached), found, rep.Lost)
	if found+rep.Lost != len(attached) {
		t.Errorf("%d found + %d lost != %d attaches that succeeded", found, rep.Lost, len(attached))
	}
	if n := d.subs.HeldBy(d.Shard(victim).Ctrl.Instance()); n != 0 {
		t.Errorf("%d holder marks still name the dead shard", n)
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

// TestFloodThroughAFailover is the -race flood: eight callers mix path
// requests, handoffs and attaches over two shards bounded at 8 operations
// each, and one of them fails a shard mid-flood with no agent reports.
// Every error is a policy answer (a handoff to the station the UE is at,
// or to a UE the failover lost) or, while the failover is in progress,
// the dead-shard window (ErrShardDown, or core.ErrNotOwned from a new
// owner yet to absorb the station). Afterwards the control plane is
// consistent, and a fresh attach at the moved station and a cross-shard
// handoff back both complete.
func TestFloodThroughAFailover(t *testing.T) {
	d, g := newBoundedDispatcher(t, 2, 8)
	bsA, bsB := twoShardStations(t, d, g)
	clauses := allowClauses(t, d)

	const workers = 8
	for i := 0; i < workers; i++ {
		imsi := fmt.Sprintf("imsi-%d", i)
		if err := d.RegisterSubscriber(imsi, policy.Attributes{Provider: "p", DeviceType: "phone"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.Attach(imsi, bsA); err != nil {
			t.Fatal(err)
		}
	}

	victim, err := d.ShardOf(bsB)
	if err != nil {
		t.Fatal(err)
	}
	var failedOver atomic.Bool
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			imsi := fmt.Sprintf("imsi-%d", i)
			for n := 0; n < 200; n++ {
				bs := bsA
				if n%2 == 1 {
					bs = bsB
				}
				after := failedOver.Load()
				var err error
				switch n % 3 {
				case 0:
					_, err = d.RequestPath(bs, clauses[n%len(clauses)])
				case 1:
					_, err = d.Handoff(imsi, bs)
				default:
					_, _, err = d.Attach(imsi, bs)
				}
				switch {
				case err == nil, errors.Is(err, core.ErrNotAttached),
					strings.Contains(err.Error(), "already at base station"):
				case !after && (errors.Is(err, ErrShardDown) || errors.Is(err, core.ErrNotOwned)):
				default:
					t.Errorf("caller %d, op %d (failed over: %v): %v", i, n, after, err)
				}
				if n == 50 && i == 0 {
					if _, ferr := d.FailShard(victim.ID, nil); ferr != nil {
						t.Errorf("failover: %v", ferr)
					}
					failedOver.Store(true)
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if !victim.Down() {
		t.Fatal("the failed shard is not down")
	}
	if _, err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterSubscriber("imsi-final", policy.Attributes{Provider: "p", DeviceType: "phone"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Attach("imsi-final", bsB); err != nil {
		t.Fatalf("post-failover attach: %v", err)
	}
	if _, err := d.Handoff("imsi-final", bsA); err != nil {
		t.Fatalf("post-failover handoff: %v", err)
	}
	if ue, ok := d.LookupUE("imsi-final"); !ok || ue.BS != bsA {
		t.Fatalf("handoff lost the UE: %+v ok=%v", ue, ok)
	}
}

// TestRecoverLocationsMatchesOneController gives one controller and 1-, 2-
// and 3-shard dispatchers the same UEs and then the same agent reports: a
// UE no report names is detached, whichever shard held it, so every system
// ends with the same attached UEs at the same stations.
func TestRecoverLocationsMatchesOneController(t *testing.T) {
	g, err := topo.Generate(topo.GenParams{K: 2, ClusterSize: 10, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.ExampleCarrierPolicy()
	mbTypes := map[string]topo.MBType{policy.MBFirewall: 0, policy.MBTranscoder: 1, policy.MBEchoCancel: 2}
	// Two UEs at every fourth station: five stations, spread over every shard.
	var imsis []string
	at := make(map[string]packet.BSID)
	for s := 0; s < len(g.Stations); s += 4 {
		for k := 0; k < 2; k++ {
			imsi := fmt.Sprintf("ue-%d-%d", s, k)
			imsis = append(imsis, imsi)
			at[imsi] = g.Stations[s].ID
		}
	}
	type system interface {
		RegisterSubscriber(string, policy.Attributes) error
		LookupUE(string) (core.UE, bool)
		RecoverLocations([]core.AgentLocationReport) error
	}
	populate := func(sys system, attach func(string, packet.BSID) error) {
		t.Helper()
		for _, imsi := range imsis {
			if err := sys.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
				t.Fatal(err)
			}
			if err := attach(imsi, at[imsi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	attached := func(sys system) map[string]packet.BSID {
		out := make(map[string]packet.BSID)
		for _, imsi := range imsis {
			if ue, ok := sys.LookupUE(imsi); ok {
				out[imsi] = ue.BS
			}
		}
		return out
	}

	first, last := g.Stations[0].ID, g.Stations[len(g.Stations)-4].ID
	for name, reported := range map[string][]packet.BSID{
		"none":           nil,
		"first":          {first},
		"first and last": {first, last},
	} {
		t.Run(name, func(t *testing.T) {
			ctrl, err := core.NewController(g.Topology, core.ControllerConfig{
				Gateway: g.GatewayID, Policy: pol, MBTypes: mbTypes,
			})
			if err != nil {
				t.Fatal(err)
			}
			populate(ctrl, func(imsi string, bs packet.BSID) error {
				_, _, err := ctrl.Attach(imsi, bs)
				return err
			})
			var reports []core.AgentLocationReport
			for _, bs := range reported {
				rep := core.AgentLocationReport{BS: bs}
				for _, imsi := range imsis {
					if ue, ok := ctrl.LookupUE(imsi); ok && ue.BS == bs {
						rep.UEs = append(rep.UEs, ue)
					}
				}
				reports = append(reports, rep)
			}
			if err := ctrl.RecoverLocations(reports); err != nil {
				t.Fatal(err)
			}
			want := attached(ctrl)
			if len(want) != 2*len(reported) {
				t.Fatalf("one controller kept %d UEs, want %d", len(want), 2*len(reported))
			}

			for _, shards := range []int{1, 2, 3} {
				d, _ := newTestDispatcher(t, shards)
				populate(d, func(imsi string, bs packet.BSID) error {
					_, _, err := d.Attach(imsi, bs)
					return err
				})
				if err := d.RecoverLocations(reports); err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				if got := attached(d); !maps.Equal(got, want) {
					t.Errorf("%d shards: attached %v, one controller %v", shards, got, want)
				}
				if _, err := d.CheckInvariants(); err != nil {
					t.Errorf("%d shards: %v", shards, err)
				}
			}
		})
	}
}
