package shard_test

// What a handoff costs the shards it touches, stated at the dispatcher on
// the plant every harness runs (internal/plant imports shard, hence the
// external test package): a UE leaving a station changes no path and no
// tag there, so the station's pushed view, its attaches and its path
// requests go on being served from the tag memo.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/plant"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/topo"
	"repro/internal/workload"
)

// warmPlant builds the 48-station, 2-shard plant of make city-smoke with
// every (station, allow clause) path installed.
func warmPlant(tb testing.TB) (*plant.Plant, *obs.Registry) {
	tb.Helper()
	reg := obs.New()
	p, err := plant.New(plant.Spec{Topo: topo.GenParams{K: 4, ClusterSize: 3, MBTypes: 3, Seed: 1}, Shards: 2, Obs: reg})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(p.Disp.Close)
	if err := p.WarmPaths(); err != nil {
		tb.Fatal(err)
	}
	return p, reg
}

// stationOn returns the skip'th station in generator order that shard id owns.
func stationOn(tb testing.TB, p *plant.Plant, id, skip int) packet.BSID {
	tb.Helper()
	for _, bs := range p.Stations {
		if owner, _ := p.Disp.Ring().Owner(bs); owner == id {
			if skip == 0 {
				return bs
			}
			skip--
		}
	}
	tb.Fatalf("shard %d owns too few stations", id)
	return 0
}

func register(tb testing.TB, d *shard.Dispatcher, n int) []string {
	tb.Helper()
	imsis := make([]string, n)
	for i := range imsis {
		imsis[i] = fmt.Sprintf("ue-%05d", i)
		if err := d.RegisterSubscriber(imsis[i], policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
			tb.Fatal(err)
		}
	}
	return imsis
}

// shardCounts is the state of one shard that only a path install, a policy
// withdrawal or a failure recomputation may move.
type shardCounts struct {
	memoMiss, pathMiss, epoch uint64
}

func countsOf(d *shard.Dispatcher, reg *obs.Registry) []shardCounts {
	snap := reg.Snapshot()
	out := make([]shardCounts, len(d.Shards()))
	for i, s := range d.Shards() {
		out[i] = shardCounts{
			memoMiss: snap.Counters[fmt.Sprintf("shard.%d.core.tagcache.miss", i)],
			pathMiss: s.Ctrl.Stats().PathMiss,
			epoch:    s.Ctrl.Epoch(),
		}
	}
	return out
}

// TestDepartureLeavesStationServed is the pushed-agent window: between a
// cross-shard handoff away from station S and S's next path requests, a
// snapshot cut for S's agent must still carry every grant, and a UE
// attaching at S must get resolved tags — not "ask the controller" for
// paths that are installed.
func TestDepartureLeavesStationServed(t *testing.T) {
	p, _ := warmPlant(t)
	d := p.Disp
	s, away := stationOn(t, p, 0, 0), stationOn(t, p, 1, 0)
	imsis := register(t, d, 2)
	if _, _, err := d.Attach(imsis[0], s); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Handoff(imsis[0], away); err != nil {
		t.Fatal(err)
	}

	view, err := d.AgentView(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Tags) != len(p.Clauses) {
		t.Fatalf("station %d view after a departure carries %d grants, want %d", s, len(view.Tags), len(p.Clauses))
	}
	_, cls, err := d.Attach(imsis[1], s)
	if err != nil {
		t.Fatal(err)
	}
	allowed := 0
	for _, cl := range cls {
		if !cl.Allow {
			continue
		}
		allowed++
		if cl.Tag == 0 {
			t.Fatalf("attach at station %d after a departure: clause %d unresolved although its path is installed", s, cl.Clause)
		}
	}
	if allowed == 0 {
		t.Fatal("attach returned no allow classifier")
	}
}

// churn applies the §6.1 event stream to the plant in event order — attach,
// handoff (local and cross-shard), detach, path request, and the deferred
// ReleaseOldLocIP of each local handoff two sim-seconds later — and returns
// how many handoffs of each kind it made.
func churn(tb testing.TB, p *plant.Plant, seed int64, simSecs int) (events, local, cross int) {
	tb.Helper()
	d := p.Disp
	st := workload.NewStream(workload.Params{
		Stations: len(p.Stations), StartSecond: 19 * 3600, Seed: seed,
		PeakArrivalsPerSec: 6, PeakHandoffsPerSec: 12, MeanSessionSeconds: 60,
	})
	initial := st.InitialPopulation()
	imsis := register(tb, d, len(initial)+16*simSecs)
	attachedAt := make([][]string, len(p.Stations))
	next := 0
	attach := func(bs int) {
		if next == len(imsis) {
			return
		}
		if _, _, err := d.Attach(imsis[next], p.Stations[bs]); err != nil {
			tb.Fatal(err)
		}
		attachedAt[bs] = append(attachedAt[bs], imsis[next])
		next++
	}
	for _, bs := range initial {
		attach(bs)
	}
	type release struct {
		due  int
		ctrl *core.Controller
		loc  packet.Addr
	}
	var releases []release
	for sec := 0; sec < simSecs; sec++ {
		ev := st.Next()
		for _, bs := range ev.Arrivals {
			attach(bs)
			events++
		}
		for _, ho := range ev.Handoffs {
			src, dst := ho[0], ho[1]
			l := attachedAt[src]
			if len(l) == 0 {
				continue
			}
			imsi := l[len(l)-1]
			hr, err := d.Handoff(imsi, p.Stations[dst])
			if err != nil {
				tb.Fatal(err)
			}
			events++
			attachedAt[src] = l[:len(l)-1]
			attachedAt[dst] = append(attachedAt[dst], imsi)
			from, _ := d.ShardOf(p.Stations[src])
			to, _ := d.ShardOf(p.Stations[dst])
			if from != to {
				cross++ // ExtractUE tore the reservation down with the record
				continue
			}
			local++
			releases = append(releases, release{due: sec + 2, ctrl: to.Ctrl, loc: hr.OldLocIP})
		}
		for _, bs := range ev.Departures {
			l := attachedAt[bs]
			if len(l) == 0 {
				continue
			}
			if err := d.Detach(l[len(l)-1]); err != nil {
				tb.Fatal(err)
			}
			events++
			attachedAt[bs] = l[:len(l)-1]
		}
		for bs, n := range ev.Bearers {
			for i := 0; i < n; i++ {
				if _, err := d.RequestPath(p.Stations[bs], p.Clauses[(bs+i)%len(p.Clauses)]); err != nil {
					tb.Fatal(err)
				}
				events++
			}
		}
		for len(releases) > 0 && releases[0].due <= sec {
			releases[0].ctrl.ReleaseOldLocIP(releases[0].loc, nil)
			releases = releases[1:]
			events++
		}
	}
	return events, local, cross
}

// TestChurnNeverLeavesTheMemo is the count gate: on a warmed plant the
// whole §6.1 event mix — cross-shard handoffs included — installs nothing,
// misses the tag memo never and publishes no new tag plan, on either shard.
func TestChurnNeverLeavesTheMemo(t *testing.T) {
	p, reg := warmPlant(t)
	before := countsOf(p.Disp, reg)
	events, local, cross := churn(t, p, 7, 100)
	if events < 2000 || local == 0 || cross == 0 {
		t.Fatalf("stream too thin to gate on: %d events, %d local and %d cross-shard handoffs", events, local, cross)
	}
	t.Logf("%d events, %d local and %d cross-shard handoffs", events, local, cross)
	for i, after := range countsOf(p.Disp, reg) {
		if after != before[i] {
			t.Errorf("shard %d: memo misses %d -> %d, installs %d -> %d, epoch %d -> %d; want all unchanged",
				i, before[i].memoMiss, after.memoMiss, before[i].pathMiss, after.pathMiss, before[i].epoch, after.epoch)
		}
	}
	// Runs every shard's own CheckInvariants, then the cross-shard checks.
	if _, err := p.Disp.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// benchmarkHandoff moves one UE back and forth between a and z. One
// iteration is what the move costs the plant: the handoff, the departure
// station's next request for each of its paths, and (same-shard moves only)
// the release of the reserved address.
func benchmarkHandoff(b *testing.B, p *plant.Plant, a, z packet.BSID) {
	d := p.Disp
	imsi := register(b, d, 1)[0]
	if _, _, err := d.Attach(imsi, a); err != nil {
		b.Fatal(err)
	}
	sa, _ := d.ShardOf(a)
	sz, _ := d.ShardOf(z)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hr, err := d.Handoff(imsi, z)
		if err != nil {
			b.Fatal(err)
		}
		for _, cl := range p.Clauses {
			if _, err := d.RequestPath(a, cl); err != nil {
				b.Fatal(err)
			}
		}
		if sa == sz {
			sz.Ctrl.ReleaseOldLocIP(hr.OldLocIP, nil)
		}
		a, z = z, a
	}
}

// TestHandoffLocalAllocBudget pins what a same-shard handoff and the release
// of its reserved address allocate on the warmed plant: the classifiers
// handed back, the reservation record, and per retargeted reservation one
// shortcut slab and one route array, plus the caller's handle slice — five
// (46 while every shortcut route built its own chain index).
func TestHandoffLocalAllocBudget(t *testing.T) {
	p, _ := warmPlant(t)
	d := p.Disp
	a, z := stationOn(t, p, 0, 0), stationOn(t, p, 0, 1)
	imsi := register(t, d, 1)[0]
	if _, _, err := d.Attach(imsi, a); err != nil {
		t.Fatal(err)
	}
	s, _ := d.ShardOf(a)
	move := func() {
		hr, err := d.Handoff(imsi, z)
		if err != nil {
			t.Fatal(err)
		}
		if len(hr.Shortcuts) == 0 {
			t.Fatalf("handoff %d -> %d cut no shortcuts; the budget needs them", a, z)
		}
		s.Ctrl.ReleaseOldLocIP(hr.OldLocIP, nil)
		a, z = z, a
	}
	const budget = 5
	if allocs := testing.AllocsPerRun(200, move); allocs > budget {
		t.Fatalf("same-shard handoff + release allocates %.1f/op, budget %d", allocs, budget)
	}
}

func BenchmarkHandoffLocal(b *testing.B) {
	p, _ := warmPlant(b)
	benchmarkHandoff(b, p, stationOn(b, p, 0, 0), stationOn(b, p, 0, 1))
}

func BenchmarkHandoffCrossShard(b *testing.B) {
	p, _ := warmPlant(b)
	benchmarkHandoff(b, p, stationOn(b, p, 0, 0), stationOn(b, p, 1, 0))
}

// TestReattachAcrossShardsIsOneOperation: a detached subscriber has no
// record anywhere, so attaching it at a station of the other shard is one
// operation, on that shard only — not an extract on the shard it last used
// plus an adopt on the target.
func TestReattachAcrossShardsIsOneOperation(t *testing.T) {
	p, _ := warmPlant(t)
	d := p.Disp
	imsi := register(t, d, 1)[0]
	first, _, err := d.Attach(imsi, stationOn(t, p, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Detach(imsi); err != nil {
		t.Fatal(err)
	}
	before := d.Served()
	again, _, err := d.Attach(imsi, stationOn(t, p, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if after := d.Served(); after[0] != before[0] || after[1] != before[1]+1 {
		t.Fatalf("served counters moved %v -> %v; want shard 1 up by exactly one, shard 0 untouched", before, after)
	}
	if again.PermIP != first.PermIP {
		t.Fatalf("permanent address changed on re-attach: %s -> %s", first.PermIP, again.PermIP)
	}
}

// TestUETableScalesWithAttachedUEs: subscribers that attach and leave give
// their slots back, so the slabs grow to the peak attached population, not
// to the number of subscribers that ever attached.
func TestUETableScalesWithAttachedUEs(t *testing.T) {
	p, _ := warmPlant(t)
	d := p.Disp
	const n, peak = 4000, 8
	imsis := register(t, d, n)
	for wave := 0; wave < n; wave += peak {
		// The same stations every wave, so each shard's own peak is its share
		// of this one.
		for i, imsi := range imsis[wave : wave+peak] {
			if _, _, err := d.Attach(imsi, p.Stations[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, imsi := range imsis[wave : wave+peak] {
			if err := d.Detach(imsi); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ms := d.MemStats(); ms.SlotsAllocated > peak || ms.Attached != 0 {
		t.Fatalf("%d subscribers came and went, %d attached at once: %d slots allocated (want <= %d), %d attached (want 0)",
			n, peak, ms.SlotsAllocated, peak, ms.Attached)
	}
	if _, err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkReattachCrossShard cycles one subscriber between the shards by
// detach and re-attach: one iteration is the detach plus the attach at a
// station of the shard the subscriber did not last use.
func BenchmarkReattachCrossShard(b *testing.B) {
	p, _ := warmPlant(b)
	d := p.Disp
	imsi := register(b, d, 1)[0]
	a, z := stationOn(b, p, 0, 0), stationOn(b, p, 1, 0)
	if _, _, err := d.Attach(imsi, a); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Detach(imsi); err != nil {
			b.Fatal(err)
		}
		if _, _, err := d.Attach(imsi, z); err != nil {
			b.Fatal(err)
		}
		a, z = z, a
	}
}
