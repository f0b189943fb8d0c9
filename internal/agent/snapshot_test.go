package agent

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/switchsim"
)

// view builds a pushable controller export for bs1 with the given UEs (all
// carrying webClassifiers(0), i.e. clause 5 resolved through the tag table)
// and tag grants.
func view(ues []core.UE, grants ...core.TagGrant) core.AgentView {
	v := core.AgentView{BS: 1, Tags: grants}
	for _, ue := range ues {
		v.UEs = append(v.UEs, core.AgentViewUE{UE: ue, Classifiers: webClassifiers(0)})
	}
	return v
}

// admitWithFlow builds an agent with one UE and one established tagged
// flow (clause 5, tag 1 — resolved via the controller on first miss).
func admitWithFlow(t *testing.T) (*Agent, core.UE) {
	t.Helper()
	ctrl := newFakeController()
	ag := newAgent(t, ctrl)
	ue := testUE(t, 1, 1)
	if err := ag.AdmitUE(ue, webClassifiers(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ag.HandlePacketIn(upPkt(ue, 40000)); err != nil {
		t.Fatal(err)
	}
	if got, _ := ag.lkg().Tag(5); got != 1 {
		t.Fatalf("admitted tag = %d, want 1", got)
	}
	return ag, ue
}

// TestReconcileEdges drives Publish through the reconciliation edge cases:
// a stale admit replayed under the snapshot's new tag, a tombstoned UE in a
// newer snapshot, a withdrawn path, and a confirmed one. In every case the
// established flow is kept, replayed, or torn down — never silently dropped.
func TestReconcileEdges(t *testing.T) {
	cases := []struct {
		name  string
		push  func(ue core.UE) core.AgentView
		want  ReconcileReport
		flows int // surviving tracked flows for the UE
		tag   packet.Tag
	}{
		{
			name: "confirmed tag kept",
			push: func(ue core.UE) core.AgentView {
				return view([]core.UE{ue}, core.TagGrant{Clause: 5, Tag: 1})
			},
			want: ReconcileReport{Kept: 1}, flows: 1, tag: 1,
		},
		{
			name: "stale admit replayed under new tag",
			push: func(ue core.UE) core.AgentView {
				return view([]core.UE{ue}, core.TagGrant{Clause: 5, Tag: 9})
			},
			want: ReconcileReport{Replayed: 1}, flows: 1, tag: 9,
		},
		{
			name: "withdrawn path torn down",
			push: func(ue core.UE) core.AgentView {
				return view([]core.UE{ue}) // no grant for clause 5
			},
			want: ReconcileReport{TornDown: 1}, flows: 0,
		},
		{
			name: "tombstoned UE dropped whole",
			push: func(core.UE) core.AgentView {
				return view(nil, core.TagGrant{Clause: 5, Tag: 1})
			},
			want: ReconcileReport{TornDown: 1, UEsDropped: 1}, flows: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ag, ue := admitWithFlow(t)
			rep, err := ag.Publish(NewSnapshot(ag.Version()+1, tc.push(ue)))
			if err != nil {
				t.Fatal(err)
			}
			if rep != tc.want {
				t.Fatalf("reconcile report = %+v, want %+v", rep, tc.want)
			}
			if got := len(ag.ActiveFlows(ue.PermIP)); got != tc.flows {
				t.Fatalf("tracked flows = %d, want %d", got, tc.flows)
			}
			if tc.flows > 0 {
				// The replayed/kept microflow must carry the snapshot's tag.
				q := upPkt(ue, 40000)
				ag.Access.Process(q, switchsim.PortUE)
				tag, _ := plan.SplitPort(q.SrcPort)
				if tag != tc.tag {
					t.Fatalf("wire tag = %d, want %d", tag, tc.tag)
				}
			}
			st := ag.Stats()
			if int(st.Replayed) != tc.want.Replayed || int(st.TornDown) != tc.want.TornDown {
				t.Fatalf("stats replayed/torndown = %d/%d, want %d/%d",
					st.Replayed, st.TornDown, tc.want.Replayed, tc.want.TornDown)
			}
		})
	}
}

// TestOutOfOrderPublishRejected asserts CAS-on-version: an old snapshot
// must never overwrite a newer one, regardless of delivery order.
func TestOutOfOrderPublishRejected(t *testing.T) {
	ag, ue := admitWithFlow(t)
	base := ag.Version()
	if _, err := ag.Publish(NewSnapshot(base+5, view([]core.UE{ue}, core.TagGrant{Clause: 5, Tag: 2}))); err != nil {
		t.Fatal(err)
	}
	for _, stale := range []uint64{base, base + 5} {
		_, err := ag.Publish(NewSnapshot(stale, view([]core.UE{ue}, core.TagGrant{Clause: 5, Tag: 3})))
		if !errors.Is(err, ErrStaleSnapshot) {
			t.Fatalf("publish v%d: err = %v, want ErrStaleSnapshot", stale, err)
		}
	}
	if got, _ := ag.lkg().Tag(5); got != 2 {
		t.Fatalf("stale publish changed state: tag = %d, want 2", got)
	}
	if ag.Version() != base+5 {
		t.Fatalf("version = %d, want %d", ag.Version(), base+5)
	}
	if st := ag.Stats(); st.StaleDrops != 2 {
		t.Fatalf("StaleDrops = %d, want 2", st.StaleDrops)
	}
}

// TestPublishValidation asserts validate-then-swap: a snapshot that
// misattributes UEs or grants unusable tags is refused whole and leaves the
// LKG state untouched.
func TestPublishValidation(t *testing.T) {
	ag, ue := admitWithFlow(t)
	ver := ag.Version()
	foreign := testUE(t, 2, 7) // attached to bs2
	bad := []core.AgentView{
		view([]core.UE{foreign}),
		view([]core.UE{ue}, core.TagGrant{Clause: 5, Tag: 0}),
		view([]core.UE{ue}, core.TagGrant{Clause: 5, Tag: plan.MaxTag() + 1}),
	}
	for i, v := range bad {
		if _, err := ag.Publish(NewSnapshot(ver+1, v)); err == nil {
			t.Fatalf("bad view %d accepted", i)
		}
	}
	if ag.Version() != ver {
		t.Fatal("rejected snapshot changed the version")
	}
	if st := ag.Stats(); st.Rejected != uint64(len(bad)) {
		t.Fatalf("Rejected = %d, want %d", st.Rejected, len(bad))
	}
}

// snapOp is one step of a randomized publish/packet-in interleaving.
// testing/quick fills it via reflection.
type snapOp struct {
	Publish bool
	Delta   uint8 // version step; %4 == 0 makes the push stale on purpose
	Tag     uint8 // granted tag for clause 5; %8 == 0 omits the grant
	DropUE  bool  // tombstone the UE in this push
}

// TestVerdictMatchesHighestPublished is the atomicity property: for any
// sequential interleaving of snapshot publishes and classifications, the
// verdict equals classifying against the highest fully-published snapshot
// version — stale pushes change nothing, and no verdict ever mixes fields
// from two generations.
func TestVerdictMatchesHighestPublished(t *testing.T) {
	ue := testUE(t, 1, 1)
	check := func(ops []snapOp) bool {
		ag := newAgent(t, nil) // pushed-snapshot mode: no controller
		// Model state: what the highest accepted publication carries.
		var hasUE bool
		var tag packet.Tag
		for _, op := range ops {
			if op.Publish {
				delta := uint64(op.Delta % 4) // 0 => stale/duplicate version
				grantTag := packet.Tag(op.Tag % 8)
				var ues []core.UE
				if !op.DropUE {
					ues = append(ues, ue)
				}
				var grants []core.TagGrant
				if grantTag != 0 {
					grants = append(grants, core.TagGrant{Clause: 5, Tag: grantTag})
				}
				_, err := ag.Publish(NewSnapshot(ag.Version()+delta, view(ues, grants...)))
				if delta == 0 {
					if !errors.Is(err, ErrStaleSnapshot) {
						t.Logf("stale push accepted: %v", err)
						return false
					}
					continue // model unchanged
				}
				if err != nil {
					t.Logf("publish failed: %v", err)
					return false
				}
				hasUE = !op.DropUE
				tag = grantTag
				continue
			}
			got := ag.Classify(upPkt(ue, 41000))
			want := Verdict{}
			if hasUE {
				want = Verdict{Known: true, Allowed: true, Tag: tag, Pending: tag == 0}
			}
			if got != want {
				t.Logf("verdict = %+v, want %+v (hasUE=%v tag=%d v=%d)",
					got, want, hasUE, tag, ag.Version())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPublishClassify races publishers against classifiers under
// -race. Every published snapshot v correlates its tag grant with its
// version (tag = v%62+1), so a reader observing a verdict whose tag does
// not match any single version proves a torn read; per-reader versions must
// also be monotonic, since swaps are CAS-ordered by version.
func TestConcurrentPublishClassify(t *testing.T) {
	ag := newAgent(t, nil)
	ue := testUE(t, 1, 1)
	if err := ag.AdmitUE(ue, webClassifiers(0)); err != nil {
		t.Fatal(err)
	}
	tagOf := func(v uint64) packet.Tag { return packet.Tag(v%62) + 1 }
	const versions = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := ag.Version() + 1; v <= versions; v++ {
			if _, err := ag.Publish(NewSnapshot(v, view([]core.UE{ue},
				core.TagGrant{Clause: 5, Tag: tagOf(v)}))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	errs := make(chan string, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for i := 0; i < 2000; i++ {
				s := ag.lkg() // one atomic load: the whole read side
				if s.Version() < last {
					errs <- "version went backwards"
					return
				}
				last = s.Version()
				if tag, ok := s.Tag(5); ok && tag != tagOf(s.Version()) {
					errs <- "tag does not match snapshot version: torn read"
					return
				}
				if v := ag.Classify(upPkt(ue, 42000)); !v.Known || !v.Allowed {
					errs <- "admitted UE lost its verdict mid-publish"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if ag.Version() != versions {
		t.Fatalf("final version = %d, want %d", ag.Version(), versions)
	}
}

// TestInstrumentedCountersMatchStats keeps the obs mirrors coherent with
// Stats across publishes and rejections.
func TestInstrumentedCountersMatchStats(t *testing.T) {
	ag, ue := admitWithFlow(t)
	reg := obs.New()
	ag.Instrument(reg)
	if _, err := ag.Publish(NewSnapshot(ag.Version()+1, view([]core.UE{ue},
		core.TagGrant{Clause: 5, Tag: 4}))); err != nil {
		t.Fatal(err)
	}
	if _, err := ag.Publish(NewSnapshot(0, view([]core.UE{ue}))); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("err = %v", err)
	}
	st := ag.Stats()
	checks := map[string]uint64{
		"agent.snapshot.publish":   st.Publishes,
		"agent.snapshot.stale":     st.StaleDrops,
		"agent.reconcile.replayed": st.Replayed,
		"agent.reconcile.torndown": st.TornDown,
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("agent.snapshot.version").Value(); uint64(got) != ag.Version() {
		t.Errorf("version gauge = %d, want %d", got, ag.Version())
	}
}

// arrive hands ag a mobile-to-mobile packet for loc and reports the
// permanent address its delivery microflow restores: the UE the snapshot
// gives loc to. ok is false when no UE has loc.
func arrive(t *testing.T, ag *Agent, loc packet.Addr) (perm packet.Addr, ok bool) {
	t.Helper()
	p := &packet.Packet{Src: packet.AddrFrom4(10, 0, 99, 1), Dst: loc,
		SrcPort: 5000, DstPort: 80, Proto: packet.ProtoTCP}
	if delivered, err := ag.HandleArrival(p); err != nil || !delivered {
		return 0, false
	}
	r, found := ag.Access.Microflow(p.Flow())
	if !found || r.Action.Set&switchsim.SetDst == 0 {
		t.Fatalf("arrival at %s delivered without a restoring microflow", loc)
	}
	return r.Action.Dst, true
}

// TestPublishedSnapshotAliasesReservedLocIPs: a view's reserved old LocIPs
// (§5.1) resolve to their UE in the published snapshot, and a later view
// that no longer lists one drops it.
func TestPublishedSnapshotAliasesReservedLocIPs(t *testing.T) {
	ag := newAgent(t, newFakeController())
	ue, old := testUE(t, 1, 7), testUE(t, 0, 7).LocIP
	v := view([]core.UE{ue})
	v.UEs[0].Reserved = []packet.Addr{old}
	if _, err := ag.Publish(NewSnapshot(1, v)); err != nil {
		t.Fatal(err)
	}
	if perm, ok := arrive(t, ag, old); !ok || perm != ue.PermIP {
		t.Fatalf("reserved %s resolves to %s (%v), want %s", old, perm, ok, ue.PermIP)
	}
	if _, err := ag.Publish(NewSnapshot(2, view([]core.UE{ue}))); err != nil {
		t.Fatal(err)
	}
	if perm, ok := arrive(t, ag, old); ok {
		t.Fatalf("released %s still resolves to %s", old, perm)
	}
}

// TestLocIPsFollowLaterUpdates: a UE handed in keeps its reserved old LocIP
// (§5.1) through later classifier merges and record replacements, and every
// LocIP it has been given resolves to it, whose record is the latest one.
func TestLocIPsFollowLaterUpdates(t *testing.T) {
	ag := newAgent(t, newFakeController())
	old := testUE(t, 0, 7).LocIP // its address at the station it left
	ue := testUE(t, 1, 7)
	if err := ag.AdmitUE(ue, webClassifiers(0)); err != nil {
		t.Fatal(err)
	}
	ag.derive(func(d *snapshotDraft) { d.alias(old, ue.PermIP) }) // as MigrateFlows does
	if err := ag.UpdateClassifiers(ue.PermIP, webClassifiers(9)); err != nil {
		t.Fatal(err)
	}
	fresh := ue
	fresh.Attr.Plan = "gold"
	if err := ag.AdmitUE(fresh, webClassifiers(4)); err != nil {
		t.Fatal(err)
	}
	moved := fresh
	moved.UEID, moved.LocIP = 8, testUE(t, 1, 8).LocIP
	locs := []packet.Addr{old, ue.LocIP}
	for step, rec := range []core.UE{fresh, moved} {
		if step == 1 {
			if err := ag.AdmitUE(moved, webClassifiers(4)); err != nil {
				t.Fatal(err)
			}
			locs = append(locs, moved.LocIP)
		}
		for _, loc := range locs {
			perm, ok := arrive(t, ag, loc)
			if !ok || perm != ue.PermIP {
				t.Fatalf("step %d: %s resolves to %s (%v), want %s", step, loc, perm, ok, ue.PermIP)
			}
			if got, _ := ag.lkg().UE(perm); got != rec {
				t.Fatalf("step %d: %s resolves to record %+v, want %+v", step, loc, got, rec)
			}
		}
		if v := ag.Classify(upPkt(ue, 40000)); v.Tag != 4 {
			t.Fatalf("step %d: verdict %+v, want the fresh classifier's tag 4", step, v)
		}
	}
}

// TestRemoveKeepsALocIPGivenToAnotherUE: removing a UE drops the LocIPs
// that still name it and leaves one the snapshot has since given to
// another UE.
func TestRemoveKeepsALocIPGivenToAnotherUE(t *testing.T) {
	ag := newAgent(t, newFakeController())
	a := testUE(t, 1, 1)
	if err := ag.AdmitUE(a, nil); err != nil {
		t.Fatal(err)
	}
	rsv := testUE(t, 0, 3).LocIP
	ag.derive(func(d *snapshotDraft) { d.alias(rsv, a.PermIP) })
	renumbered := a
	renumbered.UEID, renumbered.LocIP = 2, testUE(t, 1, 2).LocIP
	if err := ag.AdmitUE(renumbered, nil); err != nil {
		t.Fatal(err)
	}
	b := testUE(t, 1, 5)
	b.UEID, b.LocIP = a.UEID, a.LocIP // a's first UE ID, handed out again
	if err := ag.AdmitUE(b, nil); err != nil {
		t.Fatal(err)
	}
	ag.derive(func(d *snapshotDraft) { d.removeUE(a.PermIP) })
	if perm, ok := arrive(t, ag, a.LocIP); !ok || perm != b.PermIP {
		t.Fatalf("%s resolves to %s (%v) after the removal, want %s", a.LocIP, perm, ok, b.PermIP)
	}
	for _, loc := range []packet.Addr{rsv, renumbered.LocIP} {
		if perm, ok := arrive(t, ag, loc); ok {
			t.Fatalf("%s still resolves, to %s, after its UE was removed", loc, perm)
		}
	}
	if n := ag.NumUEs(); n != 1 {
		t.Fatalf("%d UEs after the removal, want 1", n)
	}
}

// TestPublishedSnapshotResolvesCurrentLocIPs: a pushed snapshot gives each
// UE's current LocIP to that UE.
func TestPublishedSnapshotResolvesCurrentLocIPs(t *testing.T) {
	ag := newAgent(t, nil)
	ues := []core.UE{testUE(t, 1, 1), testUE(t, 1, 2), testUE(t, 1, 3)}
	if _, err := ag.Publish(NewSnapshot(1, view(ues))); err != nil {
		t.Fatal(err)
	}
	for _, ue := range ues {
		if perm, ok := arrive(t, ag, ue.LocIP); !ok || perm != ue.PermIP {
			t.Fatalf("%s resolves to %s (%v), want %s", ue.LocIP, perm, ok, ue.PermIP)
		}
	}
	if _, ok := arrive(t, ag, testUE(t, 1, 4).LocIP); ok {
		t.Fatal("an unassigned LocIP resolves")
	}
}

// BenchmarkAdmitUE measures one AdmitUE (a successor snapshot derived and
// swapped in) at a station whose snapshot holds n resident UEs. The agent
// does not check how a LocIP is numbered, so the residents take consecutive
// carrier addresses; 4 096 of them would not fit one station's UE IDs.
func BenchmarkAdmitUE(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("resident=%d", n), func(b *testing.B) {
			ag := New(1, switchsim.NewSwitch("as-bench"), plan, nil)
			ue := func(i int) core.UE {
				return core.UE{IMSI: fmt.Sprintf("imsi-%d", i), BS: 1, UEID: packet.UEID(i + 1),
					PermIP: packet.AddrFrom4(100, 64, 0, 0) + packet.Addr(i+1),
					LocIP:  packet.AddrFrom4(10, 1, 0, 0) + packet.Addr(i+1)}
			}
			for i := range n {
				if err := ag.AdmitUE(ue(i), webClassifiers(0)); err != nil {
					b.Fatal(err)
				}
			}
			cycling := ue(n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := ag.AdmitUE(cycling, webClassifiers(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestClauseTagIsKeptOncePerStation measures the live heap, after two GCs,
// that a snapshot of 4 000 UEs with a six-app classifier set retains per
// UE: published from a view, and built by AdmitUE one UE at a time. A
// UE's record holds its classifiers inline, with no map and no tag: the
// tag is the station's grant. With a classifier map per UE, whose entries
// pinned their tags, the two read 560 and 440 B.
func TestClauseTagIsKeptOncePerStation(t *testing.T) {
	for i := range reflect.TypeFor[snapUE]().NumField() {
		if f := reflect.TypeFor[snapUE]().Field(i); f.Type.Kind() == reflect.Map {
			t.Fatalf("snapUE.%s is a map", f.Name)
		}
	}
	const n = 4000
	ues := make([]core.UE, n)
	for i := range ues {
		loc, err := plan.LocIP(1, packet.UEID(i+1))
		if err != nil {
			t.Fatal(err)
		}
		ues[i] = core.UE{IMSI: fmt.Sprintf("imsi-%d", i), PermIP: packet.AddrFrom4(100, 64, 0, 0) + packet.Addr(i+1),
			BS: 1, UEID: packet.UEID(i + 1), LocIP: loc}
	}
	var six []core.Classifier
	for i, app := range policy.AllApps {
		six = append(six, core.Classifier{App: app, Clause: i, Tag: packet.Tag(i + 1), Allow: true})
	}
	v := core.AgentView{BS: 1}
	for i, c := range six {
		v.Tags = append(v.Tags, core.TagGrant{Clause: i, Tag: c.Tag})
	}
	for _, ue := range ues {
		v.UEs = append(v.UEs, core.AgentViewUE{UE: ue, Classifiers: six})
	}
	retained := func(build func() any) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		x := build()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(x)
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	}
	published := retained(func() any { return NewSnapshot(1, v) })
	admitted := retained(func() any {
		ag := newAgent(t, nil)
		for _, ue := range ues {
			if err := ag.AdmitUE(ue, six); err != nil {
				t.Fatal(err)
			}
		}
		return ag
	})
	runtime.KeepAlive(v)
	t.Logf("retained per UE with six apps: %.1f B published, %.1f B admitted", published, admitted)
	if published > 300 || admitted > 170 {
		t.Fatalf("a snapshot retains %.1f B per UE published and %.1f B admitted, want at most 300 and 170", published, admitted)
	}
}
