package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// testController builds a controller over the Fig. 3 network with the
// Table 1 policy; middlebox type 0 = firewall, 1 = transcoder, 2 = echo
// cancel (attached alongside the transcoders for simplicity). It runs
// with a live obs registry, so the whole suite (benchmarks included)
// exercises the instrumented code paths.
func testController(t testing.TB) (*Controller, *fig3Net) {
	return testControllerPlan(t, packet.Plan{})
}

// testControllerPlan is testController with an explicit address plan.
// Tests that churn long enough to allocate many policy tags (tags are
// monotonic and never reused, so stale ones can't alias) pass a plan with
// a widened tag field, as the chaos harness does.
func testControllerPlan(t testing.TB, plan packet.Plan) (*Controller, *fig3Net) {
	t.Helper()
	n := newFig3Net(t)
	if _, err := n.AttachMiddlebox(2, n.cs1); err != nil { // echo-cancel
		t.Fatal(err)
	}
	c, err := NewController(n.Topology, ControllerConfig{
		Plan:    plan,
		Obs:     obs.New(),
		Gateway: n.gw,
		Policy:  policy.ExampleCarrierPolicy(),
		MBTypes: map[string]topo.MBType{
			policy.MBFirewall:   0,
			policy.MBTranscoder: 1,
			policy.MBEchoCancel: 2,
		},
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, n
}

func TestAttachAllocatesAddresses(t *testing.T) {
	c, _ := testController(t)
	if err := c.RegisterSubscriber("imsi-1", policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
		t.Fatal(err)
	}
	ue, cls, err := c.Attach("imsi-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ue.PermIP == 0 || ue.LocIP == 0 || ue.UEID == 0 {
		t.Fatalf("addresses not allocated: %+v", ue)
	}
	bs, id, ok := c.Plan().Split(ue.LocIP)
	if !ok || bs != 0 || id != ue.UEID {
		t.Fatalf("LocIP %s does not decode to allocation", ue.LocIP)
	}
	if len(cls) == 0 {
		t.Fatal("no classifiers compiled")
	}
	// No paths installed yet: all allow-classifiers say "ask".
	for _, cl := range cls {
		if cl.Allow && cl.Tag != 0 {
			t.Fatalf("classifier has premature tag: %+v", cl)
		}
	}
	got, ok := c.lookupByLocIP(ue.LocIP)
	if !ok || got.IMSI != "imsi-1" {
		t.Fatal("lookupByLocIP failed")
	}
}

func TestAttachUnknownSubscriber(t *testing.T) {
	c, _ := testController(t)
	if _, _, err := c.Attach("ghost", 0); err == nil {
		t.Fatal("unknown subscriber should fail")
	}
	_ = c.RegisterSubscriber("x", policy.Attributes{Provider: "A"})
	if _, _, err := c.Attach("x", 99); err == nil {
		t.Fatal("unknown base station should fail")
	}
}

func TestAttachDistinctAddresses(t *testing.T) {
	c, _ := testController(t)
	seenPerm := map[packet.Addr]bool{}
	seenLoc := map[packet.Addr]bool{}
	for i := 0; i < 20; i++ {
		imsi := fmt.Sprintf("imsi-%d", i)
		_ = c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"})
		ue, _, err := c.Attach(imsi, packet.BSID(i%4))
		if err != nil {
			t.Fatal(err)
		}
		if seenPerm[ue.PermIP] || seenLoc[ue.LocIP] {
			t.Fatalf("duplicate address for %s: %+v", imsi, ue)
		}
		seenPerm[ue.PermIP] = true
		seenLoc[ue.LocIP] = true
	}
}

func TestReattachSameStationIsStable(t *testing.T) {
	c, _ := testController(t)
	_ = c.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue1, _, _ := c.Attach("a", 1)
	ue2, _, err := c.Attach("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ue1.LocIP != ue2.LocIP || ue1.PermIP != ue2.PermIP {
		t.Fatal("re-attach should keep allocations")
	}
}

func TestRequestPathCachesAndTags(t *testing.T) {
	c, _ := testController(t)
	_ = c.RegisterSubscriber("a", policy.Attributes{Provider: "A", Plan: "silver"})
	ue, _, _ := c.Attach("a", 0)
	clause, ok := c.Policy.Match(ue.Attr, policy.AppVideo)
	if !ok {
		t.Fatal("no clause for video")
	}
	tag1, err := c.RequestPath(0, clause)
	if err != nil {
		t.Fatal(err)
	}
	if tag1 == 0 {
		t.Fatal("no tag returned")
	}
	tag2, err := c.RequestPath(0, clause)
	if err != nil {
		t.Fatal(err)
	}
	if tag1 != tag2 {
		t.Fatal("second request should hit the cache")
	}
	if st := c.Stats(); st.PathAsks != 2 || st.PathMiss != 1 {
		t.Fatalf("asks=%d miss=%d", st.PathAsks, st.PathMiss)
	}
	// Classifiers compiled now resolve the tag.
	_, cls, _ := c.Attach("a", 0)
	found := false
	for _, cl := range cls {
		if cl.App == policy.AppVideo && cl.Tag == tag1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("classifier should carry tag %d: %+v", tag1, cls)
	}
}

func TestHandoffMovesUE(t *testing.T) {
	c, _ := testController(t)
	_ = c.RegisterSubscriber("a", policy.Attributes{Provider: "A", Plan: "silver"})
	ue, _, _ := c.Attach("a", 0)
	oldLoc := ue.LocIP
	clause, _ := c.Policy.Match(ue.Attr, policy.AppVideo)
	if _, err := c.RequestPath(0, clause); err != nil {
		t.Fatal(err)
	}

	res, err := c.Handoff("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.OldBS != 0 || res.OldLocIP != oldLoc {
		t.Fatalf("handoff bookkeeping: %+v", res)
	}
	if res.UE.BS != 2 || res.UE.LocIP == oldLoc || res.UE.LocIP == 0 {
		t.Fatalf("UE not moved: %+v", res.UE)
	}
	if res.UE.PermIP != ue.PermIP {
		t.Fatal("permanent IP must not change")
	}
	if len(res.Shortcuts) == 0 {
		t.Fatal("expected a shortcut for the cached path")
	}
	// The old LocIP is reserved, not reallocated: attaching new UEs at the
	// old station must not receive it.
	for i := 0; i < 5; i++ {
		imsi := fmt.Sprintf("n%d", i)
		_ = c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"})
		nu, _, err := c.Attach(imsi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if nu.LocIP == oldLoc {
			t.Fatal("old LocIP reassigned during transition")
		}
	}
	// Shortcut rules route old-LocIP traffic to the new access switch.
	sc := res.Shortcuts[0]
	if sc.Route[len(sc.Route)-1] != mustStation(t, c.T, 2).Access {
		t.Fatalf("shortcut ends at %d", sc.Route[len(sc.Route)-1])
	}
	// After release, the rules disappear and the address can be reused.
	before := c.Installer.Stats().Rules
	c.ReleaseOldLocIP(oldLoc, res.Shortcuts)
	if c.Installer.Stats().Rules >= before {
		t.Fatal("shortcut rules not removed")
	}
}

// TestShortcutThatRecrossesItsPathIsSkipped: a shortcut route that crosses a
// link the old path takes, in the same direction, before its last middlebox
// would capture the path's own packets there; such a shortcut is left out
// and the old flows triangle-route through the origin station instead.
func TestShortcutThatRecrossesItsPathIsSkipped(t *testing.T) {
	// gw - a, then a - c - m and a - b - d - m; station 0 (x) under m,
	// station 1 (y) under b; the firewall on b, the transcoder on m. The
	// video path is gw a b[fw] d m[tc] x, and the way down from m to
	// station 1 is m c a b y — over a -> b again.
	tp := topo.New()
	gw := tp.AddNode(topo.Gateway, "gw")
	a, cc, b := tp.AddNode(topo.Core, "a"), tp.AddNode(topo.Core, "c"), tp.AddNode(topo.Core, "b")
	d, m := tp.AddNode(topo.Core, "d"), tp.AddNode(topo.Core, "m")
	x, y := tp.AddNode(topo.Access, "x"), tp.AddNode(topo.Access, "y")
	for _, l := range [][2]topo.NodeID{{gw, a}, {a, cc}, {a, b}, {cc, m}, {b, d}, {d, m}, {m, x}, {b, y}} {
		if err := tp.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	for bs, sw := range []topo.NodeID{x, y} {
		if err := tp.AddBaseStation(packet.BSID(bs), sw); err != nil {
			t.Fatal(err)
		}
	}
	for typ, sw := range []topo.NodeID{b, m} {
		if _, err := tp.AttachMiddlebox(topo.MBType(typ), sw); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewController(tp, ControllerConfig{
		Gateway: gw,
		Policy:  policy.ExampleCarrierPolicy(),
		MBTypes: map[string]topo.MBType{policy.MBFirewall: 0, policy.MBTranscoder: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = c.RegisterSubscriber("v", policy.Attributes{Provider: "A", Plan: "silver"})
	ue, _, err := c.Attach("v", 0)
	if err != nil {
		t.Fatal(err)
	}
	clause, _ := c.Policy.Match(ue.Attr, policy.AppVideo)
	if _, err := c.RequestPath(0, clause); err != nil {
		t.Fatal(err)
	}
	rec := c.Paths()[0]
	pos, _ := branchPoint(rec)
	parent := c.Installer.tree(gw)
	route, err := c.descendRoute(nil, m, c.T.AncestorChain(y, parent), parent)
	if err != nil {
		t.Fatal(err)
	}
	if !recrosses(route, rec.Route.Switches[:pos+1]) {
		t.Fatalf("the plant no longer makes the case: path %s, way down %v", rec.Route, route)
	}
	res, err := c.Handoff("v", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shortcuts) != 0 {
		t.Fatalf("installed a shortcut over %v that captures path %s", res.Shortcuts[0].Route, rec.Route)
	}
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// fibShape is what churn must not grow: per switch, the context-map sizes,
// the allocated trie nodes and the rule count.
type fibShape struct{ rules, loc, mob, rely, nodes, numRules int }

func fibShapes(in *Installer) []fibShape {
	out := make([]fibShape, len(in.fibs))
	for i, f := range in.fibs {
		sh := fibShape{rules: len(f.rules), loc: len(f.loc), mob: len(f.mob),
			rely: len(f.locRely), numRules: f.NumRules()}
		for _, st := range f.rules {
			if st.prefix != nil {
				sh.nodes += st.prefix.nodes()
			}
		}
		for _, tr := range f.loc {
			sh.nodes += tr.nodes()
		}
		out[i] = sh
	}
	return out
}

// ROADMAP item 1(d): mobility /32s that come and go used to leave their trie
// branches behind, so every FIB grew with churn.
func TestHandoffReleaseCyclesLeaveFIBsAtBaseline(t *testing.T) {
	c, _ := testController(t)
	imsis := []string{"a", "b", "c"}
	for i, imsi := range imsis {
		_ = c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A", Plan: "silver"})
		ue, _, err := c.Attach(imsi, packet.BSID(i%2))
		if err != nil {
			t.Fatal(err)
		}
		// Cache paths at every station the UEs will visit, so the cycles
		// below install nothing but shortcuts.
		for _, app := range []policy.AppType{policy.AppVideo, policy.AppWeb} {
			clause, _ := c.Policy.Match(ue.Attr, app)
			for bs := packet.BSID(0); bs < 4; bs++ {
				if _, err := c.RequestPath(bs, clause); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	same := func(when string, want []fibShape, wantRules int) {
		t.Helper()
		for i, got := range fibShapes(c.Installer) {
			if got != want[i] {
				t.Errorf("%s: switch %d has FIB shape %+v, want %+v", when, i, got, want[i])
			}
		}
		if r := c.Installer.Stats().Rules; r != wantRules {
			t.Errorf("%s: installer counts %d rules, want %d", when, r, wantRules)
		}
	}
	empty, emptyRules := fibShapes(c.Installer), c.Installer.Stats().Rules

	// "a" moves away and keeps its old LocIP reserved throughout, so the
	// overrides that come and go below share rule contexts with live ones.
	held, err := c.Handoff("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	base, baseRules := fibShapes(c.Installer), c.Installer.Stats().Rules

	at := map[string]packet.BSID{"b": 1, "c": 0}
	late := map[string]packet.Addr{} // old LocIPs whose release waits for the next handoff
	for cycle := 0; cycle < 40; cycle++ {
		for _, imsi := range []string{"b", "c"} {
			next := (at[imsi] + 1 + packet.BSID(cycle%3)) % 4
			if next == at[imsi] {
				next = (next + 1) % 4
			}
			res, err := c.Handoff(imsi, next)
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			if len(res.Shortcuts) == 0 {
				t.Fatalf("cycle %d: handoff installed no shortcut", cycle)
			}
			at[imsi] = next
			// A reservation held across this handoff was just retargeted:
			// its overrides were removed and re-installed along new routes.
			if old, waiting := late[imsi]; waiting {
				c.ReleaseOldLocIP(old, nil)
				delete(late, imsi)
			}
			if cycle%2 == 0 {
				c.ReleaseOldLocIP(res.OldLocIP, res.Shortcuts)
			} else {
				late[imsi] = res.OldLocIP
			}
		}
	}
	for _, old := range late {
		c.ReleaseOldLocIP(old, nil)
	}
	same("after the cycles", base, baseRules)
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.ReleaseOldLocIP(held.OldLocIP, held.Shortcuts)
	same("after the last release", empty, emptyRules)
}

func mustStation(t *testing.T, tp *topo.Topology, bs packet.BSID) topo.BaseStation {
	t.Helper()
	st, ok := tp.Station(bs)
	if !ok {
		t.Fatalf("station %d missing", bs)
	}
	return st
}

func TestHandoffErrors(t *testing.T) {
	c, _ := testController(t)
	if _, err := c.Handoff("ghost", 1); err == nil {
		t.Error("unattached UE should fail")
	}
	_ = c.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	_, _, _ = c.Attach("a", 0)
	if _, err := c.Handoff("a", 0); err == nil {
		t.Error("handoff to the same station should fail")
	}
	if _, err := c.Handoff("a", 77); err == nil {
		t.Error("unknown station should fail")
	}
}

func TestDetachFreesLocIP(t *testing.T) {
	c, _ := testController(t)
	_ = c.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _, _ := c.Attach("a", 0)
	if err := c.Detach("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.lookupByLocIP(ue.LocIP); ok {
		t.Fatal("detached LocIP should not resolve")
	}
	// Every UE-keyed operation on a UE without a record says so in one
	// typed error, whether the UE detached or never existed.
	_, resolveErr := c.ResolveLocIP(ue.PermIP)
	_, handoffErr := c.Handoff("a", 1)
	_, extractErr := c.ExtractUE("a")
	for i, err := range []error{c.Detach("a"), c.Detach("ghost"), resolveErr, handoffErr, extractErr} {
		if !errors.Is(err, ErrNotAttached) {
			t.Errorf("operation %d (Detach a, Detach ghost, ResolveLocIP, Handoff, ExtractUE) = %v, want ErrNotAttached", i, err)
		}
	}
	// The freed UEID is reused.
	_ = c.RegisterSubscriber("b", policy.Attributes{Provider: "A"})
	ue2, _, _ := c.Attach("b", 0)
	if ue2.UEID != ue.UEID {
		t.Fatalf("freed UEID not reused: %d vs %d", ue2.UEID, ue.UEID)
	}
}

func TestRecoverLocationsFromAgents(t *testing.T) {
	c, _ := testController(t)
	var want []UE
	for i := 0; i < 6; i++ {
		imsi := fmt.Sprintf("imsi-%d", i)
		_ = c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"})
		ue, _, err := c.Attach(imsi, packet.BSID(i%3))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ue)
	}
	// Simulate controller failover: replica takes over with no location
	// state, then rebuilds from agent reports (§5.2).
	if _, err := c.Store.Failover(); err != nil {
		t.Fatal(err)
	}
	reports := map[packet.BSID]*AgentLocationReport{}
	for _, ue := range want {
		r := reports[ue.BS]
		if r == nil {
			r = &AgentLocationReport{BS: ue.BS}
			reports[ue.BS] = r
		}
		r.UEs = append(r.UEs, ue)
	}
	var reps []AgentLocationReport
	for _, r := range reports {
		reps = append(reps, *r)
	}
	if err := c.RecoverLocations(reps); err != nil {
		t.Fatal(err)
	}
	for _, ue := range want {
		got, ok := c.LookupUE(ue.IMSI)
		if !ok || got.BS != ue.BS || got.LocIP != ue.LocIP || got.PermIP != ue.PermIP {
			t.Fatalf("recovered %+v, want %+v", got, ue)
		}
		if byLoc, ok := c.lookupByLocIP(ue.LocIP); !ok || byLoc.IMSI != ue.IMSI {
			t.Fatalf("byLoc index not rebuilt for %s", ue.IMSI)
		}
	}
	// Allocation continues without collisions after recovery.
	_ = c.RegisterSubscriber("new", policy.Attributes{Provider: "A"})
	nu, _, err := c.Attach("new", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ue := range want {
		if ue.LocIP == nu.LocIP {
			t.Fatal("post-recovery allocation collided")
		}
	}
}

func TestControllerConfigValidation(t *testing.T) {
	n := newFig3Net(t)
	if _, err := NewController(n.Topology, ControllerConfig{Gateway: n.gw}); err == nil {
		t.Error("missing policy should fail")
	}
	if _, err := NewController(n.Topology, ControllerConfig{
		Gateway:  n.gw,
		Policy:   policy.ExampleCarrierPolicy(),
		PermPool: packet.NewPrefix(packet.AddrFrom4(10, 1, 0, 0), 16),
	}); err == nil {
		t.Error("perm pool overlapping carrier should fail")
	}
}

// TestStorePersistsControlState: the store holds the slow-changing state of
// §5.2 — registrations and policy paths — and no UE location, which only
// the agents know.
func TestStorePersistsControlState(t *testing.T) {
	c, _ := testController(t)
	_ = c.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _, _ := c.Attach("a", 0)
	clause, _ := c.Policy.Match(ue.Attr, policy.AppWeb)
	if _, err := c.RequestPath(0, clause); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Store.Get("sub/a"); !ok {
		t.Error("subscriber missing")
	}
	if keys := c.Store.Keys("path/"); len(keys) != 1 {
		t.Errorf("path keys = %v", keys)
	}
	if keys := c.Store.Keys(""); len(keys) != 2 {
		t.Errorf("keys = %v, want the subscriber and the path only", keys)
	}
}

// TestPermPoolExhaustionRefusesCleanly: a /30 pool binds three addresses.
// The attach that finds it empty fails with ErrPermPoolExhausted before it
// takes anything — no UE ID, no record — and subscribers that already hold
// an address keep attaching.
func TestPermPoolExhaustionRefusesCleanly(t *testing.T) {
	n := newFig3Net(t)
	c, err := NewController(n.Topology, ControllerConfig{
		Gateway:  n.gw,
		Policy:   policy.ExampleCarrierPolicy(),
		PermPool: packet.NewPrefix(packet.AddrFrom4(100, 64, 0, 0), 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	var ues []UE
	for _, imsi := range []string{"a", "b", "c", "late"} {
		if err := c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
		if imsi == "late" {
			break
		}
		ue, _, err := c.Attach(imsi, 0)
		if err != nil {
			t.Fatal(err)
		}
		ues = append(ues, ue)
	}
	// "c" leaves, so the station's allocator has UE ID 3 on its free list:
	// an attach that took an ID before failing would take that one.
	if err := c.Detach("c"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attach("late", 0); !errors.Is(err, ErrPermPoolExhausted) {
		t.Fatalf("attach with the pool empty: err = %v, want ErrPermPoolExhausted", err)
	}
	if _, ok := c.LookupUE("late"); ok {
		t.Fatal("the refused attach left a UE record")
	}
	if ms := c.MemStats(); ms.Attached != 2 || ms.FreeUEIDs != 1 {
		t.Fatalf("after the refused attach: %d attached, %d free UE IDs; want 2, 1", ms.Attached, ms.FreeUEIDs)
	}
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	back, _, err := c.Attach("c", 0)
	if err != nil {
		t.Fatalf("re-attach of a subscriber that holds an address: %v", err)
	}
	if back.PermIP != ues[2].PermIP || back.UEID != ues[2].UEID {
		t.Fatalf("re-attached as %+v, first attached as %+v", back, ues[2])
	}
}
