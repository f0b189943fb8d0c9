package core

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topo"
)

// fig3Net builds the Figure 3(c) scenario: four base stations behind two
// pairs of access-facing switches, one firewall near the gateway, two
// transcoders at different branches.
//
//	gw - cs1 - cs2 - as1..as2 side, cs2 - cs3 - as3..as4 side
//
// (simplified to a tree: cs2 serves as1,as2 and reaches cs3 which serves
// as3,as4; firewall on cs1, transcoder1 on cs2, transcoder2 on cs3).
type fig3Net struct {
	*topo.Topology
	gw, cs1, cs2, cs3  topo.NodeID
	as                 [4]topo.NodeID
	firewall, tc1, tc2 topo.MBInstanceID
}

func newFig3Net(t testing.TB) *fig3Net {
	t.Helper()
	n := &fig3Net{Topology: topo.New()}
	n.gw = n.AddNode(topo.Gateway, "gw")
	n.cs1 = n.AddNode(topo.Core, "cs1")
	n.cs2 = n.AddNode(topo.Core, "cs2")
	n.cs3 = n.AddNode(topo.Core, "cs3")
	for i := 0; i < 4; i++ {
		n.as[i] = n.AddNode(topo.Access, "as")
		if err := n.AddBaseStation(packet.BSID(i), n.as[i]); err != nil {
			t.Fatal(err)
		}
	}
	links := [][2]topo.NodeID{
		{n.gw, n.cs1}, {n.cs1, n.cs2}, {n.cs2, n.cs3},
		{n.cs2, n.as[0]}, {n.cs2, n.as[1]},
		{n.cs3, n.as[2]}, {n.cs3, n.as[3]},
	}
	for _, l := range links {
		if err := n.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if n.firewall, err = n.AttachMiddlebox(0, n.cs1); err != nil {
		t.Fatal(err)
	}
	if n.tc1, err = n.AttachMiddlebox(1, n.cs2); err != nil {
		t.Fatal(err)
	}
	if n.tc2, err = n.AttachMiddlebox(1, n.cs3); err != nil {
		t.Fatal(err)
	}
	return n
}

func mustInstaller(t testing.TB, tp *topo.Topology, opts InstallerOptions) *Installer {
	t.Helper()
	in, err := NewInstaller(tp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInstallSinglePathAndVerify(t *testing.T) {
	n := newFig3Net(t)
	in := mustInstaller(t, n.Topology, InstallerOptions{})
	pl := routing.NewPlanner(n.Topology)
	route, err := pl.Plan(0, []topo.MBType{0, 1}, n.gw)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := in.InstallPath(route)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tags) != 1 {
		t.Fatalf("tags = %v, want one segment", rec.Tags)
	}
	if rec.GatewayTag() != rec.AccessTag() {
		t.Fatal("loop-free path should have one tag")
	}
	if err := in.VerifyPath(rec); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.Paths != 1 || st.Rules <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFig3cTagSharing(t *testing.T) {
	// The paper's Fig. 3(c): all four stations' "silver video" paths share
	// one tag. CS1 needs only a single tag rule; CS2 dispatches as1/as2
	// traffic to transcoder1 and forwards as3/as4 traffic (aggregated) to
	// CS3.
	n := newFig3Net(t)
	in := mustInstaller(t, n.Topology, InstallerOptions{})
	pl := routing.NewPlanner(n.Topology)
	var recs []*InstalledPath
	for bs := packet.BSID(0); bs < 4; bs++ {
		route, err := pl.Plan(bs, []topo.MBType{0, 1}, n.gw)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := in.InstallPath(route)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	// Expect the nearest-instance selector to split: bs0/bs1 via tc1,
	// bs2/bs3 via tc2.
	if recs[0].Chain[1] != n.tc1 || recs[1].Chain[1] != n.tc1 {
		t.Fatalf("bs0/bs1 chains: %v %v", recs[0].Chain, recs[1].Chain)
	}
	if recs[2].Chain[1] != n.tc2 || recs[3].Chain[1] != n.tc2 {
		t.Fatalf("bs2/bs3 chains: %v %v", recs[2].Chain, recs[3].Chain)
	}
	// All paths re-verify after all installs: no clobbering.
	for _, rec := range recs {
		if err := in.VerifyPath(rec); err != nil {
			t.Fatal(err)
		}
	}
	// CS1 carries firewall steering for the shared tag; it must not need
	// per-station rules: with two chains there are at most 2 tags, and CS1's
	// tag-specific rule count stays well below 4 stations x 2 rules. (The
	// bootstrapped Type 3 location table is shared infrastructure and
	// independent of the policy count, so it is excluded here.)
	t1, t2, _, _ := in.FIB(n.cs1).RuleBreakdown()
	if t1+t2 > 6 {
		t.Fatalf("cs1 tag rules = %d+%d; aggregation failed", t1, t2)
	}
	// Tag reuse: bs0 and bs1 share a tag (same chain); likewise bs2/bs3.
	if recs[0].GatewayTag() != recs[1].GatewayTag() {
		t.Fatalf("bs0/bs1 should share a tag: %v %v", recs[0].Tags, recs[1].Tags)
	}
	if recs[2].GatewayTag() != recs[3].GatewayTag() {
		t.Fatalf("bs2/bs3 should share a tag: %v %v", recs[2].Tags, recs[3].Tags)
	}
}

func TestSameOriginDistinctTags(t *testing.T) {
	// Two policy paths from one base station can never share a tag (paper
	// footnote 2) even when their middlebox chains coincide.
	n := newFig3Net(t)
	in := mustInstaller(t, n.Topology, InstallerOptions{})
	pl := routing.NewPlanner(n.Topology)
	r1, _ := pl.Plan(0, []topo.MBType{0}, n.gw)
	r2, _ := pl.Plan(0, []topo.MBType{0}, n.gw)
	rec1, err := in.InstallPath(r1)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := in.InstallPath(r2)
	if err != nil {
		t.Fatal(err)
	}
	if rec1.GatewayTag() == rec2.GatewayTag() {
		t.Fatal("same-origin paths must get distinct tags")
	}
	if err := in.VerifyPath(rec1); err != nil {
		t.Fatal(err)
	}
	if err := in.VerifyPath(rec2); err != nil {
		t.Fatal(err)
	}
}

func TestAggregationSharesSiblingRules(t *testing.T) {
	// Installing the same chain for two sibling base stations must cost
	// fewer rules than twice the single-path cost (the prefix entries for
	// contiguous stations merge, and the tag rules are shared).
	n := newFig3Net(t)
	pl := routing.NewPlanner(n.Topology)

	single := mustInstaller(t, n.Topology, InstallerOptions{})
	r0, _ := pl.Plan(0, []topo.MBType{0, 1}, n.gw)
	if _, err := single.InstallPath(r0); err != nil {
		t.Fatal(err)
	}
	oneCost := single.Stats().Rules

	both := mustInstaller(t, n.Topology, InstallerOptions{})
	r0b, _ := pl.Plan(0, []topo.MBType{0, 1}, n.gw)
	r1b, _ := pl.Plan(1, []topo.MBType{0, 1}, n.gw)
	if _, err := both.InstallPath(r0b); err != nil {
		t.Fatal(err)
	}
	if _, err := both.InstallPath(r1b); err != nil {
		t.Fatal(err)
	}
	twoCost := both.Stats().Rules
	if twoCost >= 2*oneCost {
		t.Fatalf("no sharing: 1 path = %d rules, 2 paths = %d", oneCost, twoCost)
	}
}

func TestDifferentLinkLoopUsesInPortRules(t *testing.T) {
	// gw - A - B with the middlebox on B and the station on A: the path
	// gw,A,B(mb),A,as revisits A but through *different* links, so in-port
	// rules disambiguate it under a single tag (§3.2: "A loop that enters
	// the same switch twice but through different links can easily be
	// differentiated based on the input ports").
	tp := topo.New()
	gw := tp.AddNode(topo.Gateway, "gw")
	a := tp.AddNode(topo.Core, "A")
	b := tp.AddNode(topo.Core, "B")
	as := tp.AddNode(topo.Access, "as")
	for _, l := range [][2]topo.NodeID{{gw, a}, {a, b}, {a, as}} {
		if err := tp.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.AddBaseStation(0, as); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.AttachMiddlebox(0, b); err != nil {
		t.Fatal(err)
	}
	in := mustInstaller(t, tp, InstallerOptions{})
	pl := routing.NewPlanner(tp)
	route, err := pl.Plan(0, []topo.MBType{0}, gw)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := in.InstallPath(route)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tags) != 1 {
		t.Fatalf("tags = %v, want a single tag (in-port disambiguation)", rec.Tags)
	}
	if in.Stats().LoopsSplit != 0 {
		t.Fatalf("LoopsSplit = %d, want 0", in.Stats().LoopsSplit)
	}
	if err := in.VerifyPath(rec); err != nil {
		t.Fatal(err)
	}
}

func TestSameLinkLoopSegmentsAndSwaps(t *testing.T) {
	// gw - A - B - C with the station behind B, middlebox 1 on C and
	// middlebox 2 on A: the path gw,A,B,C(m1),B,A(m2),B,as enters B from A
	// twice with different onward hops — a same-link loop that needs two
	// tag segments connected by a swap rule (§3.2).
	tp := topo.New()
	gw := tp.AddNode(topo.Gateway, "gw")
	a := tp.AddNode(topo.Core, "A")
	b := tp.AddNode(topo.Core, "B")
	c := tp.AddNode(topo.Core, "C")
	as := tp.AddNode(topo.Access, "as")
	for _, l := range [][2]topo.NodeID{{gw, a}, {a, b}, {b, c}, {b, as}} {
		if err := tp.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.AddBaseStation(0, as); err != nil {
		t.Fatal(err)
	}
	m1, err := tp.AttachMiddlebox(0, c)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := tp.AttachMiddlebox(1, a)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstaller(t, tp, InstallerOptions{})
	pl := routing.NewPlanner(tp)
	route, err := pl.PlanInstances(0, []topo.MBInstanceID{m1, m2}, gw)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := in.InstallPath(route)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tags) < 2 {
		t.Fatalf("tags = %v, want >= 2 segments", rec.Tags)
	}
	if rec.Tags[0] == rec.Tags[1] {
		t.Fatal("segments must use distinct tags")
	}
	if in.Stats().LoopsSplit != 1 {
		t.Fatalf("LoopsSplit = %d", in.Stats().LoopsSplit)
	}
	if err := in.VerifyPath(rec); err != nil {
		t.Fatal(err)
	}
}

func TestRejectTransitOwnAccess(t *testing.T) {
	// Force a route that passes through the origin's access switch by
	// constructing it manually: gw - as - agg, station on as, path listing
	// as as an intermediate hop.
	tp := topo.New()
	gw := tp.AddNode(topo.Gateway, "gw")
	as := tp.AddNode(topo.Access, "as")
	agg := tp.AddNode(topo.Agg, "agg")
	_ = tp.Connect(gw, as)
	_ = tp.Connect(as, agg)
	_ = tp.AddBaseStation(0, as)
	bad := &routing.Path{
		Origin:   0,
		Switches: []topo.NodeID{gw, as, agg, as},
		MBAt:     []topo.MBInstanceID{routing.NoMB, routing.NoMB, routing.NoMB, routing.NoMB},
	}
	in := mustInstaller(t, tp, InstallerOptions{})
	if _, err := in.InstallPath(bad); err == nil {
		t.Fatal("transit through own access switch must be rejected")
	}
}

func TestRejectMBAtAccess(t *testing.T) {
	tp := topo.New()
	gw := tp.AddNode(topo.Gateway, "gw")
	as := tp.AddNode(topo.Access, "as")
	_ = tp.Connect(gw, as)
	_ = tp.AddBaseStation(0, as)
	mb, _ := tp.AttachMiddlebox(0, as)
	bad := &routing.Path{
		Origin:   0,
		Switches: []topo.NodeID{gw, as},
		MBAt:     []topo.MBInstanceID{routing.NoMB, mb},
		Chain:    []topo.MBInstanceID{mb},
	}
	in := mustInstaller(t, tp, InstallerOptions{})
	if _, err := in.InstallPath(bad); err == nil {
		t.Fatal("middlebox at the origin access switch must be rejected")
	}
}

func TestInstallPathInputValidation(t *testing.T) {
	n := newFig3Net(t)
	in := mustInstaller(t, n.Topology, InstallerOptions{})
	if _, err := in.InstallPath(nil); err == nil {
		t.Error("nil path")
	}
	if _, err := in.InstallPath(&routing.Path{Origin: 99,
		Switches: []topo.NodeID{n.gw}, MBAt: []topo.MBInstanceID{routing.NoMB}}); err == nil {
		t.Error("unknown origin")
	}
	if _, err := in.InstallPath(&routing.Path{Origin: 0,
		Switches: []topo.NodeID{n.gw, n.as[1]},
		MBAt:     []topo.MBInstanceID{routing.NoMB, routing.NoMB}}); err == nil {
		t.Error("wrong access end")
	}
}

func TestNewInstallerRejectsBadPlan(t *testing.T) {
	n := newFig3Net(t)
	if _, err := NewInstaller(n.Topology, InstallerOptions{
		Plan: packet.Plan{Carrier: packet.NewPrefix(0, 8), BSBits: 1, UEBits: 1, TagBits: 1},
	}); err == nil {
		t.Fatal("invalid plan should be rejected")
	}
}

// Property test (DESIGN.md §6): after installing a random batch of paths on
// a generated topology, every path's rule-table walk still reproduces its
// requested route — installs never clobber earlier paths.
func TestManyPathsNoClobbering(t *testing.T) {
	g, err := topo.Generate(topo.GenParams{K: 4, ClusterSize: 10, MBTypes: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// BSBits for 40 stations: default plan (12 bits) is fine.
	in := mustInstaller(t, g.Topology, InstallerOptions{})
	pl := routing.NewPlanner(g.Topology)
	rng := rand.New(rand.NewSource(42))
	var recs []*InstalledPath
	for i := 0; i < 120; i++ {
		bs := packet.BSID(rng.Intn(len(g.Stations)))
		m := 1 + rng.Intn(3)
		chain := make([]topo.MBType, m)
		for j := range chain {
			chain[j] = topo.MBType(rng.Intn(4))
			for j > 0 && chain[j] == chain[j-1] {
				chain[j] = topo.MBType(rng.Intn(4))
			}
		}
		route, err := pl.Plan(bs, chain, g.GatewayID)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := in.InstallPath(route)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	for i, rec := range recs {
		if err := in.VerifyPath(rec); err != nil {
			t.Fatalf("path %d (of %d) broken after later installs: %v", i, len(recs), err)
		}
	}
	// Rule count accounting is consistent with the FIBs.
	hw, sw := in.TableSizes()
	if hw.Total()+sw.Total() != in.Stats().Rules {
		t.Fatalf("rule accounting mismatch: tables=%d stats=%d",
			hw.Total()+sw.Total(), in.Stats().Rules)
	}
}

func TestAblationsCostMoreRules(t *testing.T) {
	g, err := topo.Generate(topo.GenParams{K: 4, ClusterSize: 10, MBTypes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	chains := [][]topo.MBType{{0, 1}, {2}, {1, 3, 0}}
	stations := make([]packet.BSID, len(g.Stations))
	for i := range stations {
		stations[i] = packet.BSID(i)
	}
	run := func(opts InstallerOptions) int {
		in := mustInstaller(t, g.Topology, opts)
		pl := routing.NewPlanner(g.Topology)
		if _, err := in.InstallForStations(pl, stations, chains, g.GatewayID, false); err != nil {
			t.Fatal(err)
		}
		hw, _ := in.TableSizes()
		return hw.Total()
	}
	full := run(InstallerOptions{})
	// Fresh-tag-per-path allocates one tag per (station, chain) — far past
	// the default plan's encodable space; this is a rule-counting ablation,
	// so lift the bound exactly as the sweeps do.
	fresh := run(InstallerOptions{FreshTagPerPath: true, UnboundedTags: true})
	noAgg := run(InstallerOptions{NoPrefixAggregation: true})
	noDef := run(InstallerOptions{NoTagDefault: true})
	if fresh <= full {
		t.Errorf("fresh-tag ablation should cost more: full=%d fresh=%d", full, fresh)
	}
	if noAgg < full {
		t.Errorf("no-aggregation ablation should not cost less: full=%d noAgg=%d", full, noAgg)
	}
	if noDef <= full {
		t.Errorf("no-default ablation should cost more: full=%d noDef=%d", full, noDef)
	}
}

func TestInstallForStationsKeepsRecordsOnDemand(t *testing.T) {
	g, err := topo.Generate(topo.GenParams{K: 2, ClusterSize: 4, MBTypes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstaller(t, g.Topology, InstallerOptions{})
	pl := routing.NewPlanner(g.Topology)
	stations := []packet.BSID{0, 1}
	chains := [][]topo.MBType{{0}}
	recs, err := in.InstallForStations(pl, stations, chains, g.GatewayID, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(in.Paths()) != 2 {
		t.Fatalf("records = %d, paths = %d", len(recs), len(in.Paths()))
	}
	in2 := mustInstaller(t, g.Topology, InstallerOptions{})
	if _, err := in2.InstallForStations(routing.NewPlanner(g.Topology), stations, chains, g.GatewayID, false); err != nil {
		t.Fatal(err)
	}
	if len(in2.Paths()) != 0 {
		t.Fatal("records should be dropped when not kept")
	}
	if in2.Stats().Paths != 2 {
		t.Fatal("stats should still count installs")
	}
}

func TestBoundedCandidatesStillShareTags(t *testing.T) {
	n := newFig3Net(t)
	in := mustInstaller(t, n.Topology, InstallerOptions{MaxCandidates: 4})
	pl := routing.NewPlanner(n.Topology)
	var tags []packet.Tag
	for bs := packet.BSID(0); bs < 2; bs++ {
		route, _ := pl.Plan(bs, []topo.MBType{0, 1}, n.gw)
		rec, err := in.InstallPath(route)
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, rec.GatewayTag())
	}
	if tags[0] != tags[1] {
		t.Fatalf("chain-signature hint should still share tags: %v", tags)
	}
}

func TestTraceLoopBudget(t *testing.T) {
	// A deliberately corrupted FIB (two switches pointing at each other)
	// must be detected, not spin forever.
	tp := topo.New()
	a := tp.AddNode(topo.Core, "a")
	b := tp.AddNode(topo.Core, "b")
	_ = tp.Connect(a, b)
	in := mustInstaller(t, tp, InstallerOptions{})
	in.FIB(a).SetDefault(Down, anyPort, 1, ToNode(b))
	in.FIB(b).SetDefault(Down, anyPort, 1, ToNode(a))
	if _, err := in.Walk(Down, a, 1, packet.AddrFrom4(10, 0, 16, 1)); err == nil {
		t.Fatal("forwarding loop should be detected")
	}
}
