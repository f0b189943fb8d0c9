package core

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/routing"
	"repro/internal/topo"
)

func TestRebuildPreservesPaths(t *testing.T) {
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
	rulesBefore := in.Stats().Rules
	if err := in.Rebuild(nil); err != nil {
		t.Fatal(err)
	}
	// Same path population, still verifiable, comparable rule count.
	if len(in.Paths()) != len(recs) {
		t.Fatalf("paths after rebuild = %d", len(in.Paths()))
	}
	for _, rec := range recs {
		if err := in.VerifyPath(rec); err != nil {
			t.Fatalf("path %d broken after rebuild: %v", rec.ID, err)
		}
	}
	if after := in.Stats().Rules; after > rulesBefore {
		t.Fatalf("offline recomputation should not need more rules: %d > %d", after, rulesBefore)
	}
}

func TestRebuildRemovesPaths(t *testing.T) {
	n := newFig3Net(t)
	in := mustInstaller(t, n.Topology, InstallerOptions{})
	pl := routing.NewPlanner(n.Topology)
	var recs []*InstalledPath
	for bs := packet.BSID(0); bs < 4; bs++ {
		for _, chain := range [][]topo.MBType{{0}, {0, 1}} {
			route, err := pl.Plan(bs, chain, n.gw)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := in.InstallPath(route)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
	}
	full := in.Stats().Rules
	// Drop every two-box path.
	if err := in.Rebuild(func(p *InstalledPath) bool { return len(p.Chain) == 1 }); err != nil {
		t.Fatal(err)
	}
	if got := len(in.Paths()); got != 4 {
		t.Fatalf("paths after removal = %d, want 4", got)
	}
	if in.Stats().Rules >= full {
		t.Fatalf("removal should shrink the tables: %d >= %d", in.Stats().Rules, full)
	}
	for _, rec := range recs {
		if len(rec.Chain) != 1 {
			continue
		}
		if err := in.VerifyPath(rec); err != nil {
			t.Fatalf("surviving path %d broken: %v", rec.ID, err)
		}
	}
}

func TestControllerRemovePolicyPaths(t *testing.T) {
	c, _ := testController(t)
	_ = c.RegisterSubscriber("a", policy.Attributes{Provider: "A", Plan: "silver"})
	ue, _, _ := c.Attach("a", 0)
	webClause, _ := c.Policy.Match(ue.Attr, policy.AppWeb)
	videoClause, _ := c.Policy.Match(ue.Attr, policy.AppVideo)
	if _, err := c.RequestPath(0, webClause); err != nil {
		t.Fatal(err)
	}
	tagVideo, err := c.RequestPath(0, videoClause)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RemovePolicyPaths(videoClause); err != nil {
		t.Fatal(err)
	}
	// The web path survives and re-resolves; the video path is re-installed
	// fresh on demand.
	if _, err := c.RequestPath(0, webClause); err != nil {
		t.Fatal(err)
	}
	misses := c.Stats().PathMiss
	tag2, err := c.RequestPath(0, videoClause)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().PathMiss != misses+1 {
		t.Fatal("video path should have been re-installed")
	}
	_ = tagVideo
	_ = tag2
	if len(c.Store.Keys("path/")) != 2 {
		t.Fatalf("store path keys = %v", c.Store.Keys("path/"))
	}
	// Removing a clause with no paths is a no-op.
	if err := c.RemovePolicyPaths(9999); err != nil {
		t.Fatal(err)
	}
}

// TestFIBVersionsSurviveRebuilds: a rebuild replaces every FIB (path removal
// keeps the Installer, failure recomputation builds a new one); either way
// each switch's version moves forward past every value it has had, so a data
// plane that remembers the old version sees a change even where the new FIB
// came out equal to, or emptier than, the old one.
func TestFIBVersionsSurviveRebuilds(t *testing.T) {
	c, n := testController(t)
	warmAll(t, c, []packet.BSID{0, 1, 2, 3})
	versions := func() []uint64 {
		vs := make([]uint64, len(c.T.Nodes))
		for i := range vs {
			vs[i] = c.Installer.FIB(topo.NodeID(i)).Version()
		}
		return vs
	}
	mustAdvance := func(what string, before []uint64) []uint64 {
		t.Helper()
		after := versions()
		for i := range after {
			if after[i] <= before[i] {
				t.Fatalf("%s: switch %d version %d -> %d", what, i, before[i], after[i])
			}
		}
		return after
	}
	v := versions()
	web, _ := c.Policy.Match(policy.Attributes{Provider: "A"}, policy.AppWeb)
	if err := c.RemovePolicyPaths(web); err != nil {
		t.Fatal(err)
	}
	v = mustAdvance("path removal", v)
	if _, err := c.FailSwitch(n.cs3); err != nil {
		t.Fatal(err)
	}
	v = mustAdvance("switch failure", v)
	if _, err := c.RecoverSwitch(n.cs3); err != nil {
		t.Fatal(err)
	}
	mustAdvance("switch recovery", v)
}
