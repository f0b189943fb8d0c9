package core

import (
	"slices"
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
	webRec := c.paths[pathKey{0, webClause}]
	webID := webRec.ID
	if err := c.RemovePolicyPaths(videoClause); err != nil {
		t.Fatal(err)
	}
	// The web path survives under the record and the ID the controller and
	// the installer already hold (Rebuild adopts the re-installed record's
	// contents by value), and re-resolves; the video path is re-installed
	// fresh on demand.
	if got := c.paths[pathKey{0, webClause}]; got != webRec || got.ID != webID {
		t.Fatalf("surviving path is record %p id %d, was %p id %d", got, got.ID, webRec, webID)
	}
	if got := c.Installer.paths[webID]; got != webRec || len(c.Installer.paths) != 1 {
		t.Fatalf("installer files %d paths, id %d -> %p, want the one record %p", len(c.Installer.paths), webID, got, webRec)
	}
	if err := c.Installer.VerifyPath(webRec); err != nil {
		t.Fatal(err)
	}
	if tag, err := c.RequestPath(0, webClause); err != nil || tag != webRec.AccessTag() {
		t.Fatalf("web path re-resolves to %d (%v), its record says %d", tag, err, webRec.AccessTag())
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

// TestShortcutOutlivesPathRebuild: a Shortcut aliases the Tags of the path
// it was cut from and keeps the route it was handed, with no pool behind
// either. Both must read the same after the path records are re-tagged (a
// Rebuild that withdraws another clause) and after the Installer itself is
// replaced (a failure recomputation), the release must still find and end
// the reservation, and the tables must end where those of a controller
// that never handed the UE off end.
func TestShortcutOutlivesPathRebuild(t *testing.T) {
	run := func(handoff bool) *Controller {
		c, n := testController(t)
		_ = c.RegisterSubscriber("a", policy.Attributes{Provider: "A", Plan: "silver"})
		ue, _, err := c.Attach("a", 0)
		if err != nil {
			t.Fatal(err)
		}
		video, _ := c.Policy.Match(ue.Attr, policy.AppVideo)
		web, _ := c.Policy.Match(ue.Attr, policy.AppWeb)
		for _, clause := range []int{video, web} {
			if _, err := c.RequestPath(0, clause); err != nil {
				t.Fatal(err)
			}
		}
		var res HandoffResult
		type fields struct {
			route []topo.NodeID
			tags  []packet.Tag
		}
		var want []fields
		if handoff {
			if res, err = c.Handoff("a", 1); err != nil {
				t.Fatal(err)
			}
			if len(res.Shortcuts) != 2 {
				t.Fatalf("handoff cut %d shortcuts, want one per cached path", len(res.Shortcuts))
			}
			for _, sc := range res.Shortcuts {
				want = append(want, fields{slices.Clone(sc.Route), slices.Clone(sc.PathTags)})
			}
		}
		oldTag := c.paths[pathKey{0, video}].AccessTag()
		if err := c.RemovePolicyPaths(web); err != nil {
			t.Fatal(err)
		}
		if c.paths[pathKey{0, video}].AccessTag() == oldTag {
			t.Fatal("the rebuild did not re-tag the surviving path; the test needs it to")
		}
		oldInstaller := c.Installer
		if _, err := c.FailSwitch(n.cs3); err != nil {
			t.Fatal(err)
		}
		if c.Installer == oldInstaller {
			t.Fatal("the recomputation kept the installer; the test needs a fresh one")
		}
		for i, sc := range res.Shortcuts {
			if !slices.Equal(sc.Route, want[i].route) || !slices.Equal(sc.PathTags, want[i].tags) {
				t.Fatalf("shortcut %d reads route %v tags %v after the rebuilds, was cut with %v %v",
					i, sc.Route, sc.PathTags, want[i].route, want[i].tags)
			}
		}
		if handoff {
			if _, err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			c.ReleaseOldLocIP(res.OldLocIP, res.Shortcuts)
			if n := c.MemStats().Reservations; n != 0 {
				t.Fatalf("%d reservations after the release", n)
			}
		}
		if _, err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	moved, stayed := run(true), run(false)
	if got, want := moved.Installer.Stats().Rules, stayed.Installer.Stats().Rules; got != want {
		t.Fatalf("%d rules after handoff, rebuilds and release; %d without the handoff", got, want)
	}
	want := fibShapes(stayed.Installer)
	for i, got := range fibShapes(moved.Installer) {
		if got != want[i] {
			t.Errorf("switch %d has FIB shape %+v, want %+v", i, got, want[i])
		}
	}
}
