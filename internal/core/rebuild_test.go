package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// routesOf records every installed path's switches and middleboxes by key.
func routesOf(c *Controller) map[pathKey]string {
	out := make(map[pathKey]string)
	for key, rec := range installedPaths(c) {
		out[key] = fmt.Sprint(rec.Route.Switches, rec.Chain)
	}
	return out
}

// TestRebuildPreservesPaths: a recomputation over an unchanged topology (a
// recovery of a switch that never failed) is a pure re-optimisation pass.
// Every path comes back under its key on the same route, verifies, and
// needs no more rules than before.
func TestRebuildPreservesPaths(t *testing.T) {
	c, n := testController(t)
	warmAll(t, c, []packet.BSID{0, 1, 2, 3})
	before, rules := routesOf(c), c.Installer.Stats().Rules
	rep, err := c.RecoverSwitch(n.cs1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recomputed != len(before) || rep.Unreachable != 0 {
		t.Fatalf("recomputed %d, unreachable %d; want %d and 0", rep.Recomputed, rep.Unreachable, len(before))
	}
	if after := routesOf(c); !maps.Equal(after, before) {
		t.Fatalf("paths after the rebuild %v, before %v", after, before)
	}
	if got := c.Installer.Stats().Paths; got != uint64(len(before)) {
		t.Fatalf("installer counts %d paths, the table files %d", got, len(before))
	}
	mustCheck(t, c)
	if after := c.Installer.Stats().Rules; after > rules {
		t.Fatalf("offline recomputation should not need more rules: %d > %d", after, rules)
	}
}

// TestRebuildRemovesPaths: withdrawing the two-box clauses leaves exactly
// the one-box paths, on their old routes, in smaller tables that still
// carry every survivor.
func TestRebuildRemovesPaths(t *testing.T) {
	c, _ := testController(t)
	warmAll(t, c, []packet.BSID{0, 1, 2, 3})
	before, full := routesOf(c), c.Installer.Stats().Rules
	for key, rec := range installedPaths(c) {
		if len(rec.Chain) == 2 {
			if err := c.RemovePolicyPaths(key.clause); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := routesOf(c)
	if len(after) != 12 || c.Installer.Stats().Paths != 12 {
		t.Fatalf("%d paths filed, installer counts %d; want 12 one-box paths", len(after), c.Installer.Stats().Paths)
	}
	for key, route := range after {
		if route != before[key] {
			t.Fatalf("surviving path (bs %d, clause %d) moved from %s to %s", key.bs, key.clause, before[key], route)
		}
		if rec := c.paths.get(key); len(rec.Chain) != 1 {
			t.Fatalf("path (bs %d, clause %d) crosses %d middleboxes", key.bs, key.clause, len(rec.Chain))
		}
	}
	if c.Installer.Stats().Rules >= full {
		t.Fatalf("removal should shrink the tables: %d >= %d", c.Installer.Stats().Rules, full)
	}
	mustCheck(t, c)
}

// TestTagsAllocatedCountsEveryTag: the installer's TagsAllocated is the
// number of tags handed out over the controller's life. Rebuilds continue
// the tag sequence, so they continue the count too. The fixture allocates
// from offset 0 with stride 1: the last tag handed out is the count.
func TestTagsAllocatedCountsEveryTag(t *testing.T) {
	c, n := testController(t)
	check := func(when string) {
		t.Helper()
		if got, want := c.Installer.Stats().TagsAllocated, uint64(c.Installer.nextTag); got != want {
			t.Fatalf("%s: TagsAllocated = %d, %d tags handed out", when, got, want)
		}
	}
	stations := []packet.BSID{0, 1, 2, 3}
	clauses := warmAll(t, c, stations)
	check("warm")
	if err := c.RemovePolicyPaths(clauses[0]); err != nil {
		t.Fatal(err)
	}
	check("after RemovePolicyPaths")
	if _, err := c.FailSwitch(n.cs3); err != nil {
		t.Fatal(err)
	}
	check("after FailSwitch")
	if _, err := c.RecoverSwitch(n.cs3); err != nil {
		t.Fatal(err)
	}
	check("after RecoverSwitch")
	warmAll(t, c, stations)
	check("rewarmed")
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
	if _, err := c.RequestPath(0, videoClause); err != nil {
		t.Fatal(err)
	}
	webRec := c.paths.get(pathKey{0, webClause})
	if err := c.RemovePolicyPaths(videoClause); err != nil {
		t.Fatal(err)
	}
	// The web path survives as a fresh record on the same route, the only
	// path the fresh installer holds, and re-resolves to its new tag; the
	// old record is left as it was.
	got := c.paths.get(pathKey{0, webClause})
	if got == nil || got == webRec || !slices.Equal(got.Route.Switches, webRec.Route.Switches) {
		t.Fatalf("surviving path is %+v, was %+v", got, webRec)
	}
	if n := c.Installer.Stats().Paths; n != 1 || c.paths.len() != 1 {
		t.Fatalf("installer counts %d paths, the table files %d; want 1", n, c.paths.len())
	}
	if err := c.Installer.VerifyPath(got); err != nil {
		t.Fatal(err)
	}
	if tag, err := c.RequestPath(0, webClause); err != nil || tag != got.AccessTag() {
		t.Fatalf("web path re-resolves to %d (%v), its record says %d", tag, err, got.AccessTag())
	}
	misses := c.Stats().PathMiss
	if _, err := c.RequestPath(0, videoClause); err != nil {
		t.Fatal(err)
	}
	if c.Stats().PathMiss != misses+1 {
		t.Fatal("video path should have been re-installed")
	}
	if len(c.Store.Keys("path/")) != 2 {
		t.Fatalf("store path keys = %v", c.Store.Keys("path/"))
	}
	mustCheck(t, c)
	// Removing a clause with no paths is a no-op: no rebuild, no rule.
	in, versions := c.Installer, fibVersions(c)
	if err := c.RemovePolicyPaths(9999); err != nil || c.Installer != in || !slices.Equal(fibVersions(c), versions) {
		t.Fatalf("no-op removal: %v, installer replaced %v, FIB versions %v -> %v",
			err, c.Installer != in, versions, fibVersions(c))
	}
}

// fibVersions lists every switch's FIB version, by node.
func fibVersions(c *Controller) []uint64 {
	vs := make([]uint64, len(c.T.Nodes))
	for i := range vs {
		vs[i] = c.Installer.FIB(topo.NodeID(i)).Version()
	}
	return vs
}

// TestFIBVersionsSurviveRebuilds: a rebuild (path removal, failure
// recomputation) replaces the Installer and every FIB in it; each switch's
// version moves forward past every value it has had, so a data
// plane that remembers the old version sees a change even where the new FIB
// came out equal to, or emptier than, the old one.
func TestFIBVersionsSurviveRebuilds(t *testing.T) {
	c, n := testController(t)
	warmAll(t, c, []packet.BSID{0, 1, 2, 3})
	mustAdvance := func(what string, before []uint64) []uint64 {
		t.Helper()
		after := fibVersions(c)
		for i := range after {
			if after[i] <= before[i] {
				t.Fatalf("%s: switch %d version %d -> %d", what, i, before[i], after[i])
			}
		}
		return after
	}
	v := fibVersions(c)
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
// either. Both must read the same after the path is re-tagged (a rebuild
// that withdraws another clause) and after a failure recomputation, the release must still find and end
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
		oldTag := c.paths.get(pathKey{0, video}).AccessTag()
		if err := c.RemovePolicyPaths(web); err != nil {
			t.Fatal(err)
		}
		if c.paths.get(pathKey{0, video}).AccessTag() == oldTag {
			t.Fatal("the rebuild did not re-tag the surviving path; the test needs it to")
		}
		if _, err := c.FailSwitch(n.cs3); err != nil {
			t.Fatal(err)
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

// takeChanged drains the Installer's Changed set.
func takeChanged(in *Installer) []topo.NodeID {
	var out []topo.NodeID
	in.Changed().Drain(func(i int) bool {
		out = append(out, topo.NodeID(i))
		return true
	})
	return out
}

// TestChangedListsTheSwitchesThatMoved: an Installer's Changed set starts
// with every switch; after that a drain lists, once each, exactly the
// switches whose FIB version moved, and a rebuild's fresh Installer lists
// every switch again.
func TestChangedListsTheSwitchesThatMoved(t *testing.T) {
	c, _ := testController(t)
	all := len(c.T.Nodes)
	if got := takeChanged(c.Installer); len(got) != all {
		t.Fatalf("first list has %d switches, want all %d", len(got), all)
	}
	if got := takeChanged(c.Installer); len(got) != 0 {
		t.Fatalf("nothing changed, yet %d switches listed", len(got))
	}
	before := fibVersions(c)
	warmAll(t, c, []packet.BSID{0, 1})
	var moved []topo.NodeID
	for i, v := range fibVersions(c) {
		if v != before[i] {
			moved = append(moved, topo.NodeID(i))
		}
	}
	got := takeChanged(c.Installer)
	if len(moved) == 0 || !slices.Equal(got, moved) {
		t.Fatalf("listed %v, the switches that moved are %v", got, moved)
	}
	web, _ := c.Policy.Match(policy.Attributes{Provider: "A"}, policy.AppWeb)
	if err := c.RemovePolicyPaths(web); err != nil {
		t.Fatal(err)
	}
	if got := takeChanged(c.Installer); len(got) != all {
		t.Fatalf("a rebuild's Installer lists %d switches, want all %d", len(got), all)
	}
}
