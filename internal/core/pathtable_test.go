package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/policy"
)

// installedPaths copies the installed-path table into a map.
func installedPaths(c *Controller) map[pathKey]*InstalledPath {
	out := make(map[pathKey]*InstalledPath, c.paths.len())
	for _, e := range c.paths.all() {
		out[e.key] = e.rec
	}
	return out
}

// warmAll requests every (station, allow-clause) path once so the table is
// fully populated.
func warmAll(t *testing.T, c *Controller, stations []packet.BSID) []int {
	t.Helper()
	clauses := allowClauses(c.Policy)
	for _, bs := range stations {
		for _, cl := range clauses {
			if _, err := c.RequestPath(bs, cl); err != nil {
				t.Fatalf("warm RequestPath(%d, %d): %v", bs, cl, err)
			}
		}
	}
	return clauses
}

// mustCheck runs the controller's invariant checker.
func mustCheck(t *testing.T, c *Controller) {
	t.Helper()
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTagCacheDropsRemovedClause(t *testing.T) {
	c, _ := testController(t)
	attr := policy.Attributes{Provider: "A", Plan: "silver"}
	web, _ := c.Policy.Match(attr, policy.AppWeb)
	video, _ := c.Policy.Match(attr, policy.AppVideo)
	for bs := packet.BSID(0); bs < 4; bs++ {
		for _, cl := range []int{web, video} {
			if _, err := c.RequestPath(bs, cl); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.paths.get(pathKey{0, web}) == nil {
		t.Fatal("warmed path not filed")
	}

	if err := c.RemovePolicyPaths(web); err != nil {
		t.Fatal(err)
	}
	for key := range installedPaths(c) {
		if key.clause == web {
			t.Fatalf("removed clause %d still served at station %d", web, key.bs)
		}
	}
	if c.paths.get(pathKey{0, video}) == nil {
		t.Fatal("unrelated clause withdrawn by removal")
	}
	mustCheck(t, c)

	// The next request must re-derive through Algorithm 1, not serve a
	// removed tag: PathMiss advances and the fresh path lands in the table.
	before := c.Stats().PathMiss
	tag, err := c.RequestPath(0, web)
	if err != nil || tag == 0 {
		t.Fatalf("re-request after removal: tag %d, %v", tag, err)
	}
	if got := c.Stats().PathMiss; got != before+1 {
		t.Fatalf("PathMiss = %d after re-request, want %d (a fresh install)", got, before+1)
	}
	if got := c.paths.get(pathKey{0, web}).AccessTag(); got != tag {
		t.Fatalf("table has %d after re-install, request returned %d", got, tag)
	}
}

func TestTagCacheFollowsFailureRecompute(t *testing.T) {
	c, n := testController(t)
	warmAll(t, c, []packet.BSID{0, 1, 2, 3})
	attr := policy.Attributes{Provider: "A"}
	web, _ := c.Policy.Match(attr, policy.AppWeb)

	// cs3 feeds stations 2 and 3: failing it cuts them off, so their paths
	// are withdrawn and everything else is re-planned.
	rep, err := c.FailSwitch(n.cs3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unreachable == 0 {
		t.Fatal("failing cs3 should strand the paths of stations 2 and 3")
	}
	mustCheck(t, c)
	for key := range installedPaths(c) {
		if key.bs == 2 || key.bs == 3 {
			t.Fatalf("cut-off station %d still has a path", key.bs)
		}
	}
	// A request for a cut-off station must fail — never serve the old tag.
	if _, err := c.RequestPath(2, web); err == nil {
		t.Fatal("request for a cut-off station served a tag")
	}

	if _, err := c.RecoverSwitch(n.cs3); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c)
	// Recovery re-opens the stations; the first request re-installs.
	before := c.Stats().PathMiss
	tag, err := c.RequestPath(2, web)
	if err != nil || tag == 0 {
		t.Fatalf("request after recovery: tag %d, %v", tag, err)
	}
	if got := c.Stats().PathMiss; got != before+1 {
		t.Fatalf("PathMiss = %d after recovery request, want %d", got, before+1)
	}
	mustCheck(t, c)
}

// TestPathDocumentsFollowFailureRecompute: the store's path/ documents are
// the installed paths, each naming its PathID, after a failure withdraws
// some paths and renumbers the rest, and again after recovery.
func TestPathDocumentsFollowFailureRecompute(t *testing.T) {
	c, n := testController(t)
	warmAll(t, c, []packet.BSID{0, 1, 2, 3})
	assertDocsMatchPaths := func(when string) {
		t.Helper()
		keys := c.Store.Keys("path/")
		if len(keys) != c.paths.len() {
			t.Fatalf("%s: %d path/ documents for %d installed paths", when, len(keys), c.paths.len())
		}
		for key, rec := range installedPaths(c) {
			e, ok := c.Store.Get(fmt.Sprintf("path/%d/%d", key.bs, key.clause))
			if !ok || len(e.Value) != 8 || PathID(binary.BigEndian.Uint64(e.Value)) != rec.ID {
				t.Fatalf("%s: (bs %d, clause %d) document %x, installed path %d", when, key.bs, key.clause, e.Value, rec.ID)
			}
		}
		if _, err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	assertDocsMatchPaths("warm")
	if _, err := c.FailSwitch(n.cs3); err != nil {
		t.Fatal(err)
	}
	assertDocsMatchPaths("after FailSwitch")
	if _, err := c.RecoverSwitch(n.cs3); err != nil {
		t.Fatal(err)
	}
	warmAll(t, c, []packet.BSID{0, 1, 2, 3})
	assertDocsMatchPaths("after RecoverSwitch")
}

// assertStationServedFromTable states what a UE leaving (or a no-op
// re-absorb) must leave untouched at bs: the controller still checks out,
// the station's pushed view lists every installed clause, a UE attaching
// there gets resolved tags, and the next path request is a table hit — no
// install, no cache miss, no new tag-plan epoch.
func assertStationServedFromTable(t *testing.T, c *Controller, bs packet.BSID, imsi string, clauses []int) {
	t.Helper()
	mustCheck(t, c)
	view, err := c.AgentView(bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Tags) != len(clauses) {
		t.Fatalf("station %d view carries %d grants, %d paths installed", bs, len(view.Tags), len(clauses))
	}
	_, cls, err := c.Attach(imsi, bs)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range cls {
		if installed := c.paths.get(pathKey{bs, cl.Clause}) != nil; cl.Allow && installed && cl.Tag == 0 {
			t.Fatalf("attach at station %d: clause %d unresolved although its path is installed", bs, cl.Clause)
		}
	}
	miss, cacheMiss, epoch := c.Stats().PathMiss, c.obs.cacheMiss.Value(), c.Epoch()
	tag, err := c.RequestPath(bs, clauses[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := c.paths.get(pathKey{bs, clauses[0]}).AccessTag(); tag != want {
		t.Fatalf("station %d served tag %d, installed path says %d", bs, tag, want)
	}
	if c.Stats().PathMiss != miss || c.obs.cacheMiss.Value() != cacheMiss || c.Epoch() != epoch {
		t.Fatalf("station %d request after migration: PathMiss %d->%d, cache misses %d->%d, epoch %d->%d; want all unchanged",
			bs, miss, c.Stats().PathMiss, cacheMiss, c.obs.cacheMiss.Value(), epoch, c.Epoch())
	}
}

func TestTagCacheSurvivesUEMigration(t *testing.T) {
	// Shard A owns stations {0,1} with the even tag partition.
	a := shardedController(t, nil, []packet.BSID{0, 1}, 0, 2)
	for _, imsi := range []string{"u", "v"} {
		if err := a.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
	}
	ue, _, err := a.Attach("u", 1)
	if err != nil {
		t.Fatal(err)
	}
	clauses := warmAll(t, a, []packet.BSID{0, 1})
	web := clauses[0]

	// ExtractUE is phase one of a cross-shard handoff. A UE leaving changes
	// no path and no tag: station 1 keeps answering from the table.
	if _, err := a.ExtractUE("u"); err != nil {
		t.Fatal(err)
	}
	assertStationServedFromTable(t, a, 1, "v", clauses)

	// Shard B re-absorbing a station it already serves (ring churn round
	// trip) is the same non-event.
	b := shardedController(t, nil, []packet.BSID{2, 3}, 1, 2)
	if err := b.RegisterSubscriber("w", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	warmAll(t, b, []packet.BSID{2, 3})
	if err := b.AbsorbStation(2, nil); err != nil {
		t.Fatal(err)
	}
	assertStationServedFromTable(t, b, 2, "w", clauses)

	// And absorbing a genuinely new station: the first path request answers
	// from B's own rule table — its tag carries B's partition parity.
	if err := b.AbsorbStation(1, []UE{ue}); err != nil {
		t.Fatal(err)
	}
	tag, err := b.RequestPath(1, web)
	if err != nil || tag == 0 {
		t.Fatalf("request at absorbed station: tag %d, %v", tag, err)
	}
	if tag%2 != 1 {
		t.Fatalf("tag %d for absorbed station lacks B's partition parity", tag)
	}
}

// TestRequestPathHitEqualsMiss drives two identical controllers from cold:
// one is asked every path twice, so the second answer is the lock-free
// read; the other is asked once and only ever resolves under ruleMu. All
// three answers must be the installed path's tag: the lock-free read is an
// optimisation, never a semantic change.
func TestRequestPathHitEqualsMiss(t *testing.T) {
	cached, _ := testController(t)
	plain, _ := testController(t)
	for bs := packet.BSID(0); bs < 4; bs++ {
		for _, cl := range allowClauses(cached.Policy) {
			miss, err := cached.RequestPath(bs, cl)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := cached.RequestPath(bs, cl)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.RequestPath(bs, cl)
			if err != nil {
				t.Fatal(err)
			}
			if miss != want || hit != want || want != plain.paths.get(pathKey{bs, cl}).AccessTag() {
				t.Fatalf("(bs %d, clause %d): miss %d, hit %d, uncached controller %d, installed path %d",
					bs, cl, miss, hit, want, plain.paths.get(pathKey{bs, cl}).AccessTag())
			}
		}
	}
	st := cached.Stats()
	if st.PathAsks != 2*st.PathMiss {
		t.Fatalf("every path asked twice: %d asks but %d installs", st.PathAsks, st.PathMiss)
	}
}
