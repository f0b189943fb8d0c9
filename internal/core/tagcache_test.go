package core

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/policy"
)

// tagSnapshot reads the current tag-memo snapshot (tests only; production
// readers index it directly on the fast path).
func tagSnapshot(c *Controller) tagMap { return *c.tagCache.Load() }

// warmAll requests every (station, allow-clause) path once so the memo is
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

// assertCacheMatchesPaths checks the memo and the installed-path map agree
// key for key — the core consistency property every invalidation must
// restore.
func assertCacheMatchesPaths(t *testing.T, c *Controller) {
	t.Helper()
	tags := tagSnapshot(c)
	if len(tags) != len(c.paths) {
		t.Fatalf("tag cache has %d entries, installed paths %d", len(tags), len(c.paths))
	}
	for key, rec := range c.paths {
		if tags[key] != rec.AccessTag() {
			t.Fatalf("cached tag %d for (bs %d, clause %d), path says %d",
				tags[key], key.bs, key.clause, rec.AccessTag())
		}
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
	if _, ok := tagSnapshot(c)[pathKey{0, web}]; !ok {
		t.Fatal("warmed tag not memoised")
	}

	if err := c.RemovePolicyPaths(web); err != nil {
		t.Fatal(err)
	}
	snap := tagSnapshot(c)
	for key := range snap {
		if key.clause == web {
			t.Fatalf("removed clause %d still cached for station %d", web, key.bs)
		}
	}
	if _, ok := snap[pathKey{0, video}]; !ok {
		t.Fatal("unrelated clause evicted by removal")
	}
	assertCacheMatchesPaths(t, c)

	// The next request must re-derive through Algorithm 1, not serve a
	// removed tag: PathMiss advances and the fresh tag lands in the memo.
	before := c.Stats().PathMiss
	tag, err := c.RequestPath(0, web)
	if err != nil || tag == 0 {
		t.Fatalf("re-request after removal: tag %d, %v", tag, err)
	}
	if got := c.Stats().PathMiss; got != before+1 {
		t.Fatalf("PathMiss = %d after re-request, want %d (a fresh install)", got, before+1)
	}
	if got := tagSnapshot(c)[pathKey{0, web}]; got != tag {
		t.Fatalf("memo has %d after re-install, request returned %d", got, tag)
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
	assertCacheMatchesPaths(t, c)
	for key := range tagSnapshot(c) {
		if key.bs == 2 || key.bs == 3 {
			t.Fatalf("cut-off station %d still has a cached tag", key.bs)
		}
	}
	// A request for a cut-off station must fail — never serve the old tag.
	if _, err := c.RequestPath(2, web); err == nil {
		t.Fatal("request for a cut-off station served a tag")
	}

	if _, err := c.RecoverSwitch(n.cs3); err != nil {
		t.Fatal(err)
	}
	assertCacheMatchesPaths(t, c)
	// Recovery re-opens the stations; the first request re-installs.
	before := c.Stats().PathMiss
	tag, err := c.RequestPath(2, web)
	if err != nil || tag == 0 {
		t.Fatalf("request after recovery: tag %d, %v", tag, err)
	}
	if got := c.Stats().PathMiss; got != before+1 {
		t.Fatalf("PathMiss = %d after recovery request, want %d", got, before+1)
	}
	assertCacheMatchesPaths(t, c)
}

func TestTagCacheDropsMigratedStation(t *testing.T) {
	// Shard A owns stations {0,1} with the even tag partition.
	a := shardedController(t, nil, []packet.BSID{0, 1}, 0, 2)
	if err := a.RegisterSubscriber("u", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	ue, _, err := a.Attach("u", 1)
	if err != nil {
		t.Fatal(err)
	}
	warmAll(t, a, []packet.BSID{0, 1})
	web := allowClauses(a.Policy)[0]

	// ExtractUE is phase one of a cross-shard handoff: the departure
	// station's memoised tags must not survive it.
	if _, err := a.ExtractUE("u"); err != nil {
		t.Fatal(err)
	}
	for key := range tagSnapshot(a) {
		if key.bs == 1 {
			t.Fatalf("station 1 tag (clause %d) survived ExtractUE", key.clause)
		}
	}
	if _, ok := tagSnapshot(a)[pathKey{0, web}]; !ok {
		t.Fatal("station 0 tags should survive a station-1 extraction")
	}
	// A still owns station 1 and its path rules are still installed, so the
	// next request re-derives through the rule table (not the memo) and
	// republishes the entry for later fast-path hits.
	tag1, err := a.RequestPath(1, web)
	if err != nil {
		t.Fatal(err)
	}
	if want := a.paths[pathKey{1, web}].AccessTag(); tag1 != want {
		t.Fatalf("re-derived tag %d, installed path says %d", tag1, want)
	}
	if got := tagSnapshot(a)[pathKey{1, web}]; got != tag1 {
		t.Fatalf("memo not republished after re-derivation: %d, want %d", got, tag1)
	}

	// Shard B re-absorbing a station it already serves (ring churn round
	// trip) must still drop its memoised tags for it.
	b := shardedController(t, nil, []packet.BSID{2, 3}, 1, 2)
	warmAll(t, b, []packet.BSID{2, 3})
	if _, ok := tagSnapshot(b)[pathKey{2, web}]; !ok {
		t.Fatal("precondition: station 2 warmed on B")
	}
	if err := b.AbsorbStation(2, nil); err != nil {
		t.Fatal(err)
	}
	for key := range tagSnapshot(b) {
		if key.bs == 2 {
			t.Fatalf("station 2 tag (clause %d) survived AbsorbStation", key.clause)
		}
	}

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
// one is asked every path twice, so the second answer comes from the memo;
// the other is asked once and only ever resolves through the rule table.
// All three answers must be the installed path's tag: the memo is an
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
			if miss != want || hit != want || want != plain.paths[pathKey{bs, cl}].AccessTag() {
				t.Fatalf("(bs %d, clause %d): miss %d, hit %d, uncached controller %d, installed path %d",
					bs, cl, miss, hit, want, plain.paths[pathKey{bs, cl}].AccessTag())
			}
		}
	}
	st := cached.Stats()
	if st.PathAsks != 2*st.PathMiss {
		t.Fatalf("every path asked twice: %d asks but %d installs", st.PathAsks, st.PathMiss)
	}
}
