package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// TestHandoffDuringSwitchFailureReconverges races UE handoffs against
// switch failure/recovery recomputations. Each recomputation rebuilds the
// installer and the path map wholesale while handoffs are concurrently
// allocating addresses and retargeting reservation shortcuts; afterwards
// the tag cache, the installed-path map, and the rule tables must agree
// again — exactly what CheckInvariants asserts. Run under -race by `make
// verify`, this is the reconvergence half of the chaos harness distilled
// to two actors.
func TestHandoffDuringSwitchFailureReconverges(t *testing.T) {
	c, n := testController(t)
	const nUE = 8
	imsis := make([]string, nUE)
	for i := range imsis {
		imsis[i] = fmt.Sprintf("imsi-%d", i)
		if err := c.RegisterSubscriber(imsis[i], policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Attach(imsis[i], packet.BSID(i%4)); err != nil {
			t.Fatal(err)
		}
	}
	clauses := allowClauses(c.Policy)
	for bs := packet.BSID(0); bs < 4; bs++ {
		if _, err := c.RequestPath(bs, clauses[0]); err != nil {
			t.Fatal(err)
		}
	}

	iters := 150
	if testing.Short() {
		iters = 30
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				_, _ = c.Handoff(imsis[rng.Intn(nUE)], packet.BSID(rng.Intn(4)))
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := c.FailSwitch(n.cs3); err != nil {
				t.Errorf("FailSwitch: %v", err)
				return
			}
			if _, err := c.RecoverSwitch(n.cs3); err != nil {
				t.Errorf("RecoverSwitch: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Quiesce: expire every reserved old LocIP, then demand full global
	// consistency.
	c.ueMu.RLock()
	reserved := make([]packet.Addr, 0, len(c.reservations))
	for loc := range c.reservations {
		reserved = append(reserved, loc)
	}
	c.ueMu.RUnlock()
	for _, loc := range reserved {
		c.ReleaseOldLocIP(loc, nil)
	}
	rep, err := c.CheckInvariants()
	if err != nil {
		t.Fatalf("invariants after handoff/failure race: %v", err)
	}
	if rep.Reservations != 0 {
		t.Fatalf("reservations leaked: %d", rep.Reservations)
	}
	// With the dust settled the controller answers every combination again.
	for bs := packet.BSID(0); bs < 4; bs++ {
		for _, cl := range clauses {
			if tag, err := c.RequestPath(bs, cl); err != nil || tag == 0 {
				t.Fatalf("RequestPath(%d, %d): tag %d, %v", bs, cl, tag, err)
			}
		}
	}
}

// TestDetachRemovesReservationShortcuts is the regression test for the
// forwarding loop the chaos harness found: a UE that detaches while an old
// LocIP is still reserved has no delivery microflows anywhere, so leaving
// its reservation shortcuts installed could combine a shortcut hop rule
// with a path's location rule into a loop for the dead address. Detach must
// tear the shortcuts down (the reservation itself stays until release).
func TestDetachRemovesReservationShortcuts(t *testing.T) {
	c, _ := testController(t)
	if err := c.RegisterSubscriber("imsi-sc", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attach("imsi-sc", 0); err != nil {
		t.Fatal(err)
	}
	clauses := allowClauses(c.Policy)
	for _, cl := range clauses {
		if _, err := c.RequestPath(0, cl); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Handoff("imsi-sc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shortcuts) == 0 {
		t.Fatal("handoff installed no shortcuts; the regression needs them")
	}
	if err := c.Detach("imsi-sc"); err != nil {
		t.Fatal(err)
	}
	c.ueMu.RLock()
	c.ruleMu.Lock()
	rsv, ok := c.reservations[res.OldLocIP]
	var left int
	if ok {
		left = len(rsv.shortcuts)
	}
	c.ruleMu.Unlock()
	c.ueMu.RUnlock()
	if !ok {
		t.Fatal("reservation should survive Detach until ReleaseOldLocIP")
	}
	if left != 0 {
		t.Fatalf("%d reservation shortcuts still installed after Detach", left)
	}
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after detach-mid-handoff: %v", err)
	}
	c.ReleaseOldLocIP(res.OldLocIP, nil)
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after release: %v", err)
	}
}

// TestReleaseAfterExtractDoesNotDoubleFree: extracting a UE for migration
// frees its addresses (including reserved old LocIPs); the old shard's
// pending ReleaseOldLocIP timer may still fire afterwards. The release must
// notice the reservation is gone and not free the UE ID a second time —
// the allocator-safety invariant catches the double-free directly.
func TestReleaseAfterExtractDoesNotDoubleFree(t *testing.T) {
	c, _ := testController(t)
	if err := c.RegisterSubscriber("imsi-mig", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attach("imsi-mig", 0); err != nil {
		t.Fatal(err)
	}
	res, err := c.Handoff("imsi-mig", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExtractUE("imsi-mig"); err != nil {
		t.Fatal(err)
	}
	// The stale timer fires after the migration already freed everything.
	c.ReleaseOldLocIP(res.OldLocIP, nil)
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stale release: %v", err)
	}
	// The freed IDs must be reusable without collision.
	for i := 0; i < 3; i++ {
		imsi := fmt.Sprintf("imsi-re%d", i)
		if err := c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Attach(imsi, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after re-attach: %v", err)
	}
}

// TestShortcutsComeBackInClauseOrder pins the order retargeting installs
// and reports a handoff's shortcuts in: the origin station's paths by
// ascending clause — the same on every controller, where ranging over the
// path map gave each run its own. The UE's classifiers allow four clauses,
// so four of the origin's paths get shortcuts.
func TestShortcutsComeBackInClauseOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		c, _ := testController(t)
		if err := c.RegisterSubscriber("imsi-ord", policy.Attributes{Provider: "A", Plan: "silver", DeviceType: "m2m-fleet"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Attach("imsi-ord", 0); err != nil {
			t.Fatal(err)
		}
		// Two paths of one origin never share a tag, so the delivery tag
		// names the clause.
		clauseOf := make(map[packet.Tag]int)
		for _, cl := range warmAll(t, c, []packet.BSID{0, 1, 2, 3}) {
			clauseOf[c.paths.get(pathKey{0, cl}).AccessTag()] = cl
		}
		res, err := c.Handoff("imsi-ord", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Shortcuts) < 3 {
			t.Fatalf("handoff cut %d shortcuts; the order needs at least 3 to show", len(res.Shortcuts))
		}
		for i := 1; i < len(res.Shortcuts); i++ {
			if prev, cur := clauseOf[res.Shortcuts[i-1].Delivery], clauseOf[res.Shortcuts[i].Delivery]; prev >= cur {
				t.Fatalf("run %d: shortcut %d serves clause %d, shortcut %d clause %d; want ascending", run, i-1, prev, i, cur)
			}
		}
	}
}

// TestHandoffCutsShortcutsOnlyForAllowedClauses pins that a handoff cuts
// shortcuts only for the origin's paths of clauses the UE's classifiers
// allow: its flows can carry no other clause's tags. Every (station,
// clause) path is warmed, so cutting one per origin path would give each
// UE five.
func TestHandoffCutsShortcutsOnlyForAllowedClauses(t *testing.T) {
	for _, tc := range []struct {
		attr policy.Attributes
		want int
	}{
		{policy.Attributes{Provider: "A"}, 2}, // voip, default-A
		{policy.Attributes{Provider: "A", Plan: "silver", DeviceType: "m2m-fleet"}, 4},
		{policy.Attributes{Provider: "B"}, 1}, // roaming-B
	} {
		c, _ := testController(t)
		if err := c.RegisterSubscriber("imsi-cut", tc.attr); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Attach("imsi-cut", 0); err != nil {
			t.Fatal(err)
		}
		warmAll(t, c, []packet.BSID{0, 1, 2, 3})
		res, err := c.Handoff("imsi-cut", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Shortcuts) != tc.want {
			t.Errorf("%+v: handoff cut %d shortcuts, want %d", tc.attr, len(res.Shortcuts), tc.want)
		}
		allowed := make(map[packet.Tag]bool)
		for _, e := range c.Policy.Compile(tc.attr) {
			if rec := c.paths.get(pathKey{0, e.Clause}); e.Action.Allow && rec != nil {
				allowed[rec.AccessTag()] = true
			}
		}
		for _, sc := range res.Shortcuts {
			if !allowed[sc.Delivery] {
				t.Errorf("%+v: shortcut delivers tag %d, which no allowed clause's path at station 0 carries", tc.attr, sc.Delivery)
			}
		}
		mustCheck(t, c)
	}
}

// TestCheckInvariantsCatchesAForeignShortcut plants, on a handed-off UE's
// reservation, a shortcut for a clause its classifiers do not allow; the
// invariant checker must refuse it and name the clause.
func TestCheckInvariantsCatchesAForeignShortcut(t *testing.T) {
	c, _ := testController(t)
	if err := c.RegisterSubscriber("imsi-foreign", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attach("imsi-foreign", 0); err != nil {
		t.Fatal(err)
	}
	warmAll(t, c, []packet.BSID{0, 1})
	res, err := c.Handoff("imsi-foreign", 1)
	if err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c)
	roaming, ok := c.Policy.Match(policy.Attributes{Provider: "B"}, policy.AppWeb)
	if !ok {
		t.Fatal("no clause serves Provider B")
	}
	rsv := c.reservations[res.OldLocIP]
	rsv.shortcuts = append(slices.Clone(rsv.shortcuts), Shortcut{Loc: res.OldLocIP,
		Delivery: c.paths.get(pathKey{0, roaming}).AccessTag()})
	_, err = c.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("clause %d,", roaming)) {
		t.Fatalf("CheckInvariants = %v; want it to name foreign clause %d", err, roaming)
	}
}

// shortcutSig is everything a held shortcut says, copied out.
type shortcutSig struct {
	loc      packet.Addr
	route    []topo.NodeID
	branchMB topo.MBInstanceID
	pathTags []packet.Tag
	delivery packet.Tag
}

func sigOf(sc *Shortcut) shortcutSig {
	return shortcutSig{sc.Loc, slices.Clone(sc.Route), sc.BranchMB, slices.Clone(sc.PathTags), sc.Delivery}
}

func sigsOf(scs []*Shortcut) []shortcutSig {
	out := make([]shortcutSig, len(scs))
	for i, sc := range scs {
		out[i] = sigOf(sc)
	}
	return out
}

func (s shortcutSig) equal(o shortcutSig) bool {
	return s.loc == o.loc && slices.Equal(s.route, o.route) && s.branchMB == o.branchMB &&
		slices.Equal(s.pathTags, o.pathTags) && s.delivery == o.delivery
}

// twoReservations builds a fig3 controller with every allow path at
// stations 0-2 and moves one UE 0 -> 1 -> 2 without releasing, so its
// second handoff retargets two reservations. It returns both results.
func twoReservations(t *testing.T, imsi string) (*Controller, HandoffResult, HandoffResult) {
	t.Helper()
	c, _ := testController(t)
	if err := c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attach(imsi, 0); err != nil {
		t.Fatal(err)
	}
	warmAll(t, c, []packet.BSID{0, 1, 2})
	first, err := c.Handoff(imsi, 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Handoff(imsi, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c, first, second
}

// TestReservationsRetargetInAddressOrder: a UE's reservations are visited
// in ascending old-LocIP order, so a handoff that retargets several returns
// its shortcuts in one order on every controller — where ranging over the
// reservation map gave two orders over 30 runs.
func TestReservationsRetargetInAddressOrder(t *testing.T) {
	var want []shortcutSig
	for run := 0; run < 30; run++ {
		_, _, hr := twoReservations(t, "imsi-two")
		got := sigsOf(hr.Shortcuts)
		for i := 1; i < len(got); i++ {
			if got[i-1].loc > got[i].loc {
				t.Fatalf("run %d: shortcut %d serves %s after %s; want ascending old LocIPs", run, i, got[i].loc, got[i-1].loc)
			}
		}
		if run == 0 {
			if len(got) == 0 || got[0].loc == got[len(got)-1].loc {
				t.Fatalf("second handoff cut %d shortcuts over one reservation; the order needs two", len(got))
			}
			want = got
			continue
		}
		if !slices.EqualFunc(got, want, shortcutSig.equal) {
			t.Fatalf("run %d returned shortcuts %+v; run 0 returned %+v", run, got, want)
		}
	}
}

// sharesBacking reports whether two slices have an element in common.
func sharesBacking[E any](a, b []E) bool {
	for i := range a {
		for j := range b {
			if &a[i] == &b[j] {
				return true
			}
		}
	}
	return false
}

// TestHeldShortcutsAreImmutable: the shortcuts a HandoffResult hands out
// point into a slab no later retarget or release writes; the next handoff
// cuts a fresh slab and a fresh route array.
func TestHeldShortcutsAreImmutable(t *testing.T) {
	c, first, second := twoReservations(t, "imsi-held")
	if len(first.Shortcuts) == 0 {
		t.Fatal("first handoff cut no shortcuts")
	}
	held := sigsOf(first.Shortcuts)
	c.ReleaseOldLocIP(first.OldLocIP, first.Shortcuts)
	for i, sc := range first.Shortcuts {
		if got := sigOf(sc); !got.equal(held[i]) {
			t.Fatalf("held shortcut %d changed: %+v, was %+v", i, got, held[i])
		}
		for _, nsc := range second.Shortcuts {
			if sc == nsc || sharesBacking(sc.Route, nsc.Route) {
				t.Fatalf("held shortcut %d shares memory with the next handoff's shortcut over %v", i, nsc.Route)
			}
		}
	}
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHeldShortcutsRaceNoWriter is the concurrent half: readers walk a
// handoff's shortcuts while the UE keeps moving and releasing. Under -race
// any write into a handed-out slab or route array is reported.
func TestHeldShortcutsRaceNoWriter(t *testing.T) {
	c, first, prev := twoReservations(t, "imsi-race")
	held := sigsOf(first.Shortcuts)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, sc := range first.Shortcuts {
					if got := sigOf(sc); !got.equal(held[i]) {
						t.Errorf("held shortcut %d changed under a reader: %+v, was %+v", i, got, held[i])
						return
					}
				}
			}
		}()
	}
	// The UE moves round stations 2 -> 0 -> 1 -> 2; each move retargets the
	// first handoff's reservation and releases the one before it, until the
	// first's own release halfway through.
	for i := 0; i < 200; i++ {
		hr, err := c.Handoff("imsi-race", packet.BSID(i%3))
		if err != nil {
			t.Error(err)
			break
		}
		c.ReleaseOldLocIP(prev.OldLocIP, prev.Shortcuts)
		prev = hr
		if i == 100 {
			c.ReleaseOldLocIP(first.OldLocIP, first.Shortcuts)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReservationListsMatchTheMap: each UE's reservation list must hold
// exactly the reservations naming that UE, in ascending order, and no
// parked one. CheckInvariants reports a stray link, a missing link and a
// list out of order, and passes again once each is undone.
func TestReservationListsMatchTheMap(t *testing.T) {
	c, _, _ := twoReservations(t, "imsi-listed")
	if err := c.RegisterSubscriber("imsi-parked", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attach("imsi-parked", 0); err != nil {
		t.Fatal(err)
	}
	hr, err := c.Handoff("imsi-parked", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Detach("imsi-parked"); err != nil {
		t.Fatal(err)
	}
	parked := hr.OldLocIP
	if rsv := c.reservations[parked]; rsv == nil || rsv.imsi != "" {
		t.Fatalf("detach left reservation %s as %+v; want it parked", parked, rsv)
	}
	r, _, _ := c.ues.get("imsi-listed")
	head, second := r.rsv, c.reservations[r.rsv].next
	if head == 0 || second == 0 || c.reservations[second].next != 0 {
		t.Fatalf("imsi-listed lists %s, %s; want two reservations", head, second)
	}
	check := func(when, want string) {
		t.Helper()
		_, err := c.CheckInvariants()
		switch {
		case want == "" && err != nil:
			t.Fatalf("%s: %v", when, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Fatalf("%s: CheckInvariants = %v; want an error containing %q", when, err, want)
		}
	}
	check("as built", "")

	// A stray link: the parked reservation spliced into the list in order.
	link := &r.rsv
	for *link != 0 && *link < parked {
		link = &c.reservations[*link].next
	}
	c.reservations[parked].next, *link = *link, parked
	check("parked reservation on a list", "not one of its own")
	*link, c.reservations[parked].next = c.reservations[parked].next, 0
	check("stray link undone", "")

	// A missing link: the list loses its head.
	r.rsv = second
	check("head unlinked", "whose list does not hold them")
	r.rsv = head
	check("missing link undone", "")

	// Out of order: the two entries swapped.
	r.rsv, c.reservations[second].next, c.reservations[head].next = second, head, 0
	check("list out of order", "out of ascending order")
	r.rsv, c.reservations[head].next, c.reservations[second].next = head, second, 0
	check("order restored", "")
}
