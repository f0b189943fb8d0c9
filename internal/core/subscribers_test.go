package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/store"
)

// These tests pin the subscriber record as the one place that says where a
// UE's location record lives: its holder and the slot in the holder's UE
// table.

// attachUntilFull attaches fresh subscribers at bs until the station runs
// out of UE IDs and returns how many attached and the first one's UE ID.
func attachUntilFull(t *testing.T, c *Controller, bs packet.BSID) (n int, first packet.UEID) {
	t.Helper()
	for ; ; n++ {
		imsi := fmt.Sprintf("fill-%d-%d", bs, n)
		if err := c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
		ue, _, err := c.Attach(imsi, bs)
		if err != nil {
			return n, first
		}
		if n == 0 {
			first = ue.UEID
		}
	}
}

// TestRecoveryFreesUnreportedUEIDs: three UEs hold IDs 1-3 at a station and
// the agents report only 1 and 3. Rebuilding from that report, by
// RecoverLocations or by a neighbour's AbsorbStation, must leave ID 2 free
// — the import raises the station's mark to 3, and an ID below the mark that
// is on no free list is never allocated again.
func TestRecoveryFreesUnreportedUEIDs(t *testing.T) {
	attachThree := func(c *Controller, bs packet.BSID) []UE {
		var ues []UE
		for i := 0; i < 3; i++ {
			imsi := fmt.Sprintf("ue-%d", i)
			if err := c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
				t.Fatal(err)
			}
			ue, _, err := c.Attach(imsi, bs)
			if err != nil {
				t.Fatal(err)
			}
			if ue.UEID != packet.UEID(i+1) {
				t.Fatalf("%s attached with UE ID %d, want %d", imsi, ue.UEID, i+1)
			}
			ues = append(ues, ue)
		}
		return ues
	}
	check := func(name string, c *Controller, bs packet.BSID) {
		t.Helper()
		if _, err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, first := attachUntilFull(t, c, bs)
		if want := int(c.Plan().MaxUE()) - 2; n != want || first != 2 {
			t.Fatalf("%s: %d attaches before the station ran out, the first with UE ID %d; want %d, the first with 2", name, n, first, want)
		}
		if _, err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s after refill: %v", name, err)
		}
	}

	c, _ := testController(t)
	ues := attachThree(c, 0)
	if err := c.RecoverLocations([]AgentLocationReport{{BS: 0, UEs: []UE{ues[2], ues[0]}}}); err != nil {
		t.Fatal(err)
	}
	check("RecoverLocations", c, 0)

	subs := NewSubscribers(store.New(1), packet.Prefix{})
	a := shardedController(t, subs, []packet.BSID{0, 1}, 0, 2)
	b := shardedController(t, subs, []packet.BSID{2, 3}, 1, 2)
	ues = attachThree(a, 1)
	if err := b.AbsorbStation(1, []UE{ues[2], ues[0]}); err != nil {
		t.Fatal(err)
	}
	subs.ReleaseAll(a.Instance())
	check("AbsorbStation", b, 1)
}

// refusedUnchanged runs an import that must be refused and checks that it
// left the controller as it found it.
func refusedUnchanged(t *testing.T, name string, c *Controller, imp func() error) {
	t.Helper()
	ues, stations, mem := c.UEs(), c.Stations(), c.MemStats()
	if err := imp(); err == nil {
		t.Fatalf("%s: accepted", name)
	}
	if got := c.UEs(); !slices.Equal(got, ues) {
		t.Fatalf("%s: refused, but the UEs are now %+v, were %+v", name, got, ues)
	}
	if got := c.Stations(); !slices.Equal(got, stations) {
		t.Fatalf("%s: refused, but the owned stations are now %v, were %v", name, got, stations)
	}
	if got := c.MemStats(); got != mem {
		t.Fatalf("%s: refused, but the tables are now %+v, were %+v", name, got, mem)
	}
	if _, err := c.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// importFixture attaches "u" at station 1 and "v" at station 0 of a
// controller restricted to stations 0 and 1, and gives a second controller
// over the same subscriber table, owning stations 2 and 3, for absorbs.
func importFixture(t *testing.T) (a, b *Controller, u, v UE) {
	subs := NewSubscribers(store.New(1), packet.Prefix{})
	a = shardedController(t, subs, []packet.BSID{0, 1}, 0, 2)
	b = shardedController(t, subs, []packet.BSID{2, 3}, 1, 2)
	for _, imsi := range []string{"u", "v"} {
		if err := a.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if u, _, err = a.Attach("u", 1); err != nil {
		t.Fatal(err)
	}
	if v, _, err = a.Attach("v", 0); err != nil {
		t.Fatal(err)
	}
	return a, b, u, v
}

// TestRecoveryRefusesAnIMSIReportedTwice: reports naming one IMSI at two
// stations cannot both be filed; the import must refuse them before it
// changes anything, instead of leaving the first LocIP resolving to a UE
// that has moved on and its UE ID never freed.
func TestRecoveryRefusesAnIMSIReportedTwice(t *testing.T) {
	a, b, u, v := importFixture(t)
	twin := u
	twin.BS, twin.UEID = 0, 2
	twin.LocIP, _ = a.Plan().LocIP(0, 2)
	refusedUnchanged(t, "RecoverLocations", a, func() error {
		return a.RecoverLocations([]AgentLocationReport{{BS: 0, UEs: []UE{v, twin}}, {BS: 1, UEs: []UE{u}}})
	})
	twin.BS, twin.UEID = 1, 2
	twin.LocIP, _ = a.Plan().LocIP(1, 2)
	refusedUnchanged(t, "AbsorbStation", b, func() error { return b.AbsorbStation(1, []UE{u, twin}) })
}

// TestRecoveryRefusesAForeignPermanentAddress: a reported UE whose permanent
// address the subscriber table binds to another IMSI, or two reported UEs
// with one permanent address, cannot be filed; the import must refuse them
// before it discards the location state, not fail halfway through binding.
func TestRecoveryRefusesAForeignPermanentAddress(t *testing.T) {
	a, b, u, v := importFixture(t)
	stolen := u
	stolen.PermIP = v.PermIP
	refusedUnchanged(t, "bound elsewhere (RecoverLocations)", a, func() error {
		return a.RecoverLocations([]AgentLocationReport{{BS: 1, UEs: []UE{stolen}}})
	})
	refusedUnchanged(t, "bound elsewhere (AbsorbStation)", b, func() error { return b.AbsorbStation(1, []UE{stolen}) })

	shared := packet.AddrFrom4(100, 64, 0, 200) // bound to nobody yet
	twins := make([]UE, 2)
	for i, imsi := range []string{"w", "x"} {
		id := packet.UEID(i + 2)
		loc, err := a.Plan().LocIP(1, id)
		if err != nil {
			t.Fatal(err)
		}
		twins[i] = UE{IMSI: imsi, PermIP: shared, BS: 1, UEID: id, LocIP: loc}
	}
	refusedUnchanged(t, "reported twice (RecoverLocations)", a, func() error {
		return a.RecoverLocations([]AgentLocationReport{{BS: 0, UEs: []UE{v}}, {BS: 1, UEs: append([]UE{u}, twins...)}})
	})
	refusedUnchanged(t, "reported twice (AbsorbStation)", b, func() error { return b.AbsorbStation(1, twins) })
	if got := len(a.UEs()); got != 2 {
		t.Fatalf("%d UEs after the refusals, want 2", got)
	}
}

// TestRecoveryRefusesAMisnumberedUE: a reported UE whose LocIP is not the
// one its station and UE ID make, or whose UE ID is outside 1..MaxUE, is
// refused before anything changes — the station table is indexed by the
// UE ID.
func TestRecoveryRefusesAMisnumberedUE(t *testing.T) {
	a, b, u, v := importFixture(t)
	prefix, err := a.Plan().BSPrefix(1)
	if err != nil {
		t.Fatal(err)
	}
	past := a.Plan().MaxUE() + 1
	for _, bad := range []struct {
		name string
		ue   func(UE) UE
	}{
		{"UE ID 7 at UE ID 1's LocIP", func(u UE) UE { u.UEID = 7; return u }},
		{"zero UE ID", func(u UE) UE { u.UEID = 0; return u }},
		{"zero LocIP", func(u UE) UE { u.LocIP = 0; return u }},
		{"UE ID past MaxUE", func(u UE) UE { u.UEID, u.LocIP = past, prefix.Addr+packet.Addr(past); return u }},
	} {
		refusedUnchanged(t, bad.name+" (RecoverLocations)", a, func() error {
			return a.RecoverLocations([]AgentLocationReport{{BS: 0, UEs: []UE{v}}, {BS: 1, UEs: []UE{bad.ue(u)}}})
		})
		refusedUnchanged(t, bad.name+" (AbsorbStation)", b, func() error { return b.AbsorbStation(1, []UE{bad.ue(u)}) })
	}
}

// TestStaleSlotNeverResolves: a UE held by instance A at slot 1 is released
// with all of A's records, then imported by B, whose own slot 1 holds
// another UE. B must resolve the UE to the record it built for it: the
// subscriber record's slot changes with its holder.
func TestStaleSlotNeverResolves(t *testing.T) {
	for _, via := range []string{"AdoptUE", "RecoverLocations"} {
		t.Run(via, func(t *testing.T) {
			subs := NewSubscribers(store.New(1), packet.Prefix{})
			a := shardedController(t, subs, []packet.BSID{0, 1}, 0, 2)
			b := shardedController(t, subs, []packet.BSID{2, 3}, 1, 2)
			attach := func(c *Controller, imsi string, bs packet.BSID) UE {
				t.Helper()
				if err := c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
					t.Fatal(err)
				}
				ue, _, err := c.Attach(imsi, bs)
				if err != nil {
					t.Fatal(err)
				}
				return ue
			}
			attach(a, "a0", 0)
			moved := attach(a, "moved", 0) // slot 1 at A
			var bs []UE
			for i := 0; i < 3; i++ {
				bs = append(bs, attach(b, fmt.Sprintf("b%d", i), 2)) // slots 0-2 at B
			}
			if _, slot := subs.locate("moved"); slot != 1 {
				t.Fatalf("precondition: A holds the UE at slot %d, want 1", slot)
			}
			subs.ReleaseAll(a.Instance())

			switch via {
			case "AdoptUE":
				m := MigratedUE{IMSI: moved.IMSI, Attr: moved.Attr, PermIP: moved.PermIP}
				if _, _, err := b.AdoptUE(m, 3); err != nil {
					t.Fatal(err)
				}
			case "RecoverLocations":
				// B restarts; its agents report its three UEs and the moved
				// one, now at station 3. Its freed slots are refilled 2, 1,
				// 0, so the moved UE lands at slot 3.
				loc, err := b.Plan().LocIP(3, 7)
				if err != nil {
					t.Fatal(err)
				}
				moved.BS, moved.UEID, moved.LocIP = 3, 7, loc
				reports := []AgentLocationReport{{BS: 2, UEs: bs}, {BS: 3, UEs: []UE{moved}}}
				if err := b.RecoverLocations(reports); err != nil {
					t.Fatal(err)
				}
			}
			got, ok := b.LookupUE("moved")
			if !ok || got.IMSI != "moved" || got.PermIP != moved.PermIP || got.BS != 3 {
				t.Fatalf("B resolves the imported UE to %+v, %v", got, ok)
			}
			if _, ok := a.LookupUE("moved"); ok {
				t.Fatal("A still resolves a UE it no longer holds")
			}
			for _, want := range bs {
				if got, ok := b.LookupUE(want.IMSI); !ok || got.IMSI != want.IMSI || got.LocIP != want.LocIP {
					t.Fatalf("B resolves %q to %+v, %v", want.IMSI, got, ok)
				}
			}
			if _, err := b.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickTwoHoldersAgree drives two controllers sharing one subscriber
// table through random attach, handoff, detach, migration (ExtractUE then
// AdoptUE), and restart (ReleaseAll then RecoverLocations from a random
// subset of the restarted controller's UEs). After every operation both
// controllers' invariants hold and each UE resolves on exactly the
// controller the table names its holder.
func TestQuickTwoHoldersAgree(t *testing.T) {
	done := map[string]int{}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		subs := NewSubscribers(store.New(0), packet.Prefix{})
		ctrls := []*Controller{
			shardedController(t, subs, []packet.BSID{0, 1}, 0, 2),
			shardedController(t, subs, []packet.BSID{2, 3}, 1, 2),
		}
		owner := func(bs packet.BSID) *Controller { return ctrls[bs/2] }
		holder := func(imsi string) *Controller {
			for _, c := range ctrls {
				if subs.Holder(imsi) == c.Instance() {
					return c
				}
			}
			return nil
		}
		universe := make([]string, 24)
		for i := range universe {
			universe[i] = fmt.Sprintf("imsi-%02d", i)
			if err := subs.Register(universe[i], policy.Attributes{Provider: "A", Plan: []string{"gold", "silver"}[i%2]}); err != nil {
				t.Fatal(err)
			}
		}
		for op := 0; op < 200; op++ {
			imsi := universe[rng.Intn(len(universe))]
			bs := packet.BSID(rng.Intn(4))
			h := holder(imsi)
			var what string
			var err error
			switch k := rng.Intn(20); {
			case k < 6 && (h == nil || h == owner(bs)):
				what = "attach"
				_, _, err = owner(bs).Attach(imsi, bs)
			case k < 11 && h == owner(bs):
				what = "handoff"
				if ue, _ := h.LookupUE(imsi); ue.BS != bs {
					var res HandoffResult
					if res, err = h.Handoff(imsi, bs); err == nil && rng.Intn(2) == 0 {
						h.ReleaseOldLocIP(res.OldLocIP, res.Shortcuts)
					}
				}
			case k < 13 && h != nil:
				what = "detach"
				err = h.Detach(imsi)
			case k < 18 && h != nil && h != owner(bs):
				what = "migrate"
				var m MigratedUE
				if m, err = h.ExtractUE(imsi); err == nil {
					_, _, err = owner(bs).AdoptUE(m, bs)
				}
			case k == 19:
				what = "restart"
				c := ctrls[rng.Intn(2)]
				byBS := map[packet.BSID]*AgentLocationReport{}
				for _, ue := range c.UEs() {
					if rng.Intn(3) == 0 {
						continue // this UE's agent does not answer
					}
					if byBS[ue.BS] == nil {
						byBS[ue.BS] = &AgentLocationReport{BS: ue.BS}
					}
					byBS[ue.BS].UEs = append(byBS[ue.BS].UEs, ue)
				}
				var reports []AgentLocationReport
				for _, r := range byBS {
					rng.Shuffle(len(r.UEs), func(i, j int) { r.UEs[i], r.UEs[j] = r.UEs[j], r.UEs[i] })
					reports = append(reports, *r)
				}
				sort.Slice(reports, func(i, j int) bool { return reports[i].BS < reports[j].BS })
				subs.ReleaseAll(c.Instance())
				err = c.RecoverLocations(reports)
			default:
				continue
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %s %q at %d: %v", seed, op, what, imsi, bs, err)
			}
			done[what]++
			for i, c := range ctrls {
				if _, err := c.CheckInvariants(); err != nil {
					t.Fatalf("seed %d op %d (%s %q): controller %d: %v", seed, op, what, imsi, i, err)
				}
			}
			for _, u := range universe {
				h := subs.Holder(u)
				for i, c := range ctrls {
					ue, ok := c.LookupUE(u)
					if ok != (h == c.Instance()) || (ok && ue.IMSI != u) {
						t.Fatalf("seed %d op %d (%s %q): controller %d resolves %q to %+v, %v; the table names holder %d",
							seed, op, what, imsi, i, u, ue, ok, h)
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(44))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("operations applied: %v", done)
	for _, what := range []string{"attach", "handoff", "detach", "migrate", "restart"} {
		if done[what] == 0 {
			t.Errorf("no %s was applied", what)
		}
	}
}
