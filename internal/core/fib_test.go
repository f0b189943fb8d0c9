package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/topo"
)

func pfx(a packet.Addr, l int) packet.Prefix { return packet.NewPrefix(a, l) }

func TestTrieInsertLookup(t *testing.T) {
	tr := newPrefixTrie()
	p1 := pfx(packet.AddrFrom4(10, 0, 0, 0), 16)
	p2 := pfx(packet.AddrFrom4(10, 1, 0, 0), 16)
	tr.Insert(p1, ToNode(1))
	tr.Insert(p2, ToNode(2))
	if nh, ok := tr.Lookup(p1); !ok || nh.Node != 1 {
		t.Fatalf("lookup p1 = %v %v", nh, ok)
	}
	if nh, ok := tr.Lookup(p2); !ok || nh.Node != 2 {
		t.Fatalf("lookup p2 = %v %v", nh, ok)
	}
	if _, ok := tr.Lookup(pfx(packet.AddrFrom4(10, 2, 0, 0), 16)); ok {
		t.Fatal("uninstalled prefix should miss")
	}
	if tr.count != 2 {
		t.Fatalf("count = %d", tr.count)
	}
}

func TestTrieLongestPrefixWins(t *testing.T) {
	tr := newPrefixTrie()
	tr.Insert(pfx(packet.AddrFrom4(10, 0, 0, 0), 8), ToNode(1))
	tr.Insert(pfx(packet.AddrFrom4(10, 5, 0, 0), 16), ToNode(2))
	if nh, _ := tr.Lookup(pfx(packet.AddrFrom4(10, 5, 0, 0), 20)); nh.Node != 2 {
		t.Fatalf("longest prefix should win, got %v", nh)
	}
	if nh, _ := tr.Lookup(pfx(packet.AddrFrom4(10, 6, 0, 0), 20)); nh.Node != 1 {
		t.Fatalf("fallback to /8, got %v", nh)
	}
}

func TestTrieSiblingAggregation(t *testing.T) {
	tr := newPrefixTrie()
	// 10.0.0.0/17 and 10.0.128.0/17 with the same next hop merge to /16.
	a := pfx(packet.AddrFrom4(10, 0, 0, 0), 17)
	b := pfx(packet.AddrFrom4(10, 0, 128, 0), 17)
	tr.Insert(a, ToNode(7))
	if tr.count != 1 {
		t.Fatalf("count = %d", tr.count)
	}
	if !tr.CanAggregate(b, ToNode(7)) {
		t.Fatal("sibling with same next hop should aggregate")
	}
	if tr.CanAggregate(b, ToNode(8)) {
		t.Fatal("different next hop should not aggregate")
	}
	tr.Insert(b, ToNode(7))
	if tr.count != 1 {
		t.Fatalf("after merge count = %d, want 1", tr.count)
	}
	if nh, ok := tr.Exact(pfx(packet.AddrFrom4(10, 0, 0, 0), 16)); !ok || nh.Node != 7 {
		t.Fatalf("merged /16 missing: %v %v", nh, ok)
	}
	// Both halves still resolve.
	for _, q := range []packet.Prefix{a, b} {
		if nh, ok := tr.Lookup(q); !ok || nh.Node != 7 {
			t.Fatalf("lookup %v after merge = %v %v", q, nh, ok)
		}
	}
}

func TestTrieCascadingMerge(t *testing.T) {
	tr := newPrefixTrie()
	// Four consecutive /18s with the same next hop collapse to one /16.
	base := packet.AddrFrom4(10, 0, 0, 0)
	for i := 0; i < 4; i++ {
		tr.Insert(pfx(base|packet.Addr(i)<<14, 18), ToNode(3))
	}
	if tr.count != 1 {
		t.Fatalf("count = %d, want 1", tr.count)
	}
}

// Property: aggregation never changes the forwarding function (DESIGN.md §6).
func TestTrieAggregationPreservesLookup(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		agg := newPrefixTrie()
		var flat []struct {
			p  packet.Prefix
			nh NextHop
		}
		// Insert random /20s out of a small pool so siblings collide often.
		for i := 0; i < 60; i++ {
			p := pfx(packet.Addr(rng.Intn(64))<<12, 20)
			nh := ToNode(topo.NodeID(rng.Intn(3)))
			agg.Insert(p, nh)
			flat = append(flat, struct {
				p  packet.Prefix
				nh NextHop
			}{p, nh})
		}
		// Reference: last writer wins per exact prefix, longest match.
		lookupFlat := func(q packet.Prefix) (NextHop, bool) {
			best := -1
			var bestNH NextHop
			for _, e := range flat {
				if e.p.ContainsPrefix(q) && e.p.Len >= best {
					best = e.p.Len
					bestNH = e.nh
				}
			}
			return bestNH, best >= 0
		}
		for q := 0; q < 64; q++ {
			qp := pfx(packet.Addr(q)<<12, 20)
			got, gok := agg.Lookup(qp)
			want, wok := lookupFlat(qp)
			if gok != wok || (gok && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTrieWalk(t *testing.T) {
	tr := newPrefixTrie()
	tr.Insert(pfx(packet.AddrFrom4(10, 0, 0, 0), 16), ToNode(1))
	tr.Insert(pfx(packet.AddrFrom4(192, 168, 0, 0), 24), ToNode(2))
	got := map[string]topo.NodeID{}
	tr.Walk(func(p packet.Prefix, nh NextHop) { got[p.String()] = nh.Node })
	if len(got) != 2 || got["10.0.0.0/16"] != 1 || got["192.168.0.0/24"] != 2 {
		t.Fatalf("walk = %v", got)
	}
}

func TestFIBDefaultsAndOverrides(t *testing.T) {
	f := NewFIB(0)
	p1 := pfx(packet.AddrFrom4(10, 0, 16, 0), 20)
	p2 := pfx(packet.AddrFrom4(10, 0, 32, 0), 20)
	if _, ok := f.GetNextHop(Down, anyPort, 5, p1); ok {
		t.Fatal("empty FIB should miss")
	}
	if d := f.SetDefault(Down, anyPort, 5, ToNode(1)); d != 1 {
		t.Fatalf("default delta = %d", d)
	}
	if d := f.SetDefault(Down, anyPort, 5, ToNode(1)); d != 0 {
		t.Fatalf("re-set default delta = %d", d)
	}
	if nh, ok := f.GetNextHop(Down, anyPort, 5, p1); !ok || nh.Node != 1 {
		t.Fatalf("default lookup = %v %v", nh, ok)
	}
	f.InsertPrefix(Down, anyPort, 5, p2, ToNode(2), true)
	if nh, _ := f.GetNextHop(Down, anyPort, 5, p2); nh.Node != 2 {
		t.Fatal("prefix override should win")
	}
	if nh, _ := f.GetNextHop(Down, anyPort, 5, p1); nh.Node != 1 {
		t.Fatal("other prefixes keep the default")
	}
	// Direction and tag isolation.
	if _, ok := f.GetNextHop(Up, anyPort, 5, p1); ok {
		t.Fatal("directions must be isolated")
	}
	if _, ok := f.GetNextHop(Down, anyPort, 6, p1); ok {
		t.Fatal("tags must be isolated")
	}
	if f.NumRules() != 2 {
		t.Fatalf("NumRules = %d", f.NumRules())
	}
}

func TestFIBMBContextFallback(t *testing.T) {
	f := NewFIB(0)
	p := pfx(packet.AddrFrom4(10, 0, 16, 0), 20)
	f.SetDefault(Down, anyPort, 3, ToMB(9))
	// Without an in-port rule, traffic returning from mb 9 falls through to
	// the main rule — which sends it back into the box.
	if nh, ok := f.GetNextHop(Down, fromMB(9), 3, p); !ok || nh.MB != 9 {
		t.Fatalf("fallback = %v %v", nh, ok)
	}
	f.SetDefault(Down, fromMB(9), 3, ToNode(4))
	if nh, _ := f.GetNextHop(Down, fromMB(9), 3, p); nh.Node != 4 {
		t.Fatal("in-port rule should win")
	}
	// Main context unaffected.
	if nh, _ := f.GetNextHop(Down, anyPort, 3, p); nh.MB != 9 {
		t.Fatal("main context changed")
	}
	f.InsertPrefix(Down, fromMB(9), 3, p, ToNode(5), true)
	if nh, _ := f.GetNextHop(Down, fromMB(9), 3, p); nh.Node != 5 {
		t.Fatal("in-port prefix rule should win over in-port default")
	}
	if f.NumRules() != 3 {
		t.Fatalf("NumRules = %d", f.NumRules())
	}
}

func TestFIBMobility(t *testing.T) {
	f := NewFIB(0)
	loc := packet.AddrFrom4(10, 0, 16, 10)
	if _, ok := f.LookupMobility(Down, anyPort, 3, loc); ok {
		t.Fatal("no mobility rule yet")
	}
	f.InsertMobility(Down, anyPort, 3, loc, ToNode(8))
	if nh, ok := f.LookupMobility(Down, anyPort, 3, loc); !ok || nh.Node != 8 {
		t.Fatalf("mobility lookup = %v %v", nh, ok)
	}
	if _, ok := f.LookupMobility(Down, anyPort, 3, loc+1); ok {
		t.Fatal("mobility rules are exact /32")
	}
	if _, ok := f.LookupMobility(Down, anyPort, 4, loc); ok {
		t.Fatal("mobility rules are tag-qualified")
	}
	_, _, _, mob := f.RuleBreakdown()
	if mob != 1 {
		t.Fatalf("mobility rules = %d", mob)
	}
}

func TestFIBRuleBreakdown(t *testing.T) {
	f := NewFIB(0)
	p := pfx(packet.AddrFrom4(10, 0, 16, 0), 20)
	f.SetDefault(Down, anyPort, 1, ToNode(1))
	f.InsertPrefix(Down, anyPort, 1, p, ToNode(2), true)
	f.SetDefault(Up, fromMB(3), 1, ToNode(4))
	f.InsertMobility(Up, anyPort, 9, packet.AddrFrom4(10, 0, 16, 9), ToNode(5))
	tp, to, loc, mob := f.RuleBreakdown()
	if tp != 1 || to != 2 || loc != 0 || mob != 1 {
		t.Fatalf("breakdown = %d %d %d %d", tp, to, loc, mob)
	}
	if f.NumRules() != 4 {
		t.Fatalf("NumRules = %d", f.NumRules())
	}
}

func TestFIBRecentTags(t *testing.T) {
	f := NewFIB(0)
	for tag := packet.Tag(1); tag <= 5; tag++ {
		f.SetDefault(Down, anyPort, tag, ToNode(1))
	}
	all := f.RecentTags(0)
	if len(all) != 5 {
		t.Fatalf("all tags = %v", all)
	}
	last2 := f.RecentTags(2)
	if len(last2) != 2 || last2[0] != 4 || last2[1] != 5 {
		t.Fatalf("last 2 = %v", last2)
	}
	// Duplicate introduction does not duplicate the tag list.
	f.InsertPrefix(Down, anyPort, 5, pfx(0, 20), ToNode(2), true)
	if len(f.RecentTags(0)) != 5 {
		t.Fatal("tag list should not duplicate")
	}
}

func TestNextHopHelpers(t *testing.T) {
	if ToNode(3).String() != "sw3" || ToMB(2).String() != "mb#2" {
		t.Fatal("strings")
	}
	if Down.String() != "down" || Up.String() != "up" {
		t.Fatal("direction strings")
	}
}

// nodes counts the trie's allocated nodes, root included.
func (t *prefixTrie) nodes() int {
	var rec func(n *trieNode) int
	rec = func(n *trieNode) int {
		if n == nil {
			return 0
		}
		return 1 + rec(n.child[0]) + rec(n.child[1])
	}
	return rec(t.root)
}

// TestFIBPrecedence walks the one lookup ladder (FIB.Step) over every cell of
// {any, from-MB, from-port} x {mobility, tag+prefix, tag-only, location}:
// which cell answers, what it falls through to once removed, that qualified
// contexts are invisible to every other ingress, and the band each cell
// exports in (dataplane.bandPriority turns bands into TCAM priorities).
func TestFIBPrecedence(t *testing.T) {
	const tag = packet.Tag(5)
	p := pfx(packet.AddrFrom4(10, 0, 16, 0), 20)
	loc := packet.AddrFrom4(10, 0, 16, 10)
	ingresses := []ingress{anyPort, fromMB(9), fromPort(7)}
	type cell struct {
		in   int // index into ingresses
		kind RuleBand
	}
	// Each cell forwards to its own neighbor so the answer names the cell.
	hop := func(c cell) NextHop { return ToNode(topo.NodeID(100 + 10*c.in + int(c.kind))) }
	install := func(f *FIB, c cell) {
		in := ingresses[c.in]
		switch c.kind {
		case BandTagPrefix:
			f.InsertPrefix(Down, in, tag, p, hop(c), true)
		case BandTagOnly:
			f.SetDefault(Down, in, tag, hop(c))
		case BandLocation:
			f.InsertLocation(Down, in, p, hop(c))
		case BandMobility:
			f.InsertMobility(Down, in, tag, loc, hop(c))
		}
	}
	ladder := []RuleBand{BandTagPrefix, BandTagOnly, BandLocation}

	for i, in := range ingresses {
		// The rungs a packet arriving through 'in' may be answered by, best
		// first: the overrides of its own context and of the unqualified
		// one, then the rules of its own context, then the unqualified ones.
		rungs := []cell{{i, BandMobility}}
		if in != anyPort {
			rungs = append(rungs, cell{0, BandMobility})
		}
		for _, k := range ladder {
			rungs = append(rungs, cell{i, k})
		}
		if in != anyPort {
			for _, k := range ladder {
				rungs = append(rungs, cell{0, k})
			}
		}
		// Peel the rungs off one at a time; the other qualified contexts
		// stay fully populated throughout and must never answer.
		for skip := 0; skip <= len(rungs); skip++ {
			f := NewFIB(0)
			for j := range ingresses {
				if j != i && j != 0 {
					install(f, cell{j, BandMobility})
					for _, k := range ladder {
						install(f, cell{j, k})
					}
				}
			}
			for _, c := range rungs[skip:] {
				install(f, c)
			}
			nh, ok := f.Step(Down, in, tag, loc)
			if skip == len(rungs) {
				if ok {
					t.Errorf("ingress %v, nothing of its own or unqualified installed: got %v, want a miss", in, nh)
				}
				continue
			}
			if want := hop(rungs[skip]); !ok || nh != want {
				t.Errorf("ingress %v, top rung %+v: got %v %v, want %v", in, rungs[skip], nh, ok, want)
			}
			// Algorithm 1 reads the same tables for a prefix, below the
			// overrides.
			if rungs[skip].kind != BandMobility {
				if got, ok := f.GetNextHop(Down, in, tag, p); !ok || got != nh {
					t.Errorf("ingress %v, top rung %+v: GetNextHop %v %v, Step %v", in, rungs[skip], got, ok, nh)
				}
			}
			// The other direction sees none of it; another tag sees only
			// the tag-independent location rungs.
			if nh, ok := f.Step(Up, in, tag, loc); ok {
				t.Errorf("ingress %v: upstream lookup answered %v", in, nh)
			}
			wantOther, wantOK := NextHop{}, false
			for _, c := range rungs[skip:] {
				if c.kind == BandLocation {
					wantOther, wantOK = hop(c), true
					break
				}
			}
			if nh, ok := f.Step(Down, in, tag+1, loc); ok != wantOK || (ok && nh != wantOther) {
				t.Errorf("ingress %v, top rung %+v, other tag: got %v %v, want %v %v", in, rungs[skip], nh, ok, wantOther, wantOK)
			}
		}
	}

	// Mobility overrides are exact on ingress and outside GetNextHop.
	for i, in := range ingresses {
		f := NewFIB(0)
		install(f, cell{i, BandMobility})
		if _, ok := f.GetNextHop(Down, in, tag, pfx(loc, 32)); ok {
			t.Errorf("ingress %v: GetNextHop consulted the mobility table", in)
		}
		for j, other := range ingresses {
			nh, ok := f.LookupMobility(Down, other, tag, loc)
			if ok != (i == j) || (ok && nh != hop(cell{i, BandMobility})) {
				t.Errorf("override installed at %v, looked up through %v: %v %v", in, other, nh, ok)
			}
		}
		if !f.RemoveMobility(Down, in, tag, loc) || f.RemoveMobility(Down, in, tag, loc) {
			t.Errorf("ingress %v: RemoveMobility must succeed exactly once", in)
		}
		if len(f.mob) != 0 || f.NumRules() != 0 {
			t.Errorf("ingress %v: removal left %d tries, %d rules", in, len(f.mob), f.NumRules())
		}
	}

	// Every cell at once: counts and export bands.
	f := NewFIB(0)
	wantBand := map[cell]RuleBand{
		{0, BandTagPrefix}: BandTagPrefix, {0, BandTagOnly}: BandTagOnly, {0, BandLocation}: BandLocation,
		{1, BandTagPrefix}: BandMBTag, {1, BandTagOnly}: BandMBTag, {1, BandLocation}: BandMBLoc,
		{2, BandTagPrefix}: BandPort, {2, BandTagOnly}: BandPort, {2, BandLocation}: BandPort,
		{0, BandMobility}: BandMobility, {1, BandMobility}: BandMobility, {2, BandMobility}: BandMobility,
	}
	byHop := map[NextHop]cell{}
	for c := range wantBand {
		install(f, c)
		byHop[hop(c)] = c
	}
	if tp, to, lc, mob := f.RuleBreakdown(); tp != 3 || to != 3 || lc != 3 || mob != 3 || f.NumRules() != 12 {
		t.Fatalf("breakdown = %d %d %d %d, NumRules = %d", tp, to, lc, mob, f.NumRules())
	}
	seen := 0
	f.Export(func(r ExportedRule) {
		seen++
		c, known := byHop[r.NH]
		if !known {
			t.Fatalf("exported an unknown rule %+v", r)
		}
		in := ingresses[c.in]
		wantTag, wantPfx := tag, p
		switch c.kind {
		case BandLocation:
			wantTag = 0
		case BandTagOnly:
			wantPfx = packet.Prefix{}
		case BandMobility:
			wantPfx = pfx(loc, 32)
		}
		if r.Band != wantBand[c] || r.FromMB != in.mb || r.From != in.node ||
			r.Dir != Down || r.Tag != wantTag || r.Prefix != wantPfx {
			t.Errorf("cell %+v exported as %+v, want band %d", c, r, wantBand[c])
		}
	})
	if seen != 12 {
		t.Fatalf("exported %d rules, want 12", seen)
	}
}

// exportBag renders what Export visits as a sorted list.
func exportBag(f *FIB) []string {
	var bag []string
	f.Export(func(r ExportedRule) { bag = append(bag, fmt.Sprintf("%+v", r)) })
	sort.Strings(bag)
	return bag
}

// TestFIBVersionTracksExport: over random mutator calls the version moves
// exactly when the exported rule set does — the data plane skips a switch
// on an unmoved version, so a missed bump would leave a stale TCAM and a
// spurious one would rebuild a clean switch.
func TestFIBVersionTracksExport(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := NewFIB(0)
	ins := []ingress{anyPort, fromMB(2), fromPort(5)}
	nhs := []NextHop{ToNode(1), ToNode(2), ToMB(2), {Node: 3, MB: NoMB, NewTag: 9}}
	prefix := func() packet.Prefix { return pfx(packet.Addr(rng.Intn(8))<<12, 20) }
	bumps := 0
	for i := 0; i < 1500; i++ {
		dir := Direction(rng.Intn(2))
		in := ins[rng.Intn(len(ins))]
		tag := packet.Tag(1 + rng.Intn(3))
		nh := nhs[rng.Intn(len(nhs))]
		loc := packet.Addr(rng.Intn(4))
		before, v := exportBag(f), f.Version()
		var op string
		switch rng.Intn(7) {
		case 0:
			op = "state(create)"
			f.state(dir, in, tag, true)
		case 1:
			op = "SetDefault"
			f.SetDefault(dir, in, tag, nh)
		case 2:
			op = "InsertPrefix"
			f.InsertPrefix(dir, in, tag, prefix(), nh, true)
		case 3:
			op = "InsertPrefix(no merge)"
			f.InsertPrefix(dir, in, tag, prefix(), nh, false)
		case 4:
			op = "InsertLocation"
			f.InsertLocation(dir, in, prefix(), nh)
		case 5:
			op = "InsertMobility"
			f.InsertMobility(dir, in, tag, loc, nh)
		case 6:
			op = "RemoveMobility"
			f.RemoveMobility(dir, in, tag, loc)
		}
		changed := !reflect.DeepEqual(before, exportBag(f))
		if moved := f.Version() != v; moved != changed {
			t.Fatalf("op %d %s: export changed=%v, version %d -> %d", i, op, changed, v, f.Version())
		}
		if f.Version() < v {
			t.Fatalf("op %d %s: version went back %d -> %d", i, op, v, f.Version())
		}
		if changed {
			bumps++
		}
	}
	if bumps == 0 || bumps == 1500 {
		t.Fatalf("%d of 1500 ops changed the table; the pools need both outcomes", bumps)
	}
}

// TestFIBChangesReplayExport: over random mutator calls, whenever
// ChangesSince(v) lists changes, replaying them on what Export visited at v
// gives what it visits now; a mobility insert or remove is always listed,
// a replacement as a remove and an add at one version; any other version
// move, and changes dropped at the bound, make older versions unlisted.
func TestFIBChangesReplayExport(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := NewFIB(0)
	if _, ok := f.ChangesSince(f.Version()); ok {
		t.Fatal("the first ChangesSince listed changes it had not been recording")
	}
	ins := []ingress{anyPort, fromMB(2), fromPort(5)}
	nhs := []NextHop{ToNode(1), ToNode(2), {Node: 3, MB: NoMB, NewTag: 9}}
	exports := map[uint64][]string{f.Version(): exportBag(f)}
	replaced, deep := 0, 0
	for i := 0; i < 1000; i++ {
		in := ins[rng.Intn(len(ins))]
		tag := packet.Tag(1 + rng.Intn(3))
		loc := packet.Addr(rng.Intn(12))
		nh := nhs[rng.Intn(len(nhs))]
		v := f.Version()
		mobility := true
		switch r := rng.Intn(40); {
		case r == 0:
			mobility = false
			f.SetDefault(Down, in, tag, nh)
		case r < 22:
			if old, had := f.LookupMobility(Down, in, tag, loc); had && old != nh {
				replaced++
			}
			f.InsertMobility(Down, in, tag, loc, nh)
		default:
			f.RemoveMobility(Down, in, tag, loc)
		}
		if f.Version() == v {
			continue
		}
		now := exportBag(f)
		exports[f.Version()] = now
		if _, ok := f.ChangesSince(v); ok != mobility {
			t.Fatalf("op %d: the version move from %d is listed=%v; it was a mobility change=%v", i, v, ok, mobility)
		}
		for since, then := range exports {
			changes, ok := f.ChangesSince(since)
			if !ok {
				continue
			}
			if f.Version()-since > MaxFIBChanges/4 {
				deep++
			}
			bag := map[string]int{}
			for _, r := range then {
				bag[r]++
			}
			for _, c := range changes {
				r := fmt.Sprintf("%+v", c.Rule)
				if c.Version <= since || c.Version > f.Version() {
					t.Fatalf("op %d: a change since %d is listed at version %d (now %d)", i, since, c.Version, f.Version())
				}
				if c.Removed != (bag[r] == 1) {
					t.Fatalf("op %d: since %d, removed=%v of %s, which was present %d times", i, since, c.Removed, r, bag[r])
				}
				if c.Removed {
					delete(bag, r)
				} else {
					bag[r] = 1
				}
			}
			var replay []string
			for r := range bag {
				replay = append(replay, r)
			}
			sort.Strings(replay)
			if !reflect.DeepEqual(replay, now) {
				t.Fatalf("op %d: the changes since %d replay to\n%v\nExport visits\n%v", i, since, replay, now)
			}
		}
		for since := range exports {
			if since+MaxFIBChanges < f.Version() {
				delete(exports, since) // past the bound: never listed again
			}
		}
	}
	if replaced == 0 || deep == 0 {
		t.Fatalf("%d replacements and %d replays of more than %d versions; the schedule needs both", replaced, deep, MaxFIBChanges/4)
	}

	next := NewFIB(0)
	next.succeed(f)
	if _, ok := next.ChangesSince(next.Version()); !ok {
		t.Fatal("a successor of a recorded FIB does not record")
	}
	if _, ok := next.ChangesSince(f.Version()); ok {
		t.Fatal("a successor listed the changes from its predecessor's table")
	}
}

// TestMobKeyRoundTrip: a packed mobility key gives back the context and
// LocIP it was packed from, for every ingress kind and both directions, and
// a tag or ingress ID too wide for its field does not pack.
func TestMobKeyRoundTrip(t *testing.T) {
	prop := func(down bool, kind uint8, id uint32, tag uint16, loc uint32) bool {
		dir := Up
		if down {
			dir = Down
		}
		in := anyPort
		switch kind % 3 {
		case 1:
			in = fromMB(topo.MBInstanceID(id % (1 << mobIDBits)))
		case 2:
			in = fromPort(topo.NodeID(id % (1 << mobIDBits)))
		}
		tg := packet.Tag(tag % (1 << mobTagBits))
		k, ok := packMob(dir, in, tg, packet.Addr(loc))
		return ok && k.ctx() == (ctxKey{in, tg, dir}) && packet.Addr(k) == packet.Addr(loc)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		in  ingress
		tag packet.Tag
	}{
		{anyPort, 1 << mobTagBits},
		{fromMB(1 << mobIDBits), 1},
		{fromPort(1 << mobIDBits), 1},
	} {
		if _, ok := packMob(Down, c.in, c.tag, 7); ok {
			t.Fatalf("ingress %+v, tag %d packed past its field", c.in, c.tag)
		}
	}
}

// TestShortcutThatDoesNotFitIsRefused: a shortcut whose tag or route does
// not fit a mobility key is refused before any rule goes in, so a partial
// shortcut never steers old flows.
func TestShortcutThatDoesNotFitIsRefused(t *testing.T) {
	c, _ := testController(t)
	in := c.Installer
	route := []topo.NodeID{0, 1, 2}
	versions := func() []uint64 {
		var out []uint64
		for _, n := range route {
			out = append(out, in.FIB(n).Version())
		}
		return out
	}
	before, rules := versions(), in.Stats().Rules
	for _, sc := range []Shortcut{
		{Loc: packet.AddrFrom4(10, 0, 0, 9), Route: route, BranchMB: NoMB, PathTags: []packet.Tag{3, 1 << mobTagBits}, Delivery: 3},
		{Loc: packet.AddrFrom4(10, 0, 0, 9), Route: route, BranchMB: NoMB, PathTags: []packet.Tag{3}, Delivery: 1 << mobTagBits},
	} {
		if n, err := in.InstallShortcut(&sc); err == nil || n != 0 {
			t.Fatalf("shortcut %+v installed %d rules, err %v; want a refusal", sc, n, err)
		}
	}
	if got := versions(); !reflect.DeepEqual(got, before) || in.Stats().Rules != rules {
		t.Fatalf("a refused shortcut moved FIB versions %v -> %v or rules %d -> %d", before, got, rules, in.Stats().Rules)
	}
}
