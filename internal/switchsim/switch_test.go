package switchsim

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/dirty"
	"repro/internal/packet"
)

func pkt(src, dst packet.Addr, sp, dp uint16) *packet.Packet {
	return &packet.Packet{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: packet.ProtoTCP, TTL: 64}
}

func TestMatchAllCoversEverything(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, inPort uint8) bool {
		p := pkt(packet.Addr(src), packet.Addr(dst), sp, dp)
		return matchAll.Covers(p, int(inPort))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroMatchBehavesAsMatchAll(t *testing.T) {
	var m Match
	m.InPort = AnyPort
	p := pkt(1, 2, 3, 4)
	if !m.Covers(p, 7) {
		t.Fatal("zero match (ports unset) should normalise to match-all")
	}
}

func TestMatchFields(t *testing.T) {
	m := Match{
		InPort:    2,
		Src:       packet.NewPrefix(packet.AddrFrom4(10, 0, 0, 0), 8),
		Dst:       packet.NewPrefix(packet.AddrFrom4(8, 8, 0, 0), 16),
		SrcPortLo: 100, SrcPortHi: 200,
		DstPortLo: 443, DstPortHi: 443,
		Proto: packet.ProtoTCP,
	}
	good := pkt(packet.AddrFrom4(10, 1, 1, 1), packet.AddrFrom4(8, 8, 8, 8), 150, 443)
	if !m.Covers(good, 2) {
		t.Fatal("should match")
	}
	cases := []struct {
		name string
		mut  func(p *packet.Packet) int
	}{
		{"wrong port", func(p *packet.Packet) int { return 3 }},
		{"src outside", func(p *packet.Packet) int { p.Src = packet.AddrFrom4(11, 0, 0, 1); return 2 }},
		{"dst outside", func(p *packet.Packet) int { p.Dst = packet.AddrFrom4(8, 9, 0, 1); return 2 }},
		{"sport low", func(p *packet.Packet) int { p.SrcPort = 99; return 2 }},
		{"sport high", func(p *packet.Packet) int { p.SrcPort = 201; return 2 }},
		{"dport", func(p *packet.Packet) int { p.DstPort = 80; return 2 }},
		{"proto", func(p *packet.Packet) int { p.Proto = packet.ProtoUDP; return 2 }},
	}
	for _, tc := range cases {
		p := pkt(packet.AddrFrom4(10, 1, 1, 1), packet.AddrFrom4(8, 8, 8, 8), 150, 443)
		in := tc.mut(p)
		if m.Covers(p, in) {
			t.Errorf("%s: should not match", tc.name)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	s := NewSwitch("s")
	s.Install(PrioPrefix, Match{InPort: AnyPort, Dst: packet.NewPrefix(packet.AddrFrom4(10, 0, 0, 0), 8)}, Action{Output: 1})
	s.Install(PrioTagPrefix, Match{InPort: AnyPort, Dst: packet.NewPrefix(packet.AddrFrom4(10, 1, 0, 0), 16)}, Action{Output: 2})
	p := pkt(1, packet.AddrFrom4(10, 1, 2, 3), 5, 6)
	v := s.Process(p, 0)
	if v.Output != 2 {
		t.Fatalf("high-priority rule should win, got port %d", v.Output)
	}
	p2 := pkt(1, packet.AddrFrom4(10, 9, 2, 3), 5, 6)
	if v := s.Process(p2, 0); v.Output != 1 {
		t.Fatalf("fallback to low priority, got %d", v.Output)
	}
}

func TestTableMissDefaultDrop(t *testing.T) {
	s := NewSwitch("s")
	v := s.Process(pkt(1, 2, 3, 4), 0)
	if !v.Drop || v.Rule != nil {
		t.Fatalf("miss should drop: %+v", v)
	}
	if s.Misses != 1 {
		t.Fatalf("Misses = %d", s.Misses)
	}
}

func TestTableMissPunt(t *testing.T) {
	s := NewSwitch("as")
	s.TableMiss = Punt()
	v := s.Process(pkt(1, 2, 3, 4), 0)
	if !v.ToController || v.Drop {
		t.Fatalf("miss should punt: %+v", v)
	}
}

func TestRewriteActions(t *testing.T) {
	s := NewSwitch("as")
	newSrc := packet.AddrFrom4(10, 0, 16, 10)
	newSport := uint16(0x1234)
	s.Install(PrioMobility, matchAll, Action{Output: 3, Set: SetSrc | SetSrcPort, Src: newSrc, SrcPort: newSport})
	p := pkt(packet.AddrFrom4(192, 168, 0, 5), 2, 555, 80)
	v := s.Process(p, 0)
	if v.Output != 3 {
		t.Fatalf("output = %d", v.Output)
	}
	if p.Src != newSrc || p.SrcPort != newSport {
		t.Fatalf("rewrite not applied: %s", p.Flow())
	}
}

func TestMicroflowBeatsTCAM(t *testing.T) {
	s := NewSwitch("as")
	s.Install(PrioTagPrefix, matchAll, Action{Output: 1})
	key := pkt(5, 6, 7, 8).Flow()
	s.InstallMicroflow(key, Action{Output: 9}, Cookie{})
	if v := s.Process(pkt(5, 6, 7, 8), 0); v.Output != 9 {
		t.Fatalf("microflow should win: %+v", v)
	}
	if v := s.Process(pkt(5, 6, 7, 9), 0); v.Output != 1 {
		t.Fatalf("other flows hit TCAM: %+v", v)
	}
	if s.NumMicroflows() != 1 {
		t.Fatalf("NumMicroflows = %d", s.NumMicroflows())
	}
	if !s.RemoveMicroflow(key) {
		t.Fatal("remove should succeed")
	}
	if s.RemoveMicroflow(key) {
		t.Fatal("second remove should fail")
	}
}

// TestMicroflowHitNamesItsFlow checks that a microflow hit's verdict names
// the live entry and accounts to its counters, that a resubmitting entry
// hands the verdict to the TCAM rule it reaches, and that a hit allocates
// nothing.
func TestMicroflowHitNamesItsFlow(t *testing.T) {
	s := NewSwitch("as")
	tcam := s.Install(PrioTagPrefix, matchAll, Action{Output: 1})
	direct, resub := pkt(5, 6, 7, 8).Flow(), pkt(5, 6, 7, 9).Flow()
	s.InstallMicroflow(direct, Action{Output: 9}, Cookie{Owner: 5, Clause: 2})
	s.InstallMicroflow(resub, Action{Output: -1, Resubmit: true, Set: SetDSCP, DSCP: 46}, Cookie{Owner: 5})
	f, _ := s.Microflow(direct)

	p := pkt(5, 6, 7, 8)
	p.Payload = []byte("xyz")
	if v := s.Process(p, 0); v.Flow != f || v.Rule != nil || v.Output != 9 {
		t.Fatalf("direct hit: verdict %+v, want flow %p and no rule", v, f)
	}
	if c := f.Counters.load(); c.Packets != 1 || c.Bytes != 3+24 {
		t.Fatalf("flow counters %+v after one 3-byte packet", c)
	}
	q := pkt(5, 6, 7, 9)
	if v := s.Process(q, 0); v.Flow != nil || v.Rule == nil || v.Rule.ID != tcam || v.Output != 1 || q.DSCP != 46 {
		t.Fatalf("resubmitting hit: verdict %+v, DSCP %d; want rule %d deciding, DSCP 46", v, q.DSCP, tcam)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		*p = packet.Packet{Src: 5, Dst: 6, SrcPort: 7, DstPort: 8, Proto: packet.ProtoTCP}
		s.Process(p, 0)
	}); allocs != 0 {
		t.Fatalf("a microflow hit allocates %.1f times, want 0", allocs)
	}
}

// TestFlowIsSixtyFourBytes pins a microflow entry's size: its action (40 B),
// cookie (8 B) and counters (16 B). The entry keeps no Match, priority or
// ID, which made it a 128 B Rule.
func TestFlowIsSixtyFourBytes(t *testing.T) {
	if got := unsafe.Sizeof(Flow{}); got != 64 {
		t.Fatalf("a microflow entry is %d B, want 64", got)
	}
}

// TestSwitchFitsItsSizeClass pins a switch at or under 240 B, an
// allocator size class (it is 232 B): the microflow table's two indexes
// sit behind one pointer that only access switches fill, and inline they
// would push every switch into a larger class.
func TestSwitchFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Switch{}); got > 240 {
		t.Fatalf("a switch is %d B, past its 240 B size class", got)
	}
}

// TestViewSharesTheTCAM checks that the switch keeps one copy of its
// TCAM: a view, and so a fast-path snapshot, holds the switch's own
// backing array, and two views with no write between hold the same one.
// The first write after the seal moves the switch to a copy and leaves
// the view's array as it was.
func TestViewSharesTheTCAM(t *testing.T) {
	s := NewSwitch("s")
	s.ReplaceTCAM(tableFor(8))
	v, w := s.View(), s.View()
	if &v.TCAM.entries[0] != &s.tcam[0] || &w.TCAM.entries[0] != &s.tcam[0] {
		t.Fatal("a view holds a copy of the TCAM, not the switch's own array")
	}
	was := slices.Clone(v.TCAM.entries)
	s.Remove(s.tcam[0].rule.ID)
	if &v.TCAM.entries[0] == &s.tcam[0] || !slices.Equal(v.TCAM.entries, was) {
		t.Fatal("a write after the seal wrote the sealed array")
	}
	if x := s.View(); &x.TCAM.entries[0] != &s.tcam[0] || x.TCAM.Len() != 7 {
		t.Fatal("the next view is not the switch's array after the write")
	}
}

func TestRemoveRule(t *testing.T) {
	s := NewSwitch("s")
	id := s.Install(PrioTag, matchAll, Action{Output: 1})
	if s.NumRules() != 1 {
		t.Fatal("install failed")
	}
	if !s.Remove(id) {
		t.Fatal("remove failed")
	}
	if s.Remove(id) {
		t.Fatal("double remove should fail")
	}
	if v := s.Process(pkt(1, 2, 3, 4), 0); !v.Drop {
		t.Fatal("rule should be gone")
	}
}

func TestNewerRuleWinsAtSamePriority(t *testing.T) {
	s := NewSwitch("s")
	s.Install(PrioTag, matchAll, Action{Output: 1})
	s.Install(PrioTag, matchAll, Action{Output: 2})
	if v := s.Process(pkt(1, 2, 3, 4), 0); v.Output != 2 {
		t.Fatalf("newest same-priority rule should win, got %d", v.Output)
	}
}

func TestCounters(t *testing.T) {
	s := NewSwitch("s")
	id := s.Install(PrioTag, matchAll, Action{Output: 1})
	p := pkt(1, 2, 3, 4)
	p.Payload = []byte("xyz")
	for i := 0; i < 5; i++ {
		s.Process(p, 0)
	}
	r, ok := s.Rule(id)
	if !ok || r.Packets != 5 {
		t.Fatalf("Packets = %d", r.Packets)
	}
	if r.Bytes != 5*(3+24) {
		t.Fatalf("Bytes = %d", r.Bytes)
	}
	if s.Processed != 5 {
		t.Fatalf("Processed = %d", s.Processed)
	}
}

func TestRulesSnapshotOrdered(t *testing.T) {
	s := NewSwitch("s")
	s.Install(PrioPrefix, matchAll, Action{Output: 1})
	s.Install(PrioMobility, matchAll, Action{Output: 2})
	s.Install(PrioTag, matchAll, Action{Output: 3})
	rules := s.Rules()
	if len(rules) != 3 {
		t.Fatalf("len = %d", len(rules))
	}
	if rules[0].Priority != PrioMobility || rules[2].Priority != PrioPrefix {
		t.Fatalf("order wrong: %d %d %d", rules[0].Priority, rules[1].Priority, rules[2].Priority)
	}
}

// TestViewIsTheFastPathsContract covers what a fast-path compiler takes from
// a switch and gives back: a view is the tables at one generation (later
// mutations leave it alone and move the generation on), its rule pointers
// are the live rules, and traffic accounted through them or through
// AccountBurst lands in the counters Process would have moved.
func TestViewIsTheFastPathsContract(t *testing.T) {
	s := NewSwitch("s")
	s.TableMiss = Punt()
	low := s.Install(PrioPrefix, matchAll, Action{Output: 1})
	high := s.Install(PrioMobility, matchAll, Action{Output: 2})
	key := pkt(5, 6, 7, 8).Flow()
	s.InstallMicroflow(key, Action{Output: 9}, Cookie{})

	v := s.View()
	if v.Gen != s.Generation() || !v.Miss.ToController {
		t.Fatalf("view at generation %d with miss %v, switch at %d punting", v.Gen, v.Miss, s.Generation())
	}
	if v.TCAM.Len() != 2 || v.TCAM.At(0).ID != high || v.TCAM.At(1).ID != low {
		t.Fatalf("view rules out of match order: %+v", v.TCAM.entries)
	}
	live, _ := s.Microflow(key)
	if _, f, ok := v.Flows.Lookup(pkt(5, 6, 7, 8)); !ok || f != live || v.Flows.Len() != 1 {
		t.Fatalf("view microflow %p of %d, switch holds %p", f, v.Flows.Len(), live)
	}
	s.Install(PrioTag, matchAll, Action{Output: 3})
	s.RemoveMicroflow(key)
	if _, f, _ := v.Flows.Lookup(pkt(5, 6, 7, 8)); v.TCAM.Len() != 2 || f != live || v.Flows.Len() != 1 || v.Gen == s.Generation() {
		t.Fatalf("a later mutation reached the view (%d rules, %d microflows) or left the generation at %d", v.TCAM.Len(), v.Flows.Len(), v.Gen)
	}

	v.TCAM.At(0).AccountN(3, 100)
	if r, _ := s.Rule(high); r.Packets != 3 || r.Bytes != 100 {
		t.Fatalf("rule counters %d packets %d bytes after AccountN(3, 100)", r.Packets, r.Bytes)
	}
	s.AccountBurst(BurstStats{Packets: 5, Miss: 2})
	if s.Processed != 5 || s.Misses != 2 {
		t.Fatalf("switch counters %d processed %d misses after a burst of 5 with 2 misses", s.Processed, s.Misses)
	}
}

func TestConcurrentProcessAndInstall(t *testing.T) {
	s := NewSwitch("s")
	s.Install(PrioDefault, matchAll, Action{Output: 0})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					id := s.Install(PrioTag, matchAll, Action{Output: i})
					s.Remove(id)
				case 1:
					s.Process(pkt(packet.Addr(g), packet.Addr(i), 1, 2), 0)
				case 2:
					s.NumRules()
					s.Rules()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestVerdictStrings(t *testing.T) {
	// Exercise String methods for coverage of the debug surface.
	m := Match{InPort: 1, Src: packet.NewPrefix(packet.AddrFrom4(10, 0, 0, 0), 8),
		SrcPortLo: 5, SrcPortHi: 6, Proto: packet.ProtoTCP}
	if m.String() == "" || matchAll.String() != "any" {
		t.Fatal("match strings")
	}
	a := Action{Output: 3}
	a.Set, a.Src = SetSrc, packet.AddrFrom4(1, 2, 3, 4)
	if a.String() == "" || DropAction().String() == "" || Punt().String() == "" {
		t.Fatal("action strings")
	}
	r := Rule{ID: 1, Priority: 2, Match: matchAll, Action: Action{Output: 1}}
	if r.String() == "" {
		t.Fatal("rule string")
	}
}

// TestOwnerIndexFollowsTheTable drives random installs, overwrites and
// removals over a few keys and owners against a model: after every step
// Owned lists exactly the entries whose cookie names the owner, in the
// order each became that owner's, with the entry's action and cookie, and
// Owners lists, ascending, the owners with any.
func TestOwnerIndexFollowsTheTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSwitch("as")
	owners := []packet.Addr{0, 30, 10, 20}
	keys := make([]packet.FlowKey, 6)
	for i := range keys {
		keys[i] = pkt(packet.Addr(i+1), 99, uint16(i), 80).Flow()
	}
	type entry struct {
		act Action
		c   Cookie
	}
	table := map[packet.FlowKey]entry{}
	order := map[packet.Addr][]packet.FlowKey{}
	for step := 0; step < 2000; step++ {
		k := keys[rng.Intn(len(keys))]
		old, had := table[k]
		var now entry // the zero entry is owned by no one
		if rng.Intn(3) == 0 {
			if s.RemoveMicroflow(k) != had {
				t.Fatalf("step %d: removing %s reported %v", step, k, !had)
			}
			delete(table, k)
		} else {
			now = entry{Action{Output: rng.Intn(4), Set: SetDst, Dst: packet.Addr(rng.Intn(9))},
				Cookie{Owner: owners[rng.Intn(len(owners))], Clause: int32(rng.Intn(3))}}
			s.InstallMicroflow(k, now.act, now.c)
			table[k] = now
		}
		if !had || old.c.Owner != now.c.Owner {
			if had {
				order[old.c.Owner] = slices.DeleteFunc(order[old.c.Owner], func(o packet.FlowKey) bool { return o == k })
			}
			if _, live := table[k]; live {
				order[now.c.Owner] = append(order[now.c.Owner], k)
			}
		}

		var want []packet.Addr
		for _, o := range owners[1:] {
			var listed []Microflow
			for _, k := range order[o] {
				listed = append(listed, Microflow{Key: k, Action: table[k].act, Cookie: table[k].c})
			}
			if got := s.Owned(nil, o); !slices.Equal(got, listed) {
				t.Fatalf("step %d: owner %s lists %v, want %v", step, o, got, listed)
			}
			if len(listed) > 0 {
				want = append(want, o)
			}
		}
		slices.Sort(want)
		if got := s.Owners(nil); !slices.Equal(got, want) {
			t.Fatalf("step %d: owners %v, want %v", step, got, want)
		}
	}
}

// TestRewrittenAppliesTheAction: an action's rewritten flow key is the key
// of a packet it processed.
func TestRewrittenAppliesTheAction(t *testing.T) {
	a := Action{Output: -1, Resubmit: true, Set: SetSrc | SetSrcPort | SetDstTag | SetDSCP,
		Src: packet.AddrFrom4(10, 0, 16, 1), SrcPort: 0x1c05, DstTag: 3, TagEphBits: 10, DSCP: 46}
	p := pkt(packet.AddrFrom4(100, 64, 0, 1), packet.AddrFrom4(1, 1, 1, 1), 40000, 0x0407)
	k := p.Flow()
	a.Apply(p)
	if got := a.Rewritten(k); got != p.Flow() {
		t.Fatalf("Rewritten(%s) = %s, want %s", k, got, p.Flow())
	}
}

// TestWatchSeesEveryChange: switches changing on their own goroutines
// while another drains the set they are watched by are each drained after
// their last change, which a drain sees by reading the switch's generation
// once it has taken the switch out of the set, and no drain names a switch
// that did not change.
func TestWatchSeesEveryChange(t *testing.T) {
	const n = 70 // past one word of the set
	c := dirty.New(n)
	c.Drain(func(int) bool { return true }) // dirty.New marks every switch
	sws := make([]*Switch, n)
	for i := range sws {
		sws[i] = NewSwitch("s")
		sws[i].Watch(c, i)
	}
	seen := make([]uint64, n) // per switch: the newest generation a drain read
	drain := func() {
		c.Drain(func(i int) bool {
			if i%3 == 0 {
				t.Errorf("switch %d drained, though it never changed", i)
			}
			seen[i] = max(seen[i], sws[i].Generation())
			return true
		})
	}
	var wg sync.WaitGroup
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				drain()
			}
		}
	}()
	for i, sw := range sws {
		if i%3 == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 50 {
				sw.InstallMicroflow(packet.FlowKey{Src: packet.Addr(k + 1), Proto: packet.ProtoTCP}, Action{Output: 1}, Cookie{})
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	drain()
	for i, sw := range sws {
		if seen[i] != sw.Generation() {
			t.Fatalf("switch %d: drains read generation %d, it is at %d", i, seen[i], sw.Generation())
		}
	}
}
