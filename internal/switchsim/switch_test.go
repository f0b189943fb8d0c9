package switchsim

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func pkt(src, dst packet.Addr, sp, dp uint16) *packet.Packet {
	return &packet.Packet{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: packet.ProtoTCP, TTL: 64}
}

func TestMatchAllCoversEverything(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, inPort uint8) bool {
		p := pkt(packet.Addr(src), packet.Addr(dst), sp, dp)
		return MatchAll().Covers(p, int(inPort))
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
	s.Install(PrioPrefix, Match{InPort: AnyPort, Dst: packet.NewPrefix(packet.AddrFrom4(10, 0, 0, 0), 8)}, Forward(1))
	s.Install(PrioTagPrefix, Match{InPort: AnyPort, Dst: packet.NewPrefix(packet.AddrFrom4(10, 1, 0, 0), 16)}, Forward(2))
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
	s.Install(PrioMicroflow, MatchAll(), Action{Output: 3, SetSrc: &newSrc, SetSrcPort: &newSport})
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
	s.Install(PrioTagPrefix, MatchAll(), Forward(1))
	key := pkt(5, 6, 7, 8).Flow()
	s.InstallMicroflow(key, Forward(9))
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

func TestRemoveRule(t *testing.T) {
	s := NewSwitch("s")
	id := s.Install(PrioTag, MatchAll(), Forward(1))
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
	s.Install(PrioTag, MatchAll(), Forward(1))
	s.Install(PrioTag, MatchAll(), Forward(2))
	if v := s.Process(pkt(1, 2, 3, 4), 0); v.Output != 2 {
		t.Fatalf("newest same-priority rule should win, got %d", v.Output)
	}
}

func TestCounters(t *testing.T) {
	s := NewSwitch("s")
	id := s.Install(PrioTag, MatchAll(), Forward(1))
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
	s.Install(PrioPrefix, MatchAll(), Forward(1))
	s.Install(PrioMobility, MatchAll(), Forward(2))
	s.Install(PrioTag, MatchAll(), Forward(3))
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
	low := s.Install(PrioPrefix, MatchAll(), Forward(1))
	high := s.Install(PrioMobility, MatchAll(), Forward(2))
	key := pkt(5, 6, 7, 8).Flow()
	s.InstallMicroflow(key, Forward(9))

	v := s.View()
	if v.Gen != s.Generation() || !v.Miss.ToController {
		t.Fatalf("view at generation %d with miss %v, switch at %d punting", v.Gen, v.Miss, s.Generation())
	}
	if len(v.Ordered) != 2 || v.Ordered[0].ID != high || v.Ordered[1].ID != low {
		t.Fatalf("view rules out of match order: %+v", v.Ordered)
	}
	if live, ok := s.Microflow(key); !ok || v.Micro[key] != live || len(v.Micro) != 1 {
		t.Fatalf("view microflows %v, switch holds %v", v.Micro, live)
	}
	s.Install(PrioTag, MatchAll(), Forward(3))
	s.RemoveMicroflow(key)
	if len(v.Ordered) != 2 || len(v.Micro) != 1 || v.Gen == s.Generation() {
		t.Fatalf("a later mutation reached the view (%d rules, %d microflows) or left the generation at %d", len(v.Ordered), len(v.Micro), v.Gen)
	}

	v.Ordered[0].AccountN(3, 100)
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
	s.Install(PrioDefault, MatchAll(), Forward(0))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					id := s.Install(PrioTag, MatchAll(), Forward(i))
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
	if m.String() == "" || MatchAll().String() != "any" {
		t.Fatal("match strings")
	}
	a := Forward(3)
	src := packet.AddrFrom4(1, 2, 3, 4)
	a.SetSrc = &src
	if a.String() == "" || DropAction().String() == "" || Punt().String() == "" {
		t.Fatal("action strings")
	}
	r := Rule{ID: 1, Priority: 2, Match: MatchAll(), Action: Forward(1)}
	if r.String() == "" {
		t.Fatal("rule string")
	}
}
