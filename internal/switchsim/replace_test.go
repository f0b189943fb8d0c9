package switchsim

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/packet"
)

// tableFor builds a mixed rule set: several priorities, several rules per
// priority that differ only in their match.
func tableFor(n int) []Rule {
	rules := make([]Rule, 0, n)
	for i := 0; i < n; i++ {
		rules = append(rules, Rule{
			Priority: PrioPrefix + 8*(i%4),
			Match: Match{InPort: AnyPort,
				Dst: packet.NewPrefix(packet.AddrFrom4(10, byte(i), 0, 0), 16)},
			Action: Action{Output: i},
		})
	}
	return rules
}

func TestReplaceTCAMOrderIgnoresInputOrder(t *testing.T) {
	a, b := NewSwitch("a"), NewSwitch("b")
	a.ReplaceTCAM(tableFor(40))
	shuffled := tableFor(40)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	b.ReplaceTCAM(shuffled)
	ra, rb := a.Rules(), b.Rules()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("same rule set, different tables:\n%v\n%v", ra, rb)
	}
	for i := 1; i < len(ra); i++ {
		if ra[i-1].Priority < ra[i].Priority {
			t.Fatalf("rule %d (prio %d) sits above rule %d (prio %d)", i-1, ra[i-1].Priority, i, ra[i].Priority)
		}
		if ra[i-1].ID >= ra[i].ID {
			t.Fatalf("IDs not assigned in match order: %d then %d", ra[i-1].ID, ra[i].ID)
		}
	}
}

func TestReplaceTCAMSwapsWholeTable(t *testing.T) {
	s := NewSwitch("s")
	key := packet.FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoTCP}
	s.InstallMicroflow(key, Action{Output: 9}, Cookie{})
	old := s.Install(PrioTag, matchAll, Action{Output: 1})
	s.Process(pkt(5, 6, 7, 8), 0)

	gen := s.Generation()
	s.ReplaceTCAM([]Rule{
		{Priority: PrioPrefix, Match: Match{InPort: AnyPort}, Action: Action{Output: 2}, Counters: Counters{Packets: 99, Bytes: 99}},
		{Priority: PrioTag, Match: Match{InPort: AnyPort}, Action: Action{Output: 3}},
	})
	if got := s.Generation(); got != gen+1 {
		t.Fatalf("generation moved %d -> %d, want one step", gen, got)
	}
	if _, ok := s.Rule(old); ok {
		t.Fatal("replaced rule still addressable")
	}
	if s.Remove(old) {
		t.Fatal("replaced rule still removable")
	}
	if s.NumRules() != 2 || s.NumMicroflows() != 1 {
		t.Fatalf("rules=%d microflows=%d, want 2 and 1", s.NumRules(), s.NumMicroflows())
	}
	rules := s.Rules()
	if rules[0].Action.Output != 3 || rules[1].Action.Output != 2 {
		t.Fatalf("match order wrong: %v", rules)
	}
	if rules[0].Match != matchAll {
		t.Fatalf("match not normalised: %v", rules[0].Match)
	}
	if rules[1].Packets != 0 || rules[1].Bytes != 0 {
		t.Fatalf("counters not reset: %+v", rules[1])
	}
	if v := s.Process(pkt(5, 6, 7, 8), 0); v.Output != 3 {
		t.Fatalf("output %d, want 3", v.Output)
	}
	if got, ok := s.Rule(rules[0].ID); !ok || got.Packets != 1 {
		t.Fatalf("rule by ID after replace: %+v %v", got, ok)
	}

	// A later Install at an occupied priority still wins, and Remove still
	// finds rules that arrived in a batch.
	s.Install(PrioTag, matchAll, Action{Output: 4})
	if v := s.Process(pkt(5, 6, 7, 8), 0); v.Output != 4 {
		t.Fatalf("newer rule lost to a replaced one: output %d", v.Output)
	}
	if !s.Remove(rules[0].ID) || s.NumRules() != 2 {
		t.Fatalf("remove of a batch rule failed, %d rules left", s.NumRules())
	}

	s.ReplaceTCAM(nil)
	if s.NumRules() != 0 || s.NumMicroflows() != 1 {
		t.Fatalf("empty replace left rules=%d microflows=%d", s.NumRules(), s.NumMicroflows())
	}
}

func TestReplaceTCAMEqualRulesKeepSliceOrder(t *testing.T) {
	s := NewSwitch("s")
	s.ReplaceTCAM([]Rule{
		{Priority: PrioBinding, Match: matchAll, Action: Action{Output: 1}},
		{Priority: PrioBinding, Match: matchAll, Action: Action{Output: 2}},
	})
	if v := s.Process(pkt(1, 2, 3, 4), 0); v.Output != 1 {
		t.Fatalf("output %d, want the first of two equal rules", v.Output)
	}
}

// TestReplaceTCAMAtomicUnderProcess replaces the table while packets run
// through it. Every table holds a rule covering the packets, so a miss or a
// foreign output means a reader saw the swap half done.
func TestReplaceTCAMAtomicUnderProcess(t *testing.T) {
	s := NewSwitch("s")
	reg := obs.New()
	s.Instrument(reg)
	s.ReplaceTCAM(tableFor(64))
	var stop atomic.Bool
	var processed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for i := 0; i < 64; i++ {
					v := s.Process(pkt(1, packet.AddrFrom4(10, byte(i), 1, 1), 1, 2), 0)
					if v.Rule == nil || v.Output != i {
						t.Errorf("dst 10.%d.1.1: verdict %+v", i, v)
						return
					}
				}
				processed.Add(64)
			}
		}()
	}
	for i := 0; (i < 200 || processed.Load() < 2000) && !t.Failed(); i++ {
		s.ReplaceTCAM(tableFor(64))
	}
	stop.Store(true)
	wg.Wait()
	if n := reg.Counter("switchsim.tcam.miss").Value(); n != 0 {
		t.Fatalf("%d table misses during replacement", n)
	}
}
