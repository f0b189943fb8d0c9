package switchsim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

// spliceKey draws a (priority, match) from a space small enough that edits
// keep meeting rules the table already holds.
func spliceKey(rng *rand.Rand) (int, Match) {
	prio := []int{PrioTagPrefix, PrioTagPrefix + 24, PrioPort, PrioMobility + 32}[rng.Intn(4)]
	m := Match{InPort: []int32{AnyPort, 0, 1}[rng.Intn(3)],
		Dst: packet.NewPrefix(packet.AddrFrom4(10, 0, byte(rng.Intn(8)), 0), 24)}
	return prio, m.normalised()
}

// spliceTable is a random table with unique (priority, match) keys, plus
// two rules equal in both above them — a re-bound public address, which no
// splice names.
func spliceTable(rng *rand.Rand) []Rule {
	var rules []Rule
	seen := map[Rule]bool{}
	for i := rng.Intn(40); i > 0; i-- {
		prio, m := spliceKey(rng)
		if k := (Rule{Priority: prio, Match: m}); !seen[k] {
			seen[k] = true
			rules = append(rules, Rule{Priority: prio, Match: m, Action: Action{Output: rng.Intn(8)}})
		}
	}
	bound := Match{InPort: AnyPort, Dst: packet.NewPrefix(packet.AddrFrom4(192, 0, 2, 1), 32)}
	return append(rules,
		Rule{Priority: PrioBinding, Match: bound, Action: Action{Output: 1}},
		Rule{Priority: PrioBinding, Match: bound, Action: Action{Output: 2}})
}

// spliceEdits draws up to max edits that each apply to the table as the
// earlier ones left it: a remove of a present key or an insert of an
// absent one. It returns the edits and the keys they name.
func spliceEdits(rng *rand.Rand, s *Switch, max int) ([]Edit, map[Rule]bool) {
	present := map[Rule]bool{}
	for _, r := range s.Rules() {
		present[Rule{Priority: r.Priority, Match: r.Match}] = true
	}
	named := map[Rule]bool{}
	var edits []Edit
	for i := rng.Intn(max + 1); i > 0; i-- {
		prio, m := spliceKey(rng)
		k := Rule{Priority: prio, Match: m}
		edits = append(edits, Edit{Remove: present[k], Rule: Rule{Priority: prio, Match: m, Action: Action{Output: rng.Intn(8)}}})
		present[k] = !present[k]
		named[k] = true
	}
	return edits, named
}

// edited applies edits to a rule list the slow way: a remove takes out the
// first rule of its priority and match, an insert appends.
func edited(rules []Rule, edits []Edit) []Rule {
	out := append([]Rule(nil), rules...)
	for _, e := range edits {
		if !e.Remove {
			out = append(out, Rule{Priority: e.Rule.Priority, Match: e.Rule.Match, Action: e.Rule.Action})
			continue
		}
		for i, r := range out {
			if r.Priority == e.Rule.Priority && r.Match == e.Rule.Match {
				out = append(out[:i], out[i+1:]...)
				break
			}
		}
	}
	return out
}

// entries strips a table down to what ReplaceTCAM reads of each rule.
func entries(rules []Rule) []Rule {
	out := make([]Rule, len(rules))
	for i, r := range rules {
		out[i] = Rule{Priority: r.Priority, Match: r.Match, Action: r.Action}
	}
	return out
}

// spliced builds a switch from a random table, runs packets through it so
// its rules have counted traffic, and returns it.
func spliced(rng *rand.Rand) *Switch {
	s := NewSwitch("s")
	s.ReplaceTCAM(spliceTable(rng))
	for i := 0; i < 64; i++ {
		s.Process(pkt(1, packet.AddrFrom4(10, 0, byte(rng.Intn(8)), 1), 2, 3), rng.Intn(3)-1)
	}
	return s
}

// TestSpliceMatchesReplaceTCAM is the splice's property test: over random
// tables and change lists, Splice gives the table ReplaceTCAM builds from
// the edited rule set, rule for rule in order, in one generation step, and
// every rule no edit names keeps its ID and counters.
func TestSpliceMatchesReplaceTCAM(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := spliced(rng)
		for round := 0; round < 4; round++ {
			edits, named := spliceEdits(rng, s, 12)
			before, gen := s.Rules(), s.Generation()
			if !s.Splice(edits) {
				t.Errorf("seed %d round %d: a valid splice of %d edits was refused", seed, round, len(edits))
				return false
			}
			if got := s.Generation(); got != gen+1 {
				t.Errorf("seed %d: generation %d -> %d, want one step", seed, gen, got)
				return false
			}
			want := NewSwitch("want")
			want.ReplaceTCAM(edited(entries(before), edits))
			after := s.Rules()
			if !reflect.DeepEqual(entries(after), entries(want.Rules())) {
				t.Errorf("seed %d round %d: splice gave\n%v\nReplaceTCAM\n%v", seed, round, after, want.Rules())
				return false
			}
			kept := map[RuleID]Rule{}
			for _, r := range after {
				kept[r.ID] = r
			}
			for _, r := range before {
				if named[Rule{Priority: r.Priority, Match: r.Match}] {
					continue
				}
				if got, ok := kept[r.ID]; !ok || got.Packets != r.Packets || got.Bytes != r.Bytes || got.Match != r.Match {
					t.Errorf("seed %d: untouched rule %v became %v (kept %v)", seed, &r, &got, ok)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSpliceFailsWhole: a splice that cannot give ReplaceTCAM's table — a
// remove of an absent rule, an insert of a present one, or any splice of a
// table Install edited — changes nothing, generation included, even when
// valid edits come before the bad one.
func TestSpliceFailsWhole(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := spliced(rng)
		edits, _ := spliceEdits(rng, s, 6)
		present := map[Rule]bool{}
		for _, r := range edited(entries(s.Rules()), edits) {
			present[Rule{Priority: r.Priority, Match: r.Match}] = true
		}
		prio, m := spliceKey(rng)
		k := Rule{Priority: prio, Match: m}
		switch rng.Intn(3) {
		case 0: // the bad edit contradicts the table the earlier ones leave
			edits = append(edits, Edit{Remove: !present[k], Rule: k})
		case 1: // the binding pair's priority and match are taken
			edits = append(edits, Edit{Rule: Rule{Priority: PrioBinding,
				Match: Match{InPort: AnyPort, Dst: packet.NewPrefix(packet.AddrFrom4(192, 0, 2, 1), 32)}}})
		case 2: // Install put a rule out of ReplaceTCAM's order
			s.Install(prio, m, Action{Output: 9})
		}
		before, gen := s.Rules(), s.Generation()
		if s.Splice(edits) {
			t.Errorf("seed %d: an impossible splice was applied", seed)
			return false
		}
		if s.Generation() != gen || !reflect.DeepEqual(s.Rules(), before) {
			t.Errorf("seed %d: a refused splice changed the table", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
