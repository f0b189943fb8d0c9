package switchsim

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/packet"
)

// sealCounts tallies what checkSeals exercised: seals, seals after a
// growth and after a relayout, microflow pages and TCAM entries copied.
type sealCounts struct {
	seals, grown, relaid, copied, tcamCopied int
}

// sealed is one microflow table View handed out and the model's entries
// at its seal.
type sealed struct {
	m    Microflows
	want map[packet.FlowKey]*Flow
}

// matches fails the test unless the sealed table holds exactly the
// model's entries, each in the slot Lookup names.
func (sl *sealed) matches(t *testing.T, what string) {
	t.Helper()
	if sl.m.Len() != len(sl.want) {
		t.Fatalf("%s: %d entries, the model had %d", what, sl.m.Len(), len(sl.want))
	}
	held := 0
	for slot := range sl.m.Slots() {
		if sl.m.At(slot) != nil {
			held++
		}
	}
	if held != len(sl.want) {
		t.Fatalf("%s: %d slots hold an entry, the model had %d", what, held, len(sl.want))
	}
	for k, f := range sl.want {
		p := &packet.Packet{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto}
		if slot, got, ok := sl.m.Lookup(p); !ok || got != f || sl.m.At(slot) != f {
			t.Fatalf("%s: %s is %p (held: %v), the model had %p", what, k, got, ok, f)
		}
	}
}

// sealedTCAM is one TCAM View handed out and its entries at the seal.
type sealedTCAM struct {
	tcam TCAM
	want []entry
}

// writeTCAM makes one random TCAM write: an Install, a Remove, a Splice
// (refused unless ReplaceTCAM or a splice wrote the table last) or a
// ReplaceTCAM.
func writeTCAM(rng *rand.Rand, s *Switch) {
	switch rng.Intn(4) {
	case 0:
		prio, m := spliceKey(rng)
		s.Install(prio, m, Action{Output: rng.Intn(4)})
	case 1:
		if rules := s.Rules(); len(rules) > 0 {
			s.Remove(rules[rng.Intn(len(rules))].ID)
		}
	case 2:
		edits, _ := spliceEdits(rng, s, 4)
		s.Splice(edits)
	default:
		s.ReplaceTCAM(spliceTable(rng))
	}
}

// sealKeys draws a pool of flow keys large enough to grow a microflow
// index through several sizes.
func sealKeys(rng *rand.Rand) []packet.FlowKey {
	keys := make([]packet.FlowKey, 40+rng.Intn(300))
	for i := range keys {
		keys[i] = pkt(packet.Addr(rng.Intn(64)), packet.Addr(rng.Intn(64)), uint16(rng.Intn(1<<12)), 80).Flow()
	}
	return keys
}

// checkSeals drives random installs, re-installs and removals of
// microflows over keys on the empty switch s, and random TCAM writes
// (writeTCAM), with View seals in between, against a map model. Every
// sealed microflow table holds the model's entries at its seal, and still
// does after every later write, growth and relayout; each keeps its load
// bound and at most a quarter of its block pages loose, and Process's
// verdict is the model's entry. Every sealed TCAM is the switch's rules at
// its seal, each entry's match compiled from its rule's, and keeps those
// entries after every later write. publish, when set, is handed every
// view as it is sealed.
func checkSeals(t *testing.T, rng *rand.Rand, s *Switch, keys []packet.FlowKey, publish func(*TableView)) sealCounts {
	t.Helper()
	model := map[packet.FlowKey]*Flow{}
	var seals []sealed
	var tcams []sealedTCAM
	var c sealCounts
	for step := 0; step < 1500; step++ {
		k := keys[rng.Intn(len(keys))]
		switch r := rng.Intn(24); {
		case r < 11:
			s.InstallMicroflow(k, Action{Output: rng.Intn(4)}, Cookie{Owner: packet.Addr(rng.Intn(3))})
			model[k], _ = s.Microflow(k)
		case r < 18:
			if _, had := model[k]; s.RemoveMicroflow(k) != had {
				t.Fatalf("step %d: removing %s reported %v", step, k, !had)
			}
			delete(model, k)
		case r >= 20:
			writeTCAM(rng, s)
		default:
			loose := 0
			if s.micro != nil {
				loose = s.micro.live.Loose()
			}
			v := s.View()
			if n := len(seals); n > 0 && v.Flows.Slots() != seals[n-1].m.Slots() {
				c.grown++
			} else if loose > 0 && v.Flows.index.Loose() == 0 {
				c.relaid++
			}
			if idx := &v.Flows.index; 8*idx.Len() > microLoad*idx.Slots() || 4*idx.Loose() > idx.Pages() {
				t.Fatalf("step %d: a sealed table holds %d entries in %d slots with %d of %d pages loose", step, idx.Len(), idx.Slots(), idx.Loose(), idx.Pages())
			}
			want := make(map[packet.FlowKey]*Flow, len(model))
			for k, f := range model {
				want[k] = f
			}
			seals = append(seals, sealed{v.Flows, want})
			seals[len(seals)-1].matches(t, "at its seal")
			rules := s.Rules()
			for i, e := range v.TCAM.entries {
				if e.rule.ID != rules[i].ID || e.m != compileMatch(e.rule.Match) {
					t.Fatalf("step %d: sealed TCAM entry %d is rule #%d matching %+v, the switch's is #%d", step, i, e.rule.ID, e.m, rules[i].ID)
				}
			}
			if v.TCAM.Len() != len(rules) {
				t.Fatalf("step %d: a sealed TCAM holds %d rules, the switch %d", step, v.TCAM.Len(), len(rules))
			}
			tcams = append(tcams, sealedTCAM{v.TCAM, slices.Clone(v.TCAM.entries)})
			if publish != nil {
				publish(v)
			}
		}
		p := &packet.Packet{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto}
		if v := s.Process(p, 0); v.Flow != model[k] {
			t.Fatalf("step %d: Process named entry %p for %s, the model has %p", step, v.Flow, k, model[k])
		}
	}
	for i := range seals {
		seals[i].matches(t, "after the run")
	}
	for i, tc := range tcams {
		if !slices.Equal(tc.tcam.entries, tc.want) {
			t.Fatalf("sealed TCAM %d of %d changed after its seal", i, len(tcams))
		}
	}
	c.seals = len(seals)
	c.copied = int(s.obs.pageCopy.Value())
	c.tcamCopied = int(s.obs.tcamCopy.Value())
	return c
}

// TestSealedTablesNeverChange is the property test of the switch's
// copy-on-write tables: for arbitrary write sequences, no microflow table
// or TCAM the switch handed out ever changes, and the runs do grow the
// microflow index, lay it out again, copy its pages and copy sealed TCAMs.
func TestSealedTablesNeverChange(t *testing.T) {
	var sum sealCounts
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSwitch("as")
		s.Instrument(obs.New())
		c := checkSeals(t, rng, s, sealKeys(rng), nil)
		sum.seals += c.seals
		sum.grown += c.grown
		sum.relaid += c.relaid
		sum.copied += c.copied
		sum.tcamCopied += c.tcamCopied
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if sum.grown == 0 || sum.relaid == 0 || sum.copied == 0 || sum.tcamCopied == 0 {
		t.Fatalf("%+v: the test exercised too little", sum)
	}
	t.Logf("%d seals, %d after a growth, %d after a relayout, %d pages copied, %d TCAM entries copied", sum.seals, sum.grown, sum.relaid, sum.copied, sum.tcamCopied)
}

// TestSealedTablesUnderReaders runs the same check while two goroutines
// read the switch: one sends the keys' packets through Process, and one
// reads every entry of the latest sealed tables with no lock and scans the
// TCAM, as the fast path does. Run it under -race: a write to a page or a
// TCAM a sealed table shares is a race. Then it races readers on View
// after single writes (racingViews).
func TestSealedTablesUnderReaders(t *testing.T) {
	for seed := range int64(4) {
		rng := rand.New(rand.NewSource(seed))
		s, keys := NewSwitch("as"), sealKeys(rng)
		reg := obs.New()
		s.Instrument(reg)
		var latest atomic.Pointer[TableView]
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if v := latest.Load(); v != nil {
					for slot := range v.Flows.Slots() {
						if f := v.Flows.At(slot); f != nil && f.Action.Output > 4 {
							t.Errorf("a sealed entry's output is %d", f.Action.Output)
						}
					}
					for i := range v.TCAM.Len() {
						if r := v.TCAM.At(i); r.Action.Output > 8 {
							t.Errorf("a sealed rule's output is %d", r.Action.Output)
						}
					}
					for _, k := range keys {
						v.TCAM.Lookup(&packet.Packet{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto}, 0)
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := keys[i%len(keys)]
				s.Process(&packet.Packet{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto}, 0)
			}
		}()
		checkSeals(t, rng, s, keys, latest.Store)
		stop.Store(true)
		wg.Wait()
		racingViews(t, rng, s, keys, reg.Counter("switchsim.view.sealed"))
	}
}

// racingViews makes single writes to s, each followed by four goroutines
// calling View at once. They must all get the same view, at the
// generation the write left, and the switch must seal it once: sealed
// rises by exactly 1 per write.
func racingViews(t *testing.T, rng *rand.Rand, s *Switch, keys []packet.FlowKey, sealed *obs.Counter) {
	t.Helper()
	const readers = 4
	for round := range 50 {
		if round%2 == 0 {
			s.InstallMicroflow(keys[rng.Intn(len(keys))], Action{Output: round}, Cookie{})
		} else {
			s.Install(rng.Intn(900), matchAll, Action{Output: rng.Intn(4)})
		}
		gen, before := s.Generation(), sealed.Value()
		var got [readers]*TableView
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[i] = s.View()
			}()
		}
		start.Done()
		done.Wait()
		for i, v := range got {
			if v != got[0] || v.Gen != gen {
				t.Fatalf("round %d: reader %d got the view at generation %d (%p), reader 0 %p, after a write to %d", round, i, v.Gen, v, got[0], gen)
			}
		}
		if n := sealed.Value() - before; n != 1 {
			t.Fatalf("round %d: %d readers racing after one write sealed %d views, want 1", round, readers, n)
		}
	}
}
