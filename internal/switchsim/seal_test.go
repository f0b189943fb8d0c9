package switchsim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/packet"
)

// sealCounts tallies what checkSeals exercised.
type sealCounts struct {
	seals, grown, relaid, copied int
}

// sealed is one table ViewChanged handed out and the model's entries at
// its seal.
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
// microflows over keys on the empty switch s, with ViewChanged seals in
// between, against a map model. Every sealed table holds the model's
// entries at its seal, and still does after every later write, growth and
// relayout; each sealed table keeps its load bound and at most a quarter
// of its block pages loose, and Process's verdict is the model's entry.
// publish, when set, is handed every sealed table as it is sealed.
func checkSeals(t *testing.T, rng *rand.Rand, s *Switch, keys []packet.FlowKey, publish func(Microflows)) sealCounts {
	t.Helper()
	model := map[packet.FlowKey]*Flow{}
	var seals []sealed
	var c sealCounts
	for step := 0; step < 1500; step++ {
		k := keys[rng.Intn(len(keys))]
		switch r := rng.Intn(20); {
		case r < 11:
			s.InstallMicroflow(k, Action{Output: rng.Intn(4)}, Cookie{Owner: packet.Addr(rng.Intn(3))})
			model[k], _ = s.Microflow(k)
		case r < 18:
			if _, had := model[k]; s.RemoveMicroflow(k) != had {
				t.Fatalf("step %d: removing %s reported %v", step, k, !had)
			}
			delete(model, k)
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
			if publish != nil {
				publish(v.Flows)
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
	c.seals = len(seals)
	c.copied = int(s.obs.pageCopy.Value())
	return c
}

// TestSealedTablesNeverChange is the property test of the microflow
// table's copy-on-write: for arbitrary write sequences, no table the switch
// handed out ever changes, and the runs do grow the index, lay it out
// again and copy pages.
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
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if sum.grown == 0 || sum.relaid == 0 || sum.copied == 0 {
		t.Fatalf("%d seals, %d after a growth, %d after a relayout, %d pages copied: the test exercised too little", sum.seals, sum.grown, sum.relaid, sum.copied)
	}
	t.Logf("%d seals, %d after a growth, %d after a relayout, %d pages copied", sum.seals, sum.grown, sum.relaid, sum.copied)
}

// TestSealedTablesUnderReaders runs the same check while two goroutines
// read the switch: one sends the keys' packets through Process, and one
// reads every entry of the latest sealed table with no lock, as a
// fast-path snapshot does. Run it under -race: a write to a page a sealed
// table shares is a race.
func TestSealedTablesUnderReaders(t *testing.T) {
	for seed := range int64(4) {
		rng := rand.New(rand.NewSource(seed))
		s, keys := NewSwitch("as"), sealKeys(rng)
		var latest atomic.Pointer[Microflows]
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if m := latest.Load(); m != nil {
					for slot := range m.Slots() {
						if f := m.At(slot); f != nil && f.Action.Output > 4 {
							t.Errorf("a sealed entry's output is %d", f.Action.Output)
						}
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
		checkSeals(t, rng, s, keys, func(m Microflows) { latest.Store(&m) })
		stop.Store(true)
		wg.Wait()
	}
}
