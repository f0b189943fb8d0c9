package fastpath

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/switchsim"
)

// mutate applies one random change to sw's tables: a TCAM Install, Remove,
// ReplaceTCAM, Splice or empty Splice, or a microflow install or removal
// among flows.
func mutate(rng *rand.Rand, sw *switchsim.Switch, flows []packet.FlowKey) {
	switch rng.Intn(7) {
	case 0:
		sw.Install(rng.Intn(900), genMatch(rng), genAction(rng))
	case 1:
		if rules := sw.Rules(); len(rules) > 0 {
			sw.Remove(rules[rng.Intn(len(rules))].ID)
		}
	case 2:
		sw.InstallMicroflow(flows[rng.Intn(len(flows))], genAction(rng), switchsim.Cookie{})
	case 3:
		sw.RemoveMicroflow(flows[rng.Intn(len(flows))])
	case 4:
		var rules []switchsim.Rule
		for _, s := range genSpecs(rng, rng.Intn(16)) {
			rules = append(rules, switchsim.Rule{Priority: s.prio, Match: s.m, Action: s.a})
		}
		sw.ReplaceTCAM(rules)
	case 5:
		var edits []switchsim.Edit
		for _, r := range sw.Rules() {
			if rng.Intn(4) == 0 {
				edits = append(edits, switchsim.Edit{Remove: true, Rule: r})
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			edits = append(edits, switchsim.Edit{Rule: switchsim.Rule{Priority: rng.Intn(900), Match: genMatch(rng), Action: genAction(rng)}})
		}
		rng.Shuffle(len(edits), func(i, j int) { edits[i], edits[j] = edits[j], edits[i] })
		sw.Splice(edits) // refused after an Install or Remove; then nothing moved
	case 6:
		sw.Splice(nil) // moves the generation and changes nothing
	}
}

// reuseCheck is one checkReuse run: the switch, the packets every
// snapshot is checked on, and the microflow keys the mutations draw from.
type reuseCheck struct {
	t      *testing.T
	rng    *rand.Rand
	sw     *switchsim.Switch
	fib    *FIB
	copied *obs.Counter // the switch's switchsim.tcam.rules.copied
	pkts   []*packet.Packet
	flows  []packet.FlowKey
	older  []*Snapshot // every snapshot the FIB published, oldest first
	seen   []tables    // each older snapshot's tables, when published
}

// tables is a snapshot's tables entry by entry: the TCAM's rules in
// match order and the microflow table slot by slot.
type tables struct {
	rules []*switchsim.Rule
	flows []*switchsim.Flow
}

func tablesOf(s *Snapshot) tables {
	tb := tables{make([]*switchsim.Rule, s.tcam.Len()), make([]*switchsim.Flow, s.micro.Slots())}
	for i := range tb.rules {
		tb.rules[i] = s.tcam.At(i)
	}
	for slot := range tb.flows {
		tb.flows[slot] = s.micro.At(slot)
	}
	return tb
}

// checkReuse drives a random switch through random interleavings of
// microflow and TCAM mutations, and reports the TCAM entries the switch
// copied. After each round the FIB's snapshot, the switch's own tables as
// it sealed them, must hold the switch's rules in match order and give
// what Process gives on every packet: verdict, header rewrites and the
// entry named. No published snapshot's TCAM or microflow table may change
// afterwards. The large mode grows the microflow table past 200 flows and
// through several growths.
func checkReuse(t *testing.T, rng *rand.Rand, large bool) uint64 {
	t.Helper()
	c := &reuseCheck{t: t, rng: rng, sw: buildSwitch(genSpecs(rng, rng.Intn(16)), genAction(rng))}
	reg := obs.New()
	c.sw.Instrument(reg)
	c.copied = reg.Counter("switchsim.tcam.rules.copied")
	c.pkts = make([]*packet.Packet, 32)
	for i := range c.pkts {
		c.pkts[i] = genPacket(rng)
		if i%4 == 0 {
			c.flows = append(c.flows, c.pkts[i].Flow())
		}
	}
	c.fib = NewFIB(c.sw)
	c.publish(c.fib.Acquire())
	if !large {
		for round := 0; round < 24; round++ {
			for k := rng.Intn(3); k >= 0; k-- {
				mutate(rng, c.sw, c.flows)
			}
			c.round(round)
		}
		c.unchanged()
		return c.copied.Value()
	}

	for len(c.flows) < 256 {
		p := genPacket(rng)
		c.pkts = append(c.pkts, p)
		c.flows = append(c.flows, p.Flow())
	}
	installed := 0
	for round := 0; installed < 220; round++ {
		for k := 1 + rng.Intn(40); k > 0 && installed < len(c.flows); k-- {
			c.sw.InstallMicroflow(c.flows[installed], genAction(rng), switchsim.Cookie{})
			installed++
		}
		for k := rng.Intn(4); k > 0; k-- {
			mutate(rng, c.sw, c.flows[:installed])
		}
		c.round(round)
	}
	if last := c.older[len(c.older)-1]; last.micro.Slots() < 256 {
		t.Fatalf("%d microflows in a %d-slot index; the table never grew to 256 slots", last.micro.Len(), last.micro.Slots())
	}
	c.unchanged()
	return c.copied.Value()
}

func (c *reuseCheck) publish(s *Snapshot) {
	c.older, c.seen = append(c.older, s), append(c.seen, tablesOf(s))
}

// unchanged fails the test if a later write reached a published
// snapshot's tables: the switch must copy what a snapshot shares first.
func (c *reuseCheck) unchanged() {
	for i, s := range c.older {
		if tb := tablesOf(s); !slices.Equal(tb.rules, c.seen[i].rules) || !slices.Equal(tb.flows, c.seen[i].flows) {
			c.t.Fatalf("snapshot %d of %d changed after it was published", i, len(c.older))
		}
	}
}

// round publishes the FIB's next snapshot and checks it against the
// switch and Process.
func (c *reuseCheck) round(round int) {
	t, s := c.t, c.fib.Acquire()
	c.publish(s)
	rules := c.sw.Rules()
	if s.Gen != c.sw.Generation() || s.tcam.Len() != len(rules) || s.micro.Len() != c.sw.NumMicroflows() {
		t.Fatalf("round %d: snapshot gen %d, %d rules, %d microflows; switch gen %d, %d, %d", round,
			s.Gen, s.tcam.Len(), s.micro.Len(), c.sw.Generation(), len(rules), c.sw.NumMicroflows())
	}
	for i := range rules {
		if r := s.tcam.At(i); r.ID != rules[i].ID {
			t.Fatalf("round %d: the snapshot's TCAM rule %d is #%d, the switch's #%d", round, i, r.ID, rules[i].ID)
		}
	}
	var tl tally
	tl.ensure(s.slots())
	for i, p := range c.pkts {
		inPort := c.rng.Intn(4)
		a, b := *p, *p
		v, want := s.lookup(&a, inPort, &tl), c.sw.Process(&b, inPort)
		var wantID switchsim.RuleID
		if want.Rule != nil {
			wantID = want.Rule.ID
		}
		if v.Rule != wantID || v.Flow != want.Flow || v.Output != want.Output || v.Drop != want.Drop ||
			v.ToController != want.ToController || !headerEq(&a, &b) {
			t.Fatalf("round %d packet %d: snapshot %+v %v, Process %+v %v", round, i, v, &a, want, &b)
		}
	}
}

// TestSnapshotReuseQuick is the property test of the recompile: for
// arbitrary tables and mutation sequences a snapshot is the switch's
// tables at its generation and stays so, and the runs do make the switch
// copy a sealed TCAM.
func TestSnapshotReuseQuick(t *testing.T) {
	var copied uint64
	f := func(seed int64) bool {
		copied += checkReuse(t, rand.New(rand.NewSource(seed)), seed%4 == 0)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if copied == 0 {
		t.Fatal("no write copied a sealed TCAM; the test exercised too little")
	}
}

// FuzzSnapshotReuse drives the same check from fuzzed seeds; a seed that
// is a multiple of 4 runs the large mode, as in TestSnapshotReuseQuick.
func FuzzSnapshotReuse(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(37))
	f.Add(int64(-424242))
	f.Add(int64(4))
	f.Add(int64(-96))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkReuse(t, rand.New(rand.NewSource(seed)), seed%4 == 0)
	})
}

// TestMicroflowChurnUnderBursts walks bursts through a switch from four
// walkers while another goroutine installs and removes microflows, so the
// switch writes, grows and lays out its table while acquirers race to
// recompile, often from the same snapshot; run it under -race. After the
// churn the snapshot gives Process's verdict and rewrites on every packet.
func TestMicroflowChurnUnderBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sw := buildSwitch(genSpecs(rng, 8), switchsim.Action{Output: -1})
	net := NewNet(NetConfig{Switches: []*switchsim.Switch{sw}, Links: [][]Link{nil}})
	fib := net.FIB(0)
	pkts := make([]*packet.Packet, 256)
	for i := range pkts {
		pkts[i] = genPacket(rng)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			w := net.NewWalker()
			backing := make([]packet.Packet, 32)
			burst := make([]*packet.Packet, len(backing))
			res := make([]Result, len(burst))
			for !stop.Load() {
				for i := range burst {
					backing[i] = *pkts[r.Intn(len(pkts))]
					burst[i] = &backing[i]
				}
				w.Walk(0, r.Intn(4), burst, res)
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 3000; i++ {
			if k := pkts[r.Intn(len(pkts))].Flow(); r.Intn(3) == 0 {
				sw.RemoveMicroflow(k)
			} else {
				sw.InstallMicroflow(k, genAction(r), switchsim.Cookie{})
			}
		}
		stop.Store(true)
	}()
	wg.Wait()

	snap := fib.Acquire()
	if snap.Gen != sw.Generation() || snap.micro.Len() != sw.NumMicroflows() {
		t.Fatalf("post-churn snapshot gen %d with %d microflows, switch gen %d with %d", snap.Gen, snap.micro.Len(), sw.Generation(), sw.NumMicroflows())
	}
	for i, p := range pkts {
		a, b := *p, *p
		v, want := fib.Step(&a, i%4), sw.Process(&b, i%4)
		if v.Output != want.Output || v.Drop != want.Drop || v.ToController != want.ToController || !headerEq(&a, &b) {
			t.Fatalf("packet %d after the churn: snapshot %+v %v, Process out=%d drop=%v punt=%v %v", i, v, &a, want.Output, want.Drop, want.ToController, &b)
		}
	}
}
