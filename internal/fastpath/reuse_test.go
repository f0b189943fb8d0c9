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
// among flows. It reports whether it replaced the whole TCAM.
func mutate(rng *rand.Rand, sw *switchsim.Switch, flows []packet.FlowKey) (replaced bool) {
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
		return true
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
	return false
}

// attribution maps the live counters of each entry a tally charged to
// what it was charged.
func attribution(s *Snapshot, t *tally) map[*switchsim.Counters]ruleAcc {
	out := make(map[*switchsim.Counters]ruleAcc, len(t.touched))
	for _, slot := range t.touched {
		out[s.countersAt(slot)] = t.acc[slot]
	}
	return out
}

// reuseCounts tallies what checkReuse's recompiles reused.
type reuseCounts struct {
	sharedTCAM int // shared the previous snapshot's compiled TCAM
	// replayedTCAM counts recompiles that replayed TCAM edits on a copy of
	// the previous compiled TCAM.
	replayedTCAM int
}

// reuseCheck is one checkReuse run: the switch, the packets every
// snapshot is checked on, and the microflow keys the mutations draw from.
type reuseCheck struct {
	t      *testing.T
	rng    *rand.Rand
	sw     *switchsim.Switch
	fib    *FIB
	copied *obs.Counter // the FIB's fastpath.rules.copied
	pkts   []*packet.Packet
	flows  []packet.FlowKey
	prev   *Snapshot
	older  []*Snapshot         // every snapshot the FIB published, oldest first
	seen   [][]*switchsim.Flow // each older snapshot's microflow table, slot by slot, when published
	counts reuseCounts
	// replaced is set when a ReplaceTCAM ran since the FIB's snapshot.
	replaced bool
}

// checkReuse drives a random switch through random interleavings of
// microflow and TCAM mutations. After each round the FIB's snapshot —
// recompiled from the one before it by replaying the switch's TCAM change
// log on it, its microflow table the switch's own as sealed — must equal a
// fresh Compile rule for rule and agree with it on every packet: verdict,
// header rewrites, pipeline tallies and the live entry each packet is
// charged to. So must a second consumer that compiles from an older
// snapshot, one the switch's change log may no longer reach, and no
// published snapshot's microflow table may change. The large mode grows
// the microflow table past 200 flows and through several growths, and
// makes more TCAM changes than the log holds between two compiles.
func checkReuse(t *testing.T, rng *rand.Rand, large bool) reuseCounts {
	t.Helper()
	c := &reuseCheck{t: t, rng: rng, sw: buildSwitch(genSpecs(rng, rng.Intn(16)), genAction(rng))}
	c.pkts = make([]*packet.Packet, 32)
	for i := range c.pkts {
		c.pkts[i] = genPacket(rng)
		if i%4 == 0 {
			c.flows = append(c.flows, c.pkts[i].Flow())
		}
	}
	c.fib = NewFIB(c.sw)
	reg := obs.New()
	c.fib.instrument(newFPObs(reg))
	c.copied = reg.Counter("fastpath.rules.copied")
	c.prev = c.fib.Acquire()
	c.older, c.seen = []*Snapshot{c.prev}, [][]*switchsim.Flow{slotsOf(c.prev)}
	if !large {
		for round := 0; round < 24; round++ {
			for k := rng.Intn(3); k >= 0; k-- {
				c.replaced = mutate(rng, c.sw, c.flows) || c.replaced
			}
			c.wantDelta(round)
			c.round(round)
		}
		c.unchanged()
		return c.counts
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
			c.replaced = mutate(rng, c.sw, c.flows[:installed]) || c.replaced
		}
		c.wantDelta(round)
		c.round(round)
	}
	if c.prev.micro.Slots() < 256 {
		t.Fatalf("%d microflows in a %d-slot index; the table never grew to 256 slots", c.prev.micro.Len(), c.prev.micro.Slots())
	}

	// More TCAM changes than the log holds, among microflow changes: the
	// next compile takes the TCAM whole. A removal of an absent rule
	// changes nothing, so it does not count.
	for changes := 0; changes <= switchsim.MaxChanges; {
		f := c.flows[rng.Intn(installed)]
		switch rng.Intn(4) {
		case 0:
			c.sw.InstallMicroflow(f, genAction(rng), switchsim.Cookie{})
		case 1:
			c.sw.RemoveMicroflow(f)
		case 2:
			c.sw.Install(rng.Intn(900), genMatch(rng), genAction(rng))
			changes++
		default:
			if rules := c.sw.Rules(); len(rules) > 0 && c.sw.Remove(rules[rng.Intn(len(rules))].ID) {
				changes++
			}
		}
	}
	if v := c.sw.ViewChanged(c.prev.Gen); len(v.Changes) != 0 || v.Ordered == nil {
		t.Fatalf("%d changes past a %d-entry log were listed (%d) instead of the whole TCAM", switchsim.MaxChanges+1, switchsim.MaxChanges, len(v.Changes))
	}
	c.round(-1)
	c.unchanged()
	return c.counts
}

// slotsOf copies out a snapshot's microflow table, slot by slot.
func slotsOf(s *Snapshot) []*switchsim.Flow {
	out := make([]*switchsim.Flow, s.micro.Slots())
	for slot := range out {
		out[slot] = s.micro.At(slot)
	}
	return out
}

// unchanged fails the test if a later write reached a published
// snapshot's microflow table: the switch must copy a shared page first.
func (c *reuseCheck) unchanged() {
	for i, s := range c.older {
		if !slices.Equal(slotsOf(s), c.seen[i]) {
			c.t.Fatalf("snapshot %d of %d changed after it was published", i, len(c.older))
		}
	}
}

// wantDelta asserts that the switch lists the TCAM changes since the FIB's
// snapshot instead of copying the TCAM, which comes whole only after a
// ReplaceTCAM.
func (c *reuseCheck) wantDelta(round int) {
	v := c.sw.ViewChanged(c.prev.Gen)
	if (v.Ordered != nil) != c.replaced {
		c.t.Fatalf("round %d: the changes since the last compile came as %d rules (TCAM replaced: %v), not as %d edits",
			round, len(v.Ordered), c.replaced, len(v.Changes))
	}
}

// round publishes the FIB's next snapshot and checks it, and a compile
// from a randomly chosen older snapshot, against a fresh Compile.
func (c *reuseCheck) round(round int) {
	older := c.older[c.rng.Intn(len(c.older))]
	var second *Snapshot
	first := c.rng.Intn(2) == 0 // the second consumer compiles before the FIB does
	if first {
		second, _ = compile(c.sw, older)
	}
	copied := c.copied.Value()
	reused := c.fib.Acquire()
	if !first {
		second, _ = compile(c.sw, older)
	}
	fresh := Compile(c.sw)
	c.agree(round, "reused", reused, fresh)
	c.agree(round, "from an older snapshot", second, fresh)
	if c.copied.Value() != copied && !c.replaced {
		c.counts.replayedTCAM++
	}
	c.replaced = false

	prev := c.prev
	if len(prev.tcam) > 0 && len(reused.tcam) > 0 && &prev.tcam[0] == &reused.tcam[0] {
		c.counts.sharedTCAM++
	}
	c.prev = reused
	c.older, c.seen = append(c.older, reused), append(c.seen, slotsOf(reused))
}

// agree fails the test unless snapshot s gives what a fresh Compile does
// on every packet, each arriving on a freshly drawn in-port: verdict,
// header rewrites, pipeline tallies and the live rule each packet is
// charged to.
func (c *reuseCheck) agree(round int, name string, s, fresh *Snapshot) {
	t := c.t
	if s.Gen != fresh.Gen || len(s.tcam) != len(fresh.tcam) || s.micro.Len() != fresh.micro.Len() {
		t.Fatalf("round %d: %s snapshot gen %d, %d rules, %d microflows; fresh gen %d, %d, %d", round, name,
			s.Gen, len(s.tcam), s.micro.Len(), fresh.Gen, len(fresh.tcam), fresh.micro.Len())
	}
	for i := range fresh.tcam {
		if r, f := &s.tcam[i], &fresh.tcam[i]; r.m != f.m || *r.r != *f.r {
			t.Fatalf("round %d: %s snapshot's TCAM rule %d is #%d %+v %+v, fresh #%d %+v %+v", round, name, i, r.r.id, r.m, *r.r, f.r.id, f.m, *f.r)
		}
	}
	if !slices.Equal(slotsOf(s), slotsOf(fresh)) {
		t.Fatalf("round %d: the %s snapshot's microflow table is not the one a fresh Compile takes", round, name)
	}
	var tr, tf tally
	tr.ensure(s.slots())
	tf.ensure(fresh.slots())
	for i, p := range c.pkts {
		inPort := c.rng.Intn(4)
		a, b := *p, *p
		vr, vf := s.lookup(&a, inPort, &tr), fresh.lookup(&b, inPort, &tf)
		if vr != vf || !headerEq(&a, &b) {
			t.Fatalf("round %d packet %d: %s snapshot %+v %v, fresh %+v %v", round, i, name, vr, &a, vf, &b)
		}
	}
	if tr.stats != tf.stats {
		t.Fatalf("round %d: %s snapshot tallied %+v, fresh %+v", round, name, tr.stats, tf.stats)
	}
	ar, af := attribution(s, &tr), attribution(fresh, &tf)
	if len(ar) != len(af) {
		t.Fatalf("round %d: %s snapshot charged %d rules, fresh %d", round, name, len(ar), len(af))
	}
	for live, acc := range af {
		if ar[live] != acc {
			t.Fatalf("round %d: rule %v charged %+v by the %s snapshot, %+v by a fresh one", round, live, ar[live], name, acc)
		}
	}
}

// TestSnapshotReuseQuick is the property test of the reusing recompile:
// for arbitrary tables and mutation sequences it is indistinguishable from
// a fresh Compile, and the runs do share the compiled TCAM and replay TCAM
// edits.
func TestSnapshotReuseQuick(t *testing.T) {
	var sum reuseCounts
	f := func(seed int64) bool {
		c := checkReuse(t, rand.New(rand.NewSource(seed)), seed%4 == 0)
		sum.sharedTCAM += c.sharedTCAM
		sum.replayedTCAM += c.replayedTCAM
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if sum.sharedTCAM == 0 || sum.replayedTCAM == 0 {
		t.Fatalf("%d recompiles shared the compiled TCAM and %d replayed TCAM edits; the test exercised too little reuse",
			sum.sharedTCAM, sum.replayedTCAM)
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
