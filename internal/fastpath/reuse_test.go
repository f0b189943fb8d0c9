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
		out[s.ruleAt(slot).live] = t.acc[slot]
	}
	return out
}

// reuseCounts tallies what checkReuse's recompiles reused.
type reuseCounts struct {
	sharedTCAM  int // shared the previous snapshot's compiled TCAM
	sharedMicro int // shared its whole microflow index
	// patchedMicro counts recompiles that patched the previous index,
	// copying some of its pages and sharing the rest.
	patchedMicro int
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
	pages  *obs.Counter // the FIB's fastpath.pages.copied
	pkts   []*packet.Packet
	flows  []packet.FlowKey
	prev   *Snapshot
	older  []*Snapshot  // every snapshot the FIB published, oldest first
	seen   [][]slotCopy // each older snapshot's microflow index when published
	counts reuseCounts
	// replaced is set when a ReplaceTCAM ran since the FIB's snapshot.
	replaced bool
}

// checkReuse drives a random switch through random interleavings of
// microflow and TCAM mutations. After each round the FIB's snapshot —
// recompiled from the one before it by replaying the switch's change log on
// it — must equal a fresh Compile rule for rule and agree with it on every
// packet: verdict, header rewrites, pipeline tallies and the live rule each
// packet is charged to. So must a second consumer that compiles from an
// older snapshot, one the switch's change log may no longer reach. The
// large mode grows the microflow index past 200 flows, past a page and
// through several doublings, removes flows whose probe chains wrap the end
// of the index, and makes more changes to both tables than the log holds
// between two compiles.
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
	c.pages = reg.Counter("fastpath.pages.copied")
	c.prev = c.fib.Acquire()
	c.older, c.seen = []*Snapshot{c.prev}, [][]slotCopy{slotsOf(c.prev)}
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

	// More changes than the log holds, to both tables: the next compile
	// starts over. A removal of an absent flow or rule changes nothing, so
	// it does not count.
	for changes := 0; changes <= switchsim.MaxChanges; {
		f := c.flows[rng.Intn(installed)]
		switch rng.Intn(4) {
		case 0:
			c.sw.InstallMicroflow(f, genAction(rng), switchsim.Cookie{})
			changes++
		case 1:
			if c.sw.RemoveMicroflow(f) {
				changes++
			}
		case 2:
			c.sw.Install(rng.Intn(900), genMatch(rng), genAction(rng))
			changes++
		default:
			if rules := c.sw.Rules(); len(rules) > 0 && c.sw.Remove(rules[rng.Intn(len(rules))].ID) {
				changes++
			}
		}
	}
	if v := c.sw.ViewChanged(c.prev.Gen); len(v.Changes) != 0 || v.Micro == nil || v.Ordered == nil {
		t.Fatalf("%d changes past a %d-entry log were listed (%d) instead of the whole tables", switchsim.MaxChanges+1, switchsim.MaxChanges, len(v.Changes))
	}
	c.round(-1)

	c.wrapAndRemove()
	c.unchanged()
	return c.counts
}

// slotCopy is one microflow index entry, copied out: its key, its slot,
// its compiled microflow and what that held.
type slotCopy struct {
	k    flowKey
	slot int
	p    *rule
	r    rule
}

// slotsOf copies out a snapshot's microflow index, entry by entry in slot
// order.
func slotsOf(s *Snapshot) []slotCopy {
	out := make([]slotCopy, 0, s.micro.Len())
	s.micro.Range(func(k flowKey, r *rule) bool {
		slot, _, _ := s.micro.Find(k)
		out = append(out, slotCopy{k: k, slot: slot, p: r, r: *r})
		return true
	})
	return out
}

// unchanged fails the test if a later recompile wrote to a published
// snapshot's microflow index: patches must copy a shared page first.
func (c *reuseCheck) unchanged() {
	for i, s := range c.older {
		if !slices.Equal(slotsOf(s), c.seen[i]) {
			c.t.Fatalf("snapshot %d of %d changed after it was published", i, len(c.older))
		}
	}
}

// wantDelta asserts that the switch lists the changes since the FIB's
// snapshot instead of copying a table: both tables come as edits, the TCAM
// whole only after a ReplaceTCAM.
func (c *reuseCheck) wantDelta(round int) {
	v := c.sw.ViewChanged(c.prev.Gen)
	if v.Micro != nil || (v.Ordered != nil) != c.replaced {
		c.t.Fatalf("round %d: the changes since the last compile came as %d microflows and %d rules (TCAM replaced: %v), not as %d edits",
			round, len(v.Micro), len(v.Ordered), c.replaced, len(v.Changes))
	}
}

// wrapAndRemove installs keys whose home is the index's last slot, so
// their probe chain wraps to its start, then removes them one by one: each
// removal shifts the wrapped rest of the chain back across the end.
func (c *reuseCheck) wrapAndRemove() {
	t := c.t
	for attempt := 0; ; attempt++ {
		if attempt == 4 {
			t.Fatal("no wrapped probe chain after 4 attempts")
		}
		size := c.prev.micro.Slots()
		last := size - 1
		var keys []packet.FlowKey
		for len(keys) < 3 {
			k := genPacket(c.rng).Flow()
			if w := flowKeyWords(k); int(uint64(w.Hash())*uint64(size)>>32) == last && c.prev.micro.Len() > 0 {
				if _, _, held := c.prev.micro.Find(w); !held {
					keys = append(keys, k)
				}
			}
		}
		for _, k := range keys {
			c.sw.InstallMicroflow(k, genAction(c.rng), switchsim.Cookie{})
		}
		c.pkts = append(c.pkts, &packet.Packet{Src: keys[0].Src, Dst: keys[0].Dst, SrcPort: keys[0].SrcPort, DstPort: keys[0].DstPort, Proto: keys[0].Proto, TTL: 64})
		c.round(-2)
		if c.prev.micro.Slots() != size {
			for _, k := range keys { // the install grew the index: again at the new size
				c.sw.RemoveMicroflow(k)
			}
			c.round(-2)
			continue
		}
		wrapped := 0
		for _, k := range keys {
			if i, _, _ := c.prev.micro.Find(flowKeyWords(k)); i < last {
				wrapped++
			}
		}
		if wrapped < 2 {
			t.Fatalf("%d of 3 keys homed at slot %d sit past the end of the index", wrapped, last)
		}
		for _, k := range keys {
			c.sw.RemoveMicroflow(k)
			c.round(-3)
		}
		return
	}
}

// round publishes the FIB's next snapshot and checks it, and a compile
// from a randomly chosen older snapshot, against a fresh Compile.
func (c *reuseCheck) round(round int) {
	t := c.t
	older := c.older[c.rng.Intn(len(c.older))]
	var second *Snapshot
	first := c.rng.Intn(2) == 0 // the second consumer compiles before the FIB does
	if first {
		second, _ = compile(c.sw, older)
	}
	copied, pages := c.copied.Value(), c.pages.Value()
	reused := c.fib.Acquire()
	if !first {
		second, _ = compile(c.sw, older)
	}
	fresh := Compile(c.sw)
	c.agree(round, "reused", reused, fresh)
	c.agree(round, "from an older snapshot", second, fresh)
	checkIndex(t, round, reused)
	if c.copied.Value() != copied && !c.replaced {
		c.counts.replayedTCAM++
	}
	c.replaced = false

	prev := c.prev
	if len(prev.tcam) > 0 && len(reused.tcam) > 0 && &prev.tcam[0] == &reused.tcam[0] {
		c.counts.sharedTCAM++
	}
	if prev.micro.Len() > 0 && reused.micro.Len() > 0 {
		switch pages := int(c.pages.Value() - pages); {
		case pages == 0 && slices.Equal(slotsOf(prev), slotsOf(reused)):
			c.counts.sharedMicro++
		case pages > 0 && pages < reused.micro.Pages():
			c.counts.patchedMicro++
		}
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
	fresh.micro.Range(func(k flowKey, want *rule) bool {
		if _, r, ok := s.micro.Find(k); !ok || *r != *want {
			t.Fatalf("round %d: %s snapshot's microflow %x is %+v (held: %v), fresh %+v", round, name, k, r, ok, *want)
		}
		return true
	})
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

// checkIndex checks a microflow index's shape: at most half full, at most
// a quarter of its pages copied since it was last laid out, and each entry
// a compiled microflow found in its own slot. The index's own tests check
// its probe chains.
func checkIndex(t *testing.T, round int, s *Snapshot) {
	t.Helper()
	tb := &s.micro
	if 8*tb.Len() > microLoad*tb.Slots() {
		t.Fatalf("round %d: %d entries in %d slots, past %d per 8", round, tb.Len(), tb.Slots(), microLoad)
	}
	if 4*tb.Loose() > tb.Pages() {
		t.Fatalf("round %d: %d of %d pages are loose; past a quarter the index is laid out again", round, tb.Loose(), tb.Pages())
	}
	n := 0
	tb.Range(func(k flowKey, r *rule) bool {
		n++
		if i, _, ok := tb.Find(k); !ok || tb.At(i) != r || r == nil || r.live == nil {
			t.Fatalf("round %d: the entry for %x is not a compiled microflow in its slot", round, k)
		}
		return true
	})
	if n != tb.Len() {
		t.Fatalf("round %d: the index holds %d entries and counts %d", round, n, tb.Len())
	}
}

// TestSnapshotReuseQuick is the property test of the reusing recompile:
// for arbitrary tables and mutation sequences it is indistinguishable from
// a fresh Compile, and the runs do share both tables, patch the microflow
// index and replay TCAM edits.
func TestSnapshotReuseQuick(t *testing.T) {
	var sum reuseCounts
	f := func(seed int64) bool {
		c := checkReuse(t, rand.New(rand.NewSource(seed)), seed%4 == 0)
		sum.sharedTCAM += c.sharedTCAM
		sum.sharedMicro += c.sharedMicro
		sum.patchedMicro += c.patchedMicro
		sum.replayedTCAM += c.replayedTCAM
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if sum.sharedTCAM == 0 || sum.sharedMicro == 0 || sum.patchedMicro == 0 || sum.replayedTCAM == 0 {
		t.Fatalf("%d recompiles shared the compiled TCAM, %d the microflow index, %d patched it and %d replayed TCAM edits; the test exercised too little reuse",
			sum.sharedTCAM, sum.sharedMicro, sum.patchedMicro, sum.replayedTCAM)
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
// index is patched, grown and shrunk while acquirers race to recompile,
// often from the same snapshot; run it under -race. After the churn the
// snapshot gives Process's verdict and rewrites on every packet.
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
	checkIndex(t, 0, snap)
	for i, p := range pkts {
		a, b := *p, *p
		v, want := fib.Step(&a, i%4), sw.Process(&b, i%4)
		if v.Output != want.Output || v.Drop != want.Drop || v.ToController != want.ToController || !headerEq(&a, &b) {
			t.Fatalf("packet %d after the churn: snapshot %+v %v, Process out=%d drop=%v punt=%v %v", i, v, &a, want.Output, want.Drop, want.ToController, &b)
		}
	}
}
