package fastpath

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/switchsim"
)

// ruleSpec is a reproducible rule description, so reference and
// fast-path switches can be built identically.
type ruleSpec struct {
	prio int
	m    switchsim.Match
	a    switchsim.Action
}

// genAction draws a random action: forward, drop, punt, or a
// resubmit/rewrite combination exercising every rewrite field.
func genAction(r *rand.Rand) switchsim.Action {
	var a switchsim.Action
	a.Output = -1
	switch r.Intn(5) {
	case 0:
		a.Output = r.Intn(4)
	case 1:
		a.Drop = true
	case 2:
		a.ToController = true
	case 3:
		a.Resubmit = true
	case 4:
		a.Output = []int{switchsim.PortUE, switchsim.PortExit, switchsim.PortTunnelBase + r.Intn(3)}[r.Intn(3)]
	}
	if r.Intn(3) == 0 {
		a.Set |= switchsim.SetSrc
		a.Src = packet.Addr(r.Uint32() % 64)
	}
	if r.Intn(3) == 0 {
		a.Set |= switchsim.SetDst
		a.Dst = packet.Addr(r.Uint32() % 64)
	}
	if r.Intn(4) == 0 {
		a.Set |= switchsim.SetSrcPort
		a.SrcPort = uint16(r.Intn(1 << 12))
	}
	if r.Intn(4) == 0 {
		a.Set |= switchsim.SetDstPort
		a.DstPort = uint16(r.Intn(1 << 12))
	}
	if r.Intn(4) == 0 {
		a.Set |= switchsim.SetSrcTag
		a.SrcTag = packet.Tag(r.Intn(15) + 1)
		a.TagEphBits = 10
	}
	if r.Intn(4) == 0 {
		a.Set |= switchsim.SetDstTag
		a.DstTag = packet.Tag(r.Intn(15) + 1)
		a.TagEphBits = 10
	}
	if r.Intn(5) == 0 {
		a.Set |= switchsim.SetDSCP
		a.DSCP = uint8(r.Intn(64))
	}
	return a
}

// genMatch draws a random match over a small address pool so packets
// actually hit rules.
func genMatch(r *rand.Rand) switchsim.Match {
	m := switchsim.Match{InPort: switchsim.AnyPort}
	if r.Intn(2) == 0 {
		m.InPort = int32(r.Intn(4))
	}
	if r.Intn(2) == 0 {
		m.Src = packet.Prefix{Addr: packet.Addr(r.Uint32() % 64), Len: []int{8, 16, 24, 32}[r.Intn(4)]}
	}
	if r.Intn(2) == 0 {
		m.Dst = packet.Prefix{Addr: packet.Addr(r.Uint32() % 64), Len: []int{8, 16, 24, 32}[r.Intn(4)]}
	}
	if r.Intn(3) == 0 {
		lo := uint16(r.Intn(1 << 12))
		m.SrcPortLo, m.SrcPortHi = lo, lo+uint16(r.Intn(1<<10))
	}
	if r.Intn(3) == 0 {
		lo := uint16(r.Intn(1 << 12))
		m.DstPortLo, m.DstPortHi = lo, lo+uint16(r.Intn(1<<10))
	}
	if r.Intn(3) == 0 {
		m.Proto = []packet.Proto{packet.ProtoTCP, packet.ProtoUDP}[r.Intn(2)]
	}
	return m
}

func genSpecs(r *rand.Rand, n int) []ruleSpec {
	specs := make([]ruleSpec, n)
	for i := range specs {
		specs[i] = ruleSpec{prio: r.Intn(900), m: genMatch(r), a: genAction(r)}
	}
	return specs
}

func buildSwitch(specs []ruleSpec, miss switchsim.Action) *switchsim.Switch {
	sw := switchsim.NewSwitch("t")
	sw.TableMiss = miss
	for _, s := range specs {
		sw.Install(s.prio, s.m, s.a)
	}
	return sw
}

func genPacket(r *rand.Rand) *packet.Packet {
	return &packet.Packet{
		Src:     packet.Addr(r.Uint32() % 64),
		Dst:     packet.Addr(r.Uint32() % 64),
		SrcPort: uint16(r.Intn(1 << 13)),
		DstPort: uint16(r.Intn(1 << 13)),
		Proto:   []packet.Proto{packet.ProtoTCP, packet.ProtoUDP}[r.Intn(2)],
		TTL:     64,
		Payload: make([]byte, r.Intn(64)),
	}
}

// pipelineCounters are the series a switch counts every packet's pipeline
// outcome in, whether Process or the fast path ran it.
var pipelineCounters = []string{"switchsim.packets", "switchsim.micro.hit", "switchsim.micro.miss",
	"switchsim.tcam.hit", "switchsim.tcam.miss", "switchsim.punt", "switchsim.drop"}

// instrumented instruments sw on a registry of its own and returns it.
func instrumented(sw *switchsim.Switch) *obs.Registry {
	reg := obs.New()
	sw.Instrument(reg)
	return reg
}

// ruleID is the ID of the rule a verdict names, 0 for none.
func ruleID(v switchsim.Verdict) switchsim.RuleID {
	if v.Rule == nil {
		return 0
	}
	return v.Rule.ID
}

func headerEq(a, b *packet.Packet) bool {
	return a.Src == b.Src && a.Dst == b.Dst &&
		a.SrcPort == b.SrcPort && a.DstPort == b.DstPort &&
		a.Proto == b.Proto && a.DSCP == b.DSCP
}

// wantDisp is the disposition a walk through a one-switch Net with no
// links and no tunnels ends in, for a packet Process gives verdict v: a
// forwarding port has nowhere to lead, so it falls to the slow path.
func wantDisp(v switchsim.Verdict) Disp {
	switch {
	case v.ToController:
		return DispPunted
	case v.Drop:
		return DispDropped
	case v.Output == switchsim.PortUE:
		return DispDelivered
	case v.Output == switchsim.PortExit:
		return DispExited
	default:
		return DispSlow
	}
}

// checkEquivalence builds a random switch and burst from rng and fails t
// if a burst walked through the switch, or the same packets stepped one by
// one through Net.Step on a second identical switch, differs from the
// sequential Process path over a third: the walk in disposition and
// header, the step in verdict and header, and both in traffic accounting.
func checkEquivalence(t *testing.T, rng *rand.Rand) {
	t.Helper()
	specs := genSpecs(rng, 1+rng.Intn(24))
	misses := []switchsim.Action{
		{Output: -1},
		switchsim.DropAction(),
		switchsim.Punt(),
		{Output: rng.Intn(4)},
	}
	miss := misses[rng.Intn(len(misses))]
	fast := buildSwitch(specs, miss)
	step := buildSwitch(specs, miss)
	ref := buildSwitch(specs, miss)
	regs := map[*switchsim.Switch]*obs.Registry{fast: instrumented(fast), step: instrumented(step), ref: instrumented(ref)}

	burst := make([]*packet.Packet, 1+rng.Intn(64))
	single := make([]*packet.Packet, len(burst))
	seq := make([]*packet.Packet, len(burst))
	for i := range burst {
		burst[i] = genPacket(rng)
		c, d := *burst[i], *burst[i]
		single[i], seq[i] = &c, &d
	}
	// Microflows for a few of the burst's flows, on every switch.
	var flows []packet.FlowKey
	for i := 0; i < len(burst); i += 3 {
		a := genAction(rng)
		flows = append(flows, burst[i].Flow())
		for _, sw := range []*switchsim.Switch{fast, step, ref} {
			sw.InstallMicroflow(burst[i].Flow(), a, switchsim.Cookie{})
		}
	}
	inPort := rng.Intn(4)

	walk := NewNet(NetConfig{Switches: []*switchsim.Switch{fast}, Links: [][]Link{nil}}).NewWalker()
	got := walk.Walk(0, inPort, burst, make([]Result, len(burst)))
	stepNet := NewNet(NetConfig{Switches: []*switchsim.Switch{step}, Links: [][]Link{nil}})
	for i := range burst {
		key := single[i].Flow()
		want := ref.Process(seq[i], inPort)
		if w := (Result{Disp: wantDisp(want), Hops: 1}); got[i] != w {
			t.Fatalf("packet %d: walk %s at node %d after %d hops, want %s at 0 after 1 (Process out=%d drop=%v punt=%v)",
				i, got[i].Disp, got[i].Last, got[i].Hops, w.Disp, want.Output, want.Drop, want.ToController)
		}
		if !headerEq(burst[i], seq[i]) {
			t.Fatalf("packet %d: walk header %v != Process header %v", i, burst[i], seq[i])
		}
		wantID := ruleID(want)
		// A microflow verdict names the entry of the packet's own five-tuple,
		// on each switch its own.
		var wantFlow *switchsim.Flow
		if want.Flow != nil {
			if rf, _ := ref.Microflow(key); want.Flow != rf {
				t.Fatalf("packet %d: Process named microflow %p, the packet's entry is %p", i, want.Flow, rf)
			}
			wantFlow, _ = step.Microflow(key)
		}
		g := stepNet.Step(0, single[i], inPort)
		if ruleID(g) != wantID || g.Flow != wantFlow || g.Output != want.Output || g.Drop != want.Drop || g.ToController != want.ToController {
			t.Fatalf("packet %d: step verdict (rule=%d flow=%p out=%d drop=%v punt=%v) != Process (rule=%d flow=%p out=%d drop=%v punt=%v)",
				i, ruleID(g), g.Flow, g.Output, g.Drop, g.ToController, wantID, wantFlow, want.Output, want.Drop, want.ToController)
		}
		if !headerEq(single[i], seq[i]) {
			t.Fatalf("packet %d: step header %v != Process header %v", i, single[i], seq[i])
		}
	}

	// The pipelines must account identically too: the switch's pipeline
	// counters and per-rule traffic counters.
	for _, c := range []struct {
		name string
		sw   *switchsim.Switch
	}{{"walk", fast}, {"step", step}} {
		for _, name := range pipelineCounters {
			if got, want := regs[c.sw].Counter(name).Value(), regs[ref].Counter(name).Value(); got != want {
				t.Fatalf("%s: %s %d != sequential %d", name, c.name, got, want)
			}
		}
		fr, rr := c.sw.Rules(), ref.Rules()
		for i := range fr {
			if fr[i].Packets != rr[i].Packets || fr[i].Bytes != rr[i].Bytes {
				t.Fatalf("rule %d counters: %s %d/%dB != sequential %d/%dB",
					fr[i].ID, c.name, fr[i].Packets, fr[i].Bytes, rr[i].Packets, rr[i].Bytes)
			}
		}
		for _, k := range flows {
			fm, _ := c.sw.Microflow(k)
			rm, _ := ref.Microflow(k)
			if fp, rp := atomic.LoadUint64(&fm.Packets), atomic.LoadUint64(&rm.Packets); fp != rp {
				t.Fatalf("microflow %v packets: %s %d != sequential %d", k, c.name, fp, rp)
			}
			if fb, rb := atomic.LoadUint64(&fm.Bytes), atomic.LoadUint64(&rm.Bytes); fb != rb {
				t.Fatalf("microflow %v bytes: %s %d != sequential %d", k, c.name, fb, rb)
			}
		}
	}
}

// TestBurstEquivalenceQuick is the property test: for arbitrary tables
// and bursts, a Walker's burst ≡ packet-by-packet Net.Step ≡ sequential
// Process — dispositions and verdicts, header rewrites, and traffic
// accounting.
func TestBurstEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		checkEquivalence(t, rand.New(rand.NewSource(seed)))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBurstEquivalence drives the same differential check from fuzzed
// seeds; the corpus in testdata/fuzz pins known-tricky table shapes
// (resubmit chains, overlapping priorities, tag rewrites).
func FuzzBurstEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(0x5071ce11)) // softcell
	f.Add(int64(-987654321))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkEquivalence(t, rand.New(rand.NewSource(seed)))
	})
}

// TestSnapshotGeneration checks staleness detection: a sealed view (the
// switch's snapshot of its tables) is served only while the switch's
// generation matches, every mutation kind moves the generation, and a
// failed removal moves nothing.
func TestSnapshotGeneration(t *testing.T) {
	sw := switchsim.NewSwitch("gen")

	v1 := sw.View()
	if v1.Gen != sw.Generation() {
		t.Fatalf("view gen %d != switch gen %d", v1.Gen, sw.Generation())
	}
	if sw.View() != v1 {
		t.Fatal("an unchanged switch must serve the view it sealed")
	}

	id := sw.Install(10, switchsim.Match{InPort: switchsim.AnyPort}, switchsim.Action{Output: 1})
	v2 := sw.View()
	if v2 == v1 || v2.Gen <= v1.Gen {
		t.Fatalf("Install must invalidate: gen %d -> %d, same=%v", v1.Gen, v2.Gen, v2 == v1)
	}
	if v2.TCAM.Len() != 1 {
		t.Fatalf("the new view has %d rules, want 1", v2.TCAM.Len())
	}

	mutations := []func(){
		func() { sw.Remove(id) },
		func() { sw.InstallMicroflow(packet.FlowKey{Src: 1}, switchsim.Action{Output: 2}, switchsim.Cookie{}) },
		func() { sw.RemoveMicroflow(packet.FlowKey{Src: 1}) },
		func() { sw.Install(5, switchsim.Match{InPort: switchsim.AnyPort}, switchsim.DropAction()) },
		func() { sw.ReplaceTCAM(nil) },
	}
	for i, mut := range mutations {
		before := sw.View()
		mut()
		if after := sw.View(); after.Gen <= before.Gen {
			t.Fatalf("mutation %d did not bump the generation (%d -> %d)", i, before.Gen, after.Gen)
		}
	}

	before := sw.View()
	if sw.Remove(id) {
		t.Fatal("double remove reported success")
	}
	if sw.RemoveMicroflow(packet.FlowKey{Src: 9}) {
		t.Fatal("removing an absent microflow reported success")
	}
	if sw.View() != before {
		t.Fatal("failed removals must not invalidate the view")
	}
}

// TestStepServesTheCurrentTable: a single step after a table mutation
// sees the new table (the view is sealed anew, never served stale), and
// a step on a current view allocates nothing.
func TestStepServesTheCurrentTable(t *testing.T) {
	sw := switchsim.NewSwitch("step")
	reg := instrumented(sw)
	sw.Install(10, switchsim.Match{InPort: switchsim.AnyPort}, switchsim.Action{Output: 1})
	n := NewNet(NetConfig{Switches: []*switchsim.Switch{sw}, Links: [][]Link{nil}})
	p := &packet.Packet{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoTCP}
	if v := n.Step(0, p, 0); v.Output != 1 {
		t.Fatalf("step output %d, want 1", v.Output)
	}
	sw.InstallMicroflow(p.Flow(), switchsim.Action{Output: 2}, switchsim.Cookie{})
	if v := n.Step(0, p, 0); v.Output != 2 {
		t.Fatalf("step after InstallMicroflow output %d, want the new microflow's 2", v.Output)
	}
	if c := reg.Counter("switchsim.view.sealed").Value(); c != 2 {
		t.Fatalf("switchsim.view.sealed = %d, want 2 (one per generation)", c)
	}
	if a := testing.AllocsPerRun(100, func() { n.Step(0, p, 0) }); a != 0 {
		t.Fatalf("Step allocates %.1f objects per packet, want 0", a)
	}
	// Two steps above, plus AllocsPerRun's warm-up call and its 100 runs.
	if got := reg.Counter("switchsim.packets").Value(); got != 103 {
		t.Fatalf("switchsim.packets = %d, want 103", got)
	}
}

// TestSnapshotSwapRace stresses concurrent burst walkers against a
// control-plane mutator; run under -race it proves the steady state
// shares no locks and the seal protocol is sound. Verdicts during churn
// only need to be self-consistent; after the mutator stops, a final step
// must match the sequential path exactly.
func TestSnapshotSwapRace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := genSpecs(rng, 16)
	sw := buildSwitch(specs, switchsim.Action{Output: -1})
	net := NewNet(NetConfig{Switches: []*switchsim.Switch{sw}, Links: [][]Link{nil}})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			w := net.NewWalker()
			burst := make([]*packet.Packet, 32)
			res := make([]Result, len(burst))
			for !stop.Load() {
				for i := range burst {
					burst[i] = genPacket(r)
				}
				w.Walk(0, r.Intn(4), burst, res)
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		var ids []switchsim.RuleID
		for i := 0; i < 400; i++ {
			switch r.Intn(4) {
			case 0:
				ids = append(ids, sw.Install(r.Intn(900), genMatch(r), genAction(r)))
			case 1:
				if len(ids) > 0 {
					sw.Remove(ids[len(ids)-1])
					ids = ids[:len(ids)-1]
				}
			case 2:
				sw.InstallMicroflow(genPacket(r).Flow(), genAction(r), switchsim.Cookie{})
			case 3:
				sw.Install(r.Intn(900), genMatch(r), genAction(r))
			}
		}
		stop.Store(true)
	}()
	wg.Wait()

	// Post-churn: the next View is at the final generation and the fast
	// path agrees with Process again.
	if v := sw.View(); v.Gen != sw.Generation() {
		t.Fatalf("post-churn view gen %d != switch gen %d", v.Gen, sw.Generation())
	}
	p1, p2 := genPacket(rng), genPacket(rng)
	*p2 = *p1
	v := net.Step(0, p1, 0)
	want := sw.Process(p2, 0)
	if v.Output != want.Output || v.Drop != want.Drop || v.ToController != want.ToController {
		t.Fatalf("post-churn divergence: step %+v vs process out=%d drop=%v punt=%v",
			v, want.Output, want.Drop, want.ToController)
	}
}

// TestWalkerWalk drives bursts through a 3-node line (access - core -
// gateway) and checks dispositions, hop counts, tunnel forwarding, and
// the slow-path classifications.
func TestWalkerWalk(t *testing.T) {
	// Topology: node 0 (access) -port0-> node 1 (core) -port1-> node 2
	// (gateway). Reverse links exist but carry no rules.
	sws := []*switchsim.Switch{
		switchsim.NewSwitch("access"), switchsim.NewSwitch("core"), switchsim.NewSwitch("gw"),
	}
	links := [][]Link{
		{{Next: 1, InPort: 0}},                       // access port 0 -> core in 0
		{{Next: 0, InPort: 0}, {Next: 2, InPort: 0}}, // core: port 0 back, port 1 -> gw
		{{Next: 1, InPort: 1}},                       // gw port 0 back to core
	}
	dstUE := packet.Prefix{Addr: 10, Len: 32}
	dstNet := packet.Prefix{Addr: 99, Len: 32}
	// Upstream: access forwards to core, core to gateway, gateway exits.
	sws[0].Install(100, switchsim.Match{InPort: switchsim.AnyPort, Dst: dstNet}, switchsim.Action{Output: 0})
	sws[1].Install(100, switchsim.Match{InPort: switchsim.AnyPort, Dst: dstNet}, switchsim.Action{Output: 1})
	sws[2].Install(100, switchsim.Match{InPort: switchsim.AnyPort, Dst: dstNet}, switchsim.Action{Output: switchsim.PortExit})
	// Downstream delivery at the access switch.
	sws[0].Install(100, switchsim.Match{InPort: switchsim.AnyPort, Dst: dstUE}, switchsim.Action{Output: switchsim.PortUE})
	// A mobility tunnel entry at the core: traffic to Addr 20 tunnels to
	// base station 7, whose access node is node 0.
	dstMob := packet.Prefix{Addr: 20, Len: 32}
	sws[1].Install(700, switchsim.Match{InPort: switchsim.AnyPort, Dst: dstMob}, switchsim.Action{Output: switchsim.PortTunnelBase + 7})
	sws[0].Install(100, switchsim.Match{InPort: switchsim.PortUE, Dst: dstMob}, switchsim.Action{Output: 0})
	sws[0].Install(100, switchsim.Match{InPort: switchsim.PortTunnelBase, Dst: dstMob}, switchsim.Action{Output: switchsim.PortUE})
	// A middlebox-ish port with no link entry at the access switch.
	dstMB := packet.Prefix{Addr: 30, Len: 32}
	sws[0].Install(100, switchsim.Match{InPort: switchsim.AnyPort, Dst: dstMB}, switchsim.Action{Output: 5})

	reg := obs.New()
	net := NewNet(NetConfig{
		Switches: sws,
		Links:    links,
		Tunnels:  map[packet.BSID]int32{7: 0},
		Obs:      reg,
	})
	mk := func(dst packet.Addr) *packet.Packet {
		return &packet.Packet{Src: 10, Dst: dst, SrcPort: 1000, DstPort: 80, Proto: packet.ProtoTCP, TTL: 64}
	}
	pkts := []*packet.Packet{mk(99), mk(10), mk(20), mk(30), mk(50)}
	res := net.NewWalker().Walk(0, switchsim.PortUE, pkts, make([]Result, len(pkts)))

	want := []struct {
		disp Disp
		last int32
		hops int32
	}{
		{DispExited, 2, 3},    // up through the line and out
		{DispDelivered, 0, 1}, // delivered at the access switch
		{DispDelivered, 0, 3}, // access -> core -> tunnel back to access
		{DispSlow, 0, 1},      // unlinked (middlebox) port
		{DispDropped, 0, 1},   // table miss drops
	}
	for i, w := range want {
		if res[i].Disp != w.disp || res[i].Last != w.last || res[i].Hops != w.hops {
			t.Errorf("packet %d: got %s at node %d after %d hops, want %s at %d after %d",
				i, res[i].Disp, res[i].Last, res[i].Hops, w.disp, w.last, w.hops)
		}
	}

	// SlowExit reroutes exits to the slow path.
	slow := NewNet(NetConfig{Switches: sws, Links: links, Tunnels: map[packet.BSID]int32{7: 0}, SlowExit: true})
	r2 := slow.NewWalker().Walk(0, switchsim.PortUE, []*packet.Packet{mk(99)}, make([]Result, 1))
	if r2[0].Disp != DispSlow {
		t.Fatalf("SlowExit: got %s, want %s", r2[0].Disp, DispSlow)
	}

	// A forwarding loop must exhaust the hop budget, not hang.
	loop := []*switchsim.Switch{switchsim.NewSwitch("a"), switchsim.NewSwitch("b")}
	loop[0].Install(1, switchsim.Match{InPort: switchsim.AnyPort}, switchsim.Action{Output: 0})
	loop[1].Install(1, switchsim.Match{InPort: switchsim.AnyPort}, switchsim.Action{Output: 0})
	ln := NewNet(NetConfig{
		Switches: loop,
		Links:    [][]Link{{{Next: 1, InPort: 0}}, {{Next: 0, InPort: 0}}},
		Obs:      reg,
	})
	r3 := ln.NewWalker().Walk(0, 0, []*packet.Packet{mk(1)}, make([]Result, 1))
	if r3[0].Disp != DispLoop || reg.Counter("fastpath.looped").Value() != 1 {
		t.Fatalf("loop: got %s, want %s, and %d packets counted looping", r3[0].Disp, DispLoop, reg.Counter("fastpath.looped").Value())
	}

	// Telemetry flowed: packets walked and bursts observed.
	if reg.Counter("fastpath.packets").Value() == 0 {
		t.Fatal("fastpath.packets counter never moved")
	}
	if reg.Counter("fastpath.bursts").Value() == 0 {
		t.Fatal("fastpath.bursts counter never moved")
	}
}

// TestDispNames checks that each disposition prints a name of its own,
// and one out of range its number.
func TestDispNames(t *testing.T) {
	seen := map[string]Disp{}
	for d := DispDelivered; d <= DispLoop; d++ {
		if o, dup := seen[d.String()]; dup || d.String() == "disp("+strconv.Itoa(int(d))+")" {
			t.Fatalf("disposition %d prints %q, as %d does or as an unknown one", d, d.String(), o)
		}
		seen[d.String()] = d
	}
	if got := Disp(42).String(); got != "disp(42)" {
		t.Fatalf("an unknown disposition prints %q", got)
	}
}

// TestConcurrentWalkers walks many bursts from concurrent walkers on
// one Net and checks every packet is delivered and counted once.
func TestConcurrentWalkers(t *testing.T) {
	sw := switchsim.NewSwitch("s")
	reg := instrumented(sw)
	sw.Install(1, switchsim.Match{InPort: switchsim.AnyPort}, switchsim.Action{Output: switchsim.PortUE})
	net := NewNet(NetConfig{Switches: []*switchsim.Switch{sw}, Links: [][]Link{{}}})

	const walkers, bursts = 4, 16
	var wg sync.WaitGroup
	for w := 0; w < walkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			walker := net.NewWalker()
			for b := 0; b < bursts; b++ {
				pkts := make([]*packet.Packet, 8)
				for i := range pkts {
					pkts[i] = &packet.Packet{Src: packet.Addr(w*bursts + b), Dst: 1, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}
				}
				res := walker.Walk(0, switchsim.PortUE, pkts, make([]Result, len(pkts)))
				for i := range res {
					if res[i].Disp != DispDelivered {
						t.Errorf("walker %d burst %d packet %d: %s, want delivered", w, b, i, res[i].Disp)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("switchsim.packets").Value(); got != walkers*bursts*8 {
		t.Fatalf("switch processed %d packets, want %d", got, walkers*bursts*8)
	}
}

// TestWarmExaminesOnlyChangedSwitches: the first Warm seals every
// switch's view, a Warm with no table changed since examines none, and
// after a change to one switch it examines that one and leaves its view
// current, so the next View seals nothing.
func TestWarmExaminesOnlyChangedSwitches(t *testing.T) {
	reg := obs.New()
	sws := make([]*switchsim.Switch, 3)
	for i := range sws {
		sws[i] = switchsim.NewSwitch("s" + strconv.Itoa(i))
		sws[i].Instrument(reg)
	}
	sealed := reg.Counter("switchsim.view.sealed")
	net := NewNet(NetConfig{Switches: sws, Links: make([][]Link, len(sws))})
	if n := net.Warm(); n != len(sws) || sealed.Value() != uint64(len(sws)) {
		t.Fatalf("first Warm examined %d switches and sealed %d views, want %d", n, sealed.Value(), len(sws))
	}
	if n := net.Warm(); n != 0 {
		t.Fatalf("a Warm with nothing changed examined %d switches", n)
	}
	sws[1].InstallMicroflow(packet.FlowKey{Src: 1, Dst: 2, Proto: packet.ProtoTCP}, switchsim.Action{Output: 1}, switchsim.Cookie{})
	if n := net.Warm(); n != 1 {
		t.Fatalf("a Warm after one switch changed examined %d switches, want 1", n)
	}
	for i, sw := range sws {
		if v := sw.View(); v.Gen != sw.Generation() || sealed.Value() != uint64(len(sws)+1) {
			t.Fatalf("switch %d's view is not current after Warm (%d views sealed)", i, sealed.Value())
		}
	}
}
