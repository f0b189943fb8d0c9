package dataplane

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mbox"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// newPlainNet builds a middlebox-free line network (gateway - core - two
// access switches) under a pure-allow policy, so established flows stay
// entirely on the fast path.
func newPlainNet(t *testing.T) *Network { return newPlainNetN(t, 2) }

// newPlainNetN is newPlainNet with the given number of access switches.
func newPlainNetN(t testing.TB, stations int) *Network { return newPlainLine(t, stations, 1) }

// newPlainLine is newPlainNetN with a line of cores core switches between
// the gateway and the access switches, so a packet crosses cores+2
// switches each way.
func newPlainLine(t testing.TB, stations, cores int) *Network {
	t.Helper()
	tp := topo.New()
	gw := tp.AddNode(topo.Gateway, "gw")
	line := []topo.NodeID{gw}
	for i := 0; i < cores; i++ {
		line = append(line, tp.AddNode(topo.Core, "cs"))
	}
	for i := 0; i < stations; i++ {
		as := tp.AddNode(topo.Access, "as")
		if err := tp.AddBaseStation(packet.BSID(i), as); err != nil {
			t.Fatal(err)
		}
		if err := tp.Connect(line[cores], as); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cores; i++ {
		if err := tp.Connect(line[i], line[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	pol := &policy.Policy{}
	pol.Add(policy.Clause{Priority: 10, Name: "allow-A",
		Pred: policy.Attr(policy.FieldProvider, "A"), Action: policy.Via()})
	ctrl, err := core.NewController(tp, core.ControllerConfig{Gateway: gw, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	reg := mbox.NewRegistry(ctrl.Plan(), packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24))
	net, err := New(ctrl, Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestBurstPureFastPath sends an established flow as a burst and checks
// it completes on the fast path with the same outcome and headers as the
// sequential walk on a twin network.
func TestBurstPureFastPath(t *testing.T) {
	mk := func() (*Network, core.UE) {
		net := newPlainNet(t)
		_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
		ue, err := net.Attach("a", 0)
		if err != nil {
			t.Fatal(err)
		}
		// Prime: first packet installs the flow's microflows and paths.
		if _, err := net.SendUpstream(0, webPacket(ue, 40000)); err != nil {
			t.Fatal(err)
		}
		return net, ue
	}
	fastNet, ue := mk()
	refNet, ue2 := mk()
	if ue.PermIP != ue2.PermIP || ue.LocIP != ue2.LocIP {
		t.Fatalf("twin networks diverged: %+v vs %+v", ue, ue2)
	}

	reg := obs.New()
	fastNet.Instrument(reg)
	fastNet.EnableFastPath(2)
	defer fastNet.DisableFastPath()
	sender, err := fastNet.NewBurstSender()
	if err != nil {
		t.Fatal(err)
	}

	const burst = 32
	pkts := make([]*packet.Packet, burst)
	refs := make([]*packet.Packet, burst)
	for i := range pkts {
		pkts[i] = webPacket(ue, 40000)
		pkts[i].Seq = uint32(i)
		refs[i] = webPacket(ue2, 40000)
		refs[i].Seq = uint32(i)
	}
	out, err := sender.Send(0, pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		wr, err := refNet.SendUpstream(0, refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if out[i].Slow {
			t.Fatalf("packet %d fell to the slow path on a middlebox-free established flow", i)
		}
		if out[i].Disposition != wr.Disposition || out[i].Last != wr.Last || out[i].Hops != len(wr.Hops) {
			t.Fatalf("packet %d: burst %s at %d (%d hops) != sequential %s at %d (%d hops)",
				i, out[i].Disposition, out[i].Last, out[i].Hops, wr.Disposition, wr.Last, len(wr.Hops))
		}
		if pkts[i].Src != refs[i].Src || pkts[i].Dst != refs[i].Dst ||
			pkts[i].SrcPort != refs[i].SrcPort || pkts[i].DstPort != refs[i].DstPort || pkts[i].DSCP != refs[i].DSCP {
			t.Fatalf("packet %d headers diverged: %v vs %v", i, pkts[i], refs[i])
		}
	}
	if got := atomic.LoadUint64(&fastNet.Exited); got != 1+burst {
		t.Fatalf("Exited = %d, want %d", got, 1+burst)
	}
	if v := reg.Counter("dataplane.burst.packets").Value(); v != burst {
		t.Fatalf("dataplane.burst.packets = %d, want %d", v, burst)
	}
	if v := reg.Counter("fastpath.packets").Value(); v != burst {
		t.Fatalf("fastpath.packets = %d, want %d", v, burst)
	}
	if v := reg.Counter("dataplane.slowpath").Value(); v != 0 {
		t.Fatalf("dataplane.slowpath = %d, want 0", v)
	}
}

// TestBurstSlowPathFallback runs bursts over the fig3 network, where every
// allowed flow traverses a firewall: the fast path must decline each
// packet and the replay must match the sequential path end to end,
// including the punt choreography for brand-new flows.
func TestBurstSlowPathFallback(t *testing.T) {
	fastNet, _ := newNet(t, packet.Prefix{})
	refNet, _ := newNet(t, packet.Prefix{})
	for _, n := range []*Network{fastNet, refNet} {
		_ = n.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
		if _, err := n.Attach("a", 0); err != nil {
			t.Fatal(err)
		}
	}
	ue, _ := fastNet.Ctrl.LookupUE("a")

	fastNet.EnableFastPath(1)
	defer fastNet.DisableFastPath()
	sender, err := fastNet.NewBurstSender()
	if err != nil {
		t.Fatal(err)
	}

	// Three flows, two packets each, interleaved in one burst — the first
	// packet of each flow punts and installs state, the rest replay off
	// the firewall port.
	var pkts, refs []*packet.Packet
	for i := 0; i < 6; i++ {
		sport := uint16(40000 + i%3)
		pkts = append(pkts, webPacket(ue, sport))
		refs = append(refs, webPacket(ue, sport))
	}
	out, err := sender.Send(0, pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		wr, err := refNet.SendUpstream(0, refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !out[i].Slow {
			t.Fatalf("packet %d claims pure fast path through a firewall", i)
		}
		if out[i].Disposition != wr.Disposition || out[i].Last != wr.Last {
			t.Fatalf("packet %d: burst %s at %d != sequential %s at %d",
				i, out[i].Disposition, out[i].Last, wr.Disposition, wr.Last)
		}
		if pkts[i].Src != refs[i].Src || pkts[i].SrcPort != refs[i].SrcPort || pkts[i].DSCP != refs[i].DSCP {
			t.Fatalf("packet %d headers diverged: %v vs %v", i, pkts[i], refs[i])
		}
	}
	if fastNet.Exited != refNet.Exited || fastNet.Dropped != refNet.Dropped {
		t.Fatalf("stats diverged: exited %d/%d dropped %d/%d",
			fastNet.Exited, refNet.Exited, fastNet.Dropped, refNet.Dropped)
	}
	// The same firewall instance saw both directionless flows: no
	// consistency violations on the replayed path.
	if v, _ := fastNet.MiddleboxStats(); v != 0 {
		t.Fatalf("middlebox violations = %d", v)
	}
}

// TestReplayHopsCountSwitches: a packet the burst replays on the slow path
// reports its switch traversals in BurstOutcome.Hops, as the fast path
// counts a walk, and not the walk's hop events. A silver web flow from
// station 0 crosses the firewall at cs1: the box is one event more than
// the five switch entries (as0, cs2, cs1, cs1 again, the gateway), which
// the twin network's switch counters count.
func TestReplayHopsCountSwitches(t *testing.T) {
	fastNet, _ := newNet(t, packet.Prefix{})
	refNet, _ := newNet(t, packet.Prefix{})
	var ue core.UE
	for _, n := range []*Network{fastNet, refNet} {
		if err := n.Ctrl.RegisterSubscriber("s", policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
			t.Fatal(err)
		}
		var err error
		if ue, err = n.Attach("s", 0); err != nil {
			t.Fatal(err)
		}
		if res, err := n.SendUpstream(0, webPacket(ue, 40000)); err != nil || res.Disposition != ExitedNet {
			t.Fatalf("opening: %s (%v)", res.Disposition, err)
		}
	}
	reg := obs.New()
	refNet.Instrument(reg)
	processed := reg.Counter("switchsim.packets").Value
	before := processed()
	wr, err := refNet.SendUpstream(0, webPacket(ue, 40000))
	if err != nil || wr.Disposition != ExitedNet {
		t.Fatalf("sequential send: %s (%v)", wr.Disposition, err)
	}
	traversals := int(processed() - before)
	if boxes := mbNames(refNet, wr.Hops); len(boxes) != 1 || boxes[0] != "firewall" || traversals != 5 || len(wr.Hops) != 6 {
		t.Fatalf("sequential send: %d events, %d switch traversals, middleboxes %v; want 6, 5 and [firewall]",
			len(wr.Hops), traversals, boxes)
	}

	fastNet.EnableFastPath(1)
	defer fastNet.DisableFastPath()
	sender, err := fastNet.NewBurstSender()
	if err != nil {
		t.Fatal(err)
	}
	out, err := sender.Send(0, []*packet.Packet{webPacket(ue, 40000)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o := out[0]; !o.Slow || o.Disposition != ExitedNet || o.Hops != traversals {
		t.Fatalf("burst replay: %s after %d hops (slow=%v), want exited after the %d switch traversals",
			o.Disposition, o.Hops, o.Slow, traversals)
	}
}

// TestEnableFastPathStartsNoGoroutine: the fast path is a compiled view
// that senders walk in their own goroutines, so enabling it, at any
// requested worker count, runs nothing in the background.
func TestEnableFastPathStartsNoGoroutine(t *testing.T) {
	net := newPlainNet(t)
	before := runtime.NumGoroutine()
	net.EnableFastPath(4)
	defer net.DisableFastPath()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("EnableFastPath(4) left %d goroutines running, %d before", after, before)
	}
}

// TestBurstSeesSyncedRules checks control-plane invalidation through the
// data plane: rules installed after EnableFastPath (attach + first-packet
// punt, then Sync) are visible to later bursts without enabling the fast
// path again.
func TestBurstSeesSyncedRules(t *testing.T) {
	net := newPlainNet(t)
	net.EnableFastPath(1)
	defer net.DisableFastPath()
	sender, err := net.NewBurstSender()
	if err != nil {
		t.Fatal(err)
	}

	_ = net.Ctrl.RegisterSubscriber("b", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("b", 1)
	if err != nil {
		t.Fatal(err)
	}

	// First burst: brand-new flow, must replay through the punt path yet
	// still exit.
	first := []*packet.Packet{webPacket(ue, 41000)}
	out, err := sender.Send(1, first, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Disposition != ExitedNet || !out[0].Slow {
		t.Fatalf("first packet: %s slow=%v, want exited on the slow path", out[0].Disposition, out[0].Slow)
	}

	// Second burst: the punt installed microflows and Sync warmed the
	// snapshots, so the same flow now runs on the fast path.
	second := []*packet.Packet{webPacket(ue, 41000), webPacket(ue, 41000)}
	out, err = sender.Send(1, second, out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i].Disposition != ExitedNet || out[i].Slow {
			t.Fatalf("packet %d after sync: %s slow=%v, want exited on the fast path",
				i, out[i].Disposition, out[i].Slow)
		}
	}
}
