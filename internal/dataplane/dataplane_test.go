package dataplane

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mbox"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// fig3 builds the paper's Fig. 2/3-style network: gateway, three core
// switches, four stations, a firewall near the gateway, two transcoders,
// and an echo canceller.
type fig3 struct {
	*topo.Topology
	gw, cs1, cs2, cs3 topo.NodeID
	as                [4]topo.NodeID
}

func newFig3(t *testing.T) *fig3 {
	t.Helper()
	n := &fig3{Topology: topo.New()}
	n.gw = n.AddNode(topo.Gateway, "gw")
	n.cs1 = n.AddNode(topo.Core, "cs1")
	n.cs2 = n.AddNode(topo.Core, "cs2")
	n.cs3 = n.AddNode(topo.Core, "cs3")
	for i := 0; i < 4; i++ {
		n.as[i] = n.AddNode(topo.Access, "as")
		if err := n.AddBaseStation(packet.BSID(i), n.as[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]topo.NodeID{
		{n.gw, n.cs1}, {n.cs1, n.cs2}, {n.cs2, n.cs3},
		{n.cs2, n.as[0]}, {n.cs2, n.as[1]}, {n.cs3, n.as[2]}, {n.cs3, n.as[3]},
	} {
		if err := n.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	mustAttach := func(typ topo.MBType, sw topo.NodeID) {
		if _, err := n.AttachMiddlebox(typ, sw); err != nil {
			t.Fatal(err)
		}
	}
	mustAttach(0, n.cs1) // firewall
	mustAttach(1, n.cs2) // transcoder 1
	mustAttach(1, n.cs3) // transcoder 2
	mustAttach(2, n.cs1) // echo canceller
	return n
}

func newNet(t *testing.T, natPool packet.Prefix) (*Network, *fig3) {
	t.Helper()
	n := newFig3(t)
	return netOn(t, n.Topology, n.gw, natPool), n
}

// netOn assembles a network over tp under the example carrier policy, with
// one middlebox function per topology middlebox type.
func netOn(t testing.TB, tp *topo.Topology, gw topo.NodeID, natPool packet.Prefix) *Network {
	t.Helper()
	return netOnPlan(t, tp, gw, natPool, packet.Plan{})
}

// netOnPlan is netOn with the controller on the given address plan (the
// zero plan is packet.DefaultPlan).
func netOnPlan(t testing.TB, tp *topo.Topology, gw topo.NodeID, natPool packet.Prefix, plan packet.Plan) *Network {
	t.Helper()
	return netOnObs(t, tp, gw, natPool, plan, nil)
}

// netOnObs is netOnPlan with the controller recording into reg.
func netOnObs(t testing.TB, tp *topo.Topology, gw topo.NodeID, natPool packet.Prefix, plan packet.Plan, reg *obs.Registry) *Network {
	t.Helper()
	ctrl, err := core.NewController(tp, core.ControllerConfig{
		Gateway: gw,
		Plan:    plan,
		Obs:     reg,
		Policy:  policy.ExampleCarrierPolicy(),
		MBTypes: map[string]topo.MBType{
			policy.MBFirewall:   0,
			policy.MBTranscoder: 1,
			policy.MBEchoCancel: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	boxes := mbox.NewRegistry(ctrl.Plan(), packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24))
	net, err := New(ctrl, Config{
		Registry: boxes,
		MBFuncs: map[topo.MBType]string{
			0: "firewall", 1: "transcoder", 2: "echo-cancel",
		},
		NATPool: natPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func webPacket(ue core.UE, sport uint16) *packet.Packet {
	return &packet.Packet{
		Src: ue.PermIP, Dst: packet.AddrFrom4(93, 184, 216, 34),
		SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP, TTL: 64,
	}
}

func mbNames(net *Network, hops []Hop) []string {
	var out []string
	for _, h := range hops {
		if h.MB != core.NoMB {
			out = append(out, net.Boxes[h.MB].Func())
		}
	}
	return out
}

func TestUpstreamWebFlowThroughFirewall(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	ue, err := net.Attach("a", 0)
	if err == nil {
		t.Fatal("attach before registration should fail")
	}
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, err = net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	p := webPacket(ue, 40000)
	res, err := net.SendUpstream(0, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != ExitedNet {
		t.Fatalf("disposition = %s (last %d)", res.Disposition, res.Last)
	}
	boxes := mbNames(net, res.Hops)
	if len(boxes) != 1 || boxes[0] != "firewall" {
		t.Fatalf("middleboxes = %v, want [firewall]", boxes)
	}
	// The exiting packet carries the LocIP and a tagged source port (§4.1).
	if p.Src != ue.LocIP {
		t.Fatalf("exit src = %s, want LocIP %s", p.Src, ue.LocIP)
	}
	tag, _ := net.Ctrl.Plan().SplitPort(p.SrcPort)
	if tag == 0 {
		t.Fatal("exit source port carries no tag")
	}
}

func TestDownstreamReturnDelivered(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _ := net.Attach("a", 0)
	up := webPacket(ue, 40000)
	if _, err := net.SendUpstream(0, up); err != nil {
		t.Fatal(err)
	}
	// Internet replies to what it saw.
	reply := &packet.Packet{
		Src: up.Dst, Dst: up.Src, SrcPort: up.DstPort, DstPort: up.SrcPort,
		Proto: packet.ProtoTCP, TTL: 64,
	}
	res, err := net.SendDownstream(reply)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != Delivered {
		t.Fatalf("disposition = %s at %d (hops %v)", res.Disposition, res.Last, res.Hops)
	}
	// Restored to the permanent address and original port.
	if reply.Dst != ue.PermIP || reply.DstPort != 40000 {
		t.Fatalf("restore failed: %s", reply.Flow())
	}
	// Same firewall instance both ways: zero consistency violations.
	if v, _ := net.MiddleboxStats(); v != 0 {
		t.Fatalf("violations = %d", v)
	}
	boxes := mbNames(net, res.Hops)
	if len(boxes) != 1 || boxes[0] != "firewall" {
		t.Fatalf("downstream middleboxes = %v", boxes)
	}
}

func TestSecondFlowIsCacheHit(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _ := net.Attach("a", 0)
	if _, err := net.SendUpstream(0, webPacket(ue, 40000)); err != nil {
		t.Fatal(err)
	}
	if _, err := net.SendUpstream(0, webPacket(ue, 40001)); err != nil {
		t.Fatal(err)
	}
	st := net.Agents[0].Stats()
	if st.CacheMiss != 1 || st.CacheHits != 1 {
		t.Fatalf("agent stats = %+v, want 1 miss then 1 hit", st)
	}
	if st := net.Ctrl.Stats(); st.PathMiss != 1 {
		t.Fatalf("controller installed %d paths, want 1", st.PathMiss)
	}
}

func TestSilverVideoTranscoded(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("s", policy.Attributes{Provider: "A", Plan: "silver"})
	ue, _ := net.Attach("s", 2)
	video := &packet.Packet{
		Src: ue.PermIP, Dst: packet.AddrFrom4(203, 0, 113, 9),
		SrcPort: 41000, DstPort: 554, Proto: packet.ProtoTCP, TTL: 64,
	}
	res, err := net.SendUpstream(2, video)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != ExitedNet {
		t.Fatalf("disposition = %s", res.Disposition)
	}
	boxes := mbNames(net, res.Hops)
	if len(boxes) != 2 || boxes[0] != "transcoder" || boxes[1] != "firewall" {
		// Upstream traverses the chain in reverse: transcoder then firewall.
		t.Fatalf("middleboxes = %v, want [transcoder firewall]", boxes)
	}
	// Downstream media is transcoded (payload halves).
	reply := &packet.Packet{
		Src: video.Dst, Dst: video.Src, SrcPort: video.DstPort, DstPort: video.SrcPort,
		Proto: packet.ProtoTCP, TTL: 64, Payload: make([]byte, 1000),
	}
	dres, err := net.SendDownstream(reply)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Disposition != Delivered {
		t.Fatalf("reply %s at %d", dres.Disposition, dres.Last)
	}
	if len(reply.Payload) != 500 {
		t.Fatalf("payload = %d, want 500 (transcoded)", len(reply.Payload))
	}
	dboxes := mbNames(net, dres.Hops)
	if len(dboxes) != 2 || dboxes[0] != "firewall" || dboxes[1] != "transcoder" {
		t.Fatalf("downstream middleboxes = %v, want [firewall transcoder]", dboxes)
	}
}

func TestForeignSubscriberDenied(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("c", policy.Attributes{Provider: "C"})
	ue, _ := net.Attach("c", 0)
	res, err := net.SendUpstream(0, webPacket(ue, 40000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != DroppedAt {
		t.Fatalf("foreign traffic should drop, got %s", res.Disposition)
	}
	if net.Agents[0].Stats().Denied != 1 {
		t.Fatal("denial not counted")
	}
}

func TestUnsolicitedInboundBlocked(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _ := net.Attach("a", 0)
	// Prime a path so downstream rules exist at all, then probe another port.
	if _, err := net.SendUpstream(0, webPacket(ue, 40000)); err != nil {
		t.Fatal(err)
	}
	probe := &packet.Packet{
		Src: packet.AddrFrom4(198, 18, 0, 9), Dst: ue.LocIP,
		SrcPort: 4444, DstPort: 0x0801, Proto: packet.ProtoTCP, TTL: 64,
	}
	res, err := net.SendDownstream(probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition == Delivered {
		t.Fatal("unsolicited inbound reached the UE")
	}
}

func TestGatewayNATHidesLocation(t *testing.T) {
	pool := packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24)
	net, _ := newNet(t, pool)
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _ := net.Attach("a", 0)
	up := webPacket(ue, 40000)
	res, err := net.SendUpstream(0, up)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != ExitedNet {
		t.Fatalf("disposition = %s", res.Disposition)
	}
	// The Internet never sees the LocIP (§4.1 privacy).
	if net.Ctrl.Plan().Carrier.Contains(up.Src) {
		t.Fatalf("LocIP leaked: %s", up.Src)
	}
	if !pool.Contains(up.Src) {
		t.Fatalf("source %s outside NAT pool", up.Src)
	}
	reply := &packet.Packet{
		Src: up.Dst, Dst: up.Src, SrcPort: up.DstPort, DstPort: up.SrcPort,
		Proto: packet.ProtoTCP, TTL: 64,
	}
	dres, err := net.SendDownstream(reply)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Disposition != Delivered || reply.Dst != ue.PermIP {
		t.Fatalf("NAT return failed: %s %s", dres.Disposition, reply.Flow())
	}
}

func TestVoIPUsesEchoCancel(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _ := net.Attach("a", 1)
	voip := &packet.Packet{
		Src: ue.PermIP, Dst: packet.AddrFrom4(203, 0, 113, 50),
		SrcPort: 42000, DstPort: 5060, Proto: packet.ProtoUDP, TTL: 64,
	}
	res, err := net.SendUpstream(1, voip)
	if err != nil {
		t.Fatal(err)
	}
	boxes := mbNames(net, res.Hops)
	if len(boxes) != 2 || boxes[0] != "echo-cancel" || boxes[1] != "firewall" {
		t.Fatalf("middleboxes = %v, want [echo-cancel firewall] (reverse chain)", boxes)
	}
}

func TestAgentRestartKeepsForwarding(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _ := net.Attach("a", 0)
	up := webPacket(ue, 40000)
	if _, err := net.SendUpstream(0, up); err != nil {
		t.Fatal(err)
	}
	// The agent fails and restarts (§5.2); established flows keep
	// forwarding because the microflows, the agent's only record of its
	// flows, live in the switch.
	again := webPacket(ue, 40000)
	res, err := net.SendUpstream(0, again)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != ExitedNet {
		t.Fatalf("established flow broken after agent restart: %s", res.Disposition)
	}
	// The controller re-pushes state; new flows work again.
	u, cls, err := net.Ctrl.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Agents[0].AdmitUE(u, cls); err != nil {
		t.Fatal(err)
	}
	if res, err := net.SendUpstream(0, webPacket(ue, 40002)); err != nil || res.Disposition != ExitedNet {
		t.Fatalf("new flow after recovery: %v %v", res.Disposition, err)
	}
}

// TestExportRespectsLPM: within one rule band, a longer prefix must win in
// the materialised TCAM exactly as it does in the controller's FIB — the
// property that encodes prefix length into rule priority.
func TestExportRespectsLPM(t *testing.T) {
	net, f := newNet(t, packet.Prefix{})
	// The bootstrapped location table at cs1 contains both the carrier-wide
	// climb default and per-station descend entries; a downstream packet to
	// station 0 must follow the specific entry (toward cs2), never the
	// climb default (toward gw).
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _ := net.Attach("a", 0)
	if err := net.Sync(); err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Src: packet.AddrFrom4(10, 0, 0, 77), Dst: ue.LocIP,
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP, TTL: 64}
	// Inject at cs1 as if mid-path; it must head down toward cs2, i.e. the
	// walk ends at station 0's access switch (punted there: no microflow).
	v := net.Switches[f.cs1].Process(p, net.T.Nodes[f.cs1].PortTo(f.gw))
	next := net.T.Nodes[f.cs1].Neighbors[v.Output]
	if next != f.cs2 {
		t.Fatalf("cs1 sent dst=%s to node %d, want cs2 (%d)", ue.LocIP, next, f.cs2)
	}
}
