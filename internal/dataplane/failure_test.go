package dataplane

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// genNet assembles a full network over the §6.3 generated topology (k=4),
// which has the path redundancy a failure test needs (ring double uplinks,
// pod and core meshes, multiple middlebox instances per type).
func genNet(t testing.TB) *Network {
	t.Helper()
	g, err := topo.Generate(topo.GenParams{K: 4, ClusterSize: 10, MBTypes: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return netOn(t, g.Topology, g.GatewayID, packet.Prefix{})
}

func TestSwitchFailureRecomputation(t *testing.T) {
	net := genNet(t)
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("a", 7)
	if err != nil {
		t.Fatal(err)
	}
	open := webPacket(ue, 40000)
	res, err := net.SendUpstream(7, open)
	if err != nil || res.Disposition != ExitedNet {
		t.Fatalf("pre-failure flow: %v %v", res.Disposition, err)
	}

	// Fail a CORE switch on the installed path: the core mesh offers
	// alternatives (an access-facing pod switch would orphan its clusters,
	// which TestFailureDropsUnreachableStations covers).
	var victim topo.NodeID = topo.None
	for _, h := range res.Hops {
		if net.T.Nodes[h.Node].Kind == topo.Core {
			victim = h.Node
			break
		}
	}
	if victim == topo.None {
		t.Fatal("no core switch on path")
	}
	rep, err := net.Ctrl.FailSwitch(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recomputed == 0 {
		t.Fatalf("no paths recomputed: %+v", rep)
	}
	if err := net.RefreshClassifiers(); err != nil {
		t.Fatal(err)
	}

	// A new flow routes around the failure.
	p2 := webPacket(ue, 40001)
	res2, err := net.SendUpstream(7, p2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Disposition != ExitedNet {
		t.Fatalf("post-failure flow: %s at %d", res2.Disposition, res2.Last)
	}
	for _, h := range res2.Hops {
		if h.Node == victim {
			t.Fatalf("post-failure path still crosses failed switch %d: %v", victim, res2.Hops)
		}
	}
	// Return traffic works too.
	reply := &packet.Packet{Src: p2.Dst, Dst: p2.Src, SrcPort: p2.DstPort,
		DstPort: p2.SrcPort, Proto: packet.ProtoTCP, TTL: 64}
	dres, err := net.SendDownstream(reply)
	if err != nil || dres.Disposition != Delivered {
		t.Fatalf("post-failure downstream: %v %v", dres.Disposition, err)
	}
	for _, h := range dres.Hops {
		if h.Node == victim {
			t.Fatalf("downstream crosses failed switch: %v", dres.Hops)
		}
	}
}

func TestSwitchRecoveryReoptimises(t *testing.T) {
	net := genNet(t)
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _ := net.Attach("a", 3)
	if res, err := net.SendUpstream(3, webPacket(ue, 40000)); err != nil || res.Disposition != ExitedNet {
		t.Fatalf("open: %v %v", res.Disposition, err)
	}
	st, _ := net.T.Station(3)
	// Fail the ring head's pod uplink target... pick any agg switch NOT on
	// the station's direct chain so the path survives, then recover it.
	var victim topo.NodeID = topo.None
	for i, nd := range net.T.Nodes {
		if nd.Kind == topo.Agg && topo.NodeID(i) != st.Access {
			victim = topo.NodeID(i)
			break
		}
	}
	if _, err := net.Ctrl.FailSwitch(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Ctrl.RecoverSwitch(victim); err != nil {
		t.Fatal(err)
	}
	if err := net.RefreshClassifiers(); err != nil {
		t.Fatal(err)
	}
	if res, err := net.SendUpstream(3, webPacket(ue, 40002)); err != nil || res.Disposition != ExitedNet {
		t.Fatalf("post-recovery flow: %v %v", res.Disposition, err)
	}
	if net.T.Down(victim) {
		t.Fatal("switch should be up")
	}
}

func TestFailUnknownSwitch(t *testing.T) {
	net := genNet(t)
	if _, err := net.Ctrl.FailSwitch(9999); err == nil {
		t.Fatal("unknown switch should fail")
	}
}

func TestFailureDropsUnreachableStations(t *testing.T) {
	// In the Fig. 3 tree topology, cs3 is the only way to stations 2 and 3:
	// failing it must withdraw their paths but keep stations 0/1 working.
	net, f := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("x", policy.Attributes{Provider: "A"})
	_ = net.Ctrl.RegisterSubscriber("y", policy.Attributes{Provider: "A"})
	ueX, _ := net.Attach("x", 2) // behind cs3
	ueY, _ := net.Attach("y", 0)
	if res, err := net.SendUpstream(2, webPacket(ueX, 40000)); err != nil || res.Disposition != ExitedNet {
		t.Fatalf("x pre-failure: %v %v", res.Disposition, err)
	}
	if res, err := net.SendUpstream(0, webPacket(ueY, 40000)); err != nil || res.Disposition != ExitedNet {
		t.Fatalf("y pre-failure: %v %v", res.Disposition, err)
	}
	rep, err := net.Ctrl.FailSwitch(f.cs3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unreachable == 0 {
		t.Fatalf("expected unreachable paths: %+v", rep)
	}
	if err := net.RefreshClassifiers(); err != nil {
		t.Fatal(err)
	}
	// Station 0 keeps working.
	if res, err := net.SendUpstream(0, webPacket(ueY, 40001)); err != nil || res.Disposition != ExitedNet {
		t.Fatalf("y post-failure: %v %v", res.Disposition, err)
	}
}
