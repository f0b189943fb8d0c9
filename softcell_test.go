package softcell_test

import (
	"testing"

	softcell "repro"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

func TestExampleNetworkEndToEnd(t *testing.T) {
	net, err := softcell.Example()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Ctrl.RegisterSubscriber("alice", policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
		t.Fatal(err)
	}
	ue, err := net.Attach("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &softcell.Packet{
		Src: ue.PermIP, Dst: packet.AddrFrom4(93, 184, 216, 34),
		SrcPort: 44000, DstPort: 443, Proto: packet.ProtoTCP, TTL: 64,
	}
	res, err := net.SendUpstream(0, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != softcell.ExitedNet {
		t.Fatalf("disposition = %s", res.Disposition)
	}
	reply := &softcell.Packet{
		Src: p.Dst, Dst: p.Src, SrcPort: p.DstPort, DstPort: p.SrcPort,
		Proto: packet.ProtoTCP, TTL: 64,
	}
	dres, err := net.SendDownstream(reply)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Disposition != softcell.Delivered || reply.Dst != ue.PermIP {
		t.Fatalf("reply: %s to %s", dres.Disposition, reply.Dst)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := softcell.New(softcell.Options{}); err == nil {
		t.Fatal("missing topology should fail")
	}
	g, err := topo.Generate(topo.GenParams{K: 4, ClusterSize: 10, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := softcell.New(softcell.Options{Topology: g.Topology, Gateway: g.GatewayID}); err == nil {
		t.Fatal("missing policy should fail")
	}
	if _, err := softcell.New(softcell.Options{Topology: g.Topology, Gateway: g.GatewayID,
		Policy: policy.ExampleCarrierPolicy(), Shards: 2}); err == nil {
		t.Fatal("a sharded spec has no data plane and should fail")
	}
}

func TestGeneratedTopologyNetwork(t *testing.T) {
	g, err := topo.Generate(topo.GenParams{K: 4, ClusterSize: 10, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := softcell.New(softcell.Options{
		Topology: g.Topology,
		Gateway:  g.GatewayID,
		Policy:   policy.ExampleCarrierPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = net.Ctrl.RegisterSubscriber("u", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("u", 42)
	if err != nil {
		t.Fatal(err)
	}
	p := &softcell.Packet{Src: ue.PermIP, Dst: packet.AddrFrom4(1, 1, 1, 1),
		SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP, TTL: 64}
	res, err := net.SendUpstream(42, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disposition != softcell.ExitedNet {
		t.Fatalf("disposition = %s at node %d", res.Disposition, res.Last)
	}
}
