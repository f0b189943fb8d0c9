package mbox

import (
	"sync"
	"testing"

	"repro/internal/packet"
	"repro/internal/topo"
)

var plan = packet.DefaultPlan

func upPkt(ue packet.Addr, sport uint16) *packet.Packet {
	return &packet.Packet{Src: ue, Dst: packet.AddrFrom4(93, 184, 216, 34),
		SrcPort: sport, DstPort: 443, Proto: packet.ProtoTCP}
}

func downPkt(ue packet.Addr, dport uint16) *packet.Packet {
	return &packet.Packet{Src: packet.AddrFrom4(93, 184, 216, 34), Dst: ue,
		SrcPort: 443, DstPort: dport, Proto: packet.ProtoTCP}
}

func TestFirewallAllowsEstablished(t *testing.T) {
	fw := NewFirewall(1)
	ue, _ := plan.LocIP(1, 10)
	if !fw.Process(upPkt(ue, 1000), Upstream) {
		t.Fatal("upstream opener should pass")
	}
	if !fw.Process(downPkt(ue, 1000), Downstream) {
		t.Fatal("return traffic should pass")
	}
	s := fw.Stats()
	if s.Connections != 1 || s.Packets != 2 || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFirewallBlocksUnsolicited(t *testing.T) {
	fw := NewFirewall(1)
	ue, _ := plan.LocIP(1, 10)
	if fw.Process(downPkt(ue, 2000), Downstream) {
		t.Fatal("unsolicited inbound should be dropped")
	}
	s := fw.Stats()
	if s.Dropped != 1 || s.Violations != 0 || s.Connections != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// A later legitimate opener for the same five-tuple still works.
	if !fw.Process(upPkt(ue, 2000), Upstream) {
		t.Fatal("later upstream opener should pass")
	}
	if !fw.Process(downPkt(ue, 2000), Downstream) {
		t.Fatal("established return should pass")
	}
}

func TestTranscoderShrinksDownstream(t *testing.T) {
	tc := NewTranscoder(2)
	ue, _ := plan.LocIP(1, 10)
	up := upPkt(ue, 3000)
	tc.Process(up, Upstream)
	down := downPkt(ue, 3000)
	down.Payload = make([]byte, 1000)
	if !tc.Process(down, Downstream) {
		t.Fatal("downstream should pass")
	}
	if len(down.Payload) != 500 {
		t.Fatalf("payload = %d bytes, want 500", len(down.Payload))
	}
	if tc.Stats().Violations != 0 {
		t.Fatal("no violation expected")
	}
}

func TestTranscoderFlagsMidStreamWithoutState(t *testing.T) {
	tc := NewTranscoder(2)
	ue, _ := plan.LocIP(1, 10)
	down := downPkt(ue, 3000)
	if !tc.Process(down, Downstream) {
		t.Fatal("transparent failure: still forwards")
	}
	if v := tc.Stats().Violations; v != 1 {
		t.Fatalf("Violations = %d, want 1", v)
	}
	// Second packet on the same broken connection is not double-counted.
	tc.Process(downPkt(ue, 3000), Downstream)
	if v := tc.Stats().Violations; v != 1 {
		t.Fatalf("Violations = %d, want 1 (per connection)", v)
	}
}

func TestEchoCancellerTracksState(t *testing.T) {
	ec := NewEchoCanceller(3)
	ue, _ := plan.LocIP(2, 5)
	if !ec.Process(upPkt(ue, 4000), Upstream) || !ec.Process(downPkt(ue, 4000), Downstream) {
		t.Fatal("pass-through expected")
	}
	if ec.Stats().Connections != 1 {
		t.Fatalf("Connections = %d", ec.Stats().Connections)
	}
	if len(ec.ct.conns) != 1 {
		t.Fatalf("NumConnections = %d", len(ec.ct.conns))
	}
}

func TestIDSCountsPerUE(t *testing.T) {
	ids := NewIDS(4, plan)
	ids.FlowLimit = 3
	ue, _ := plan.LocIP(1, 10)
	for i := 0; i < 3; i++ {
		if !ids.Process(upPkt(ue, uint16(5000+i)), Upstream) {
			t.Fatalf("flow %d should pass", i)
		}
	}
	if ids.perUE[ue] != 3 {
		t.Fatalf("UEFlows = %d", ids.perUE[ue])
	}
	// Fourth flow trips the limit and the UE is blocked.
	if ids.Process(upPkt(ue, 5004), Upstream) {
		t.Fatal("flow over limit should drop")
	}
	if ids.Alerts != 1 {
		t.Fatalf("Alerts = %d", ids.Alerts)
	}
	if ids.Process(upPkt(ue, 5005), Upstream) {
		t.Fatal("blocked UE should stay blocked")
	}
	// Another UE at the same base station is unaffected — this is exactly
	// what the per-UE ID in the address enables (§3.1).
	other, _ := plan.LocIP(1, 11)
	if !ids.Process(upPkt(other, 5000), Upstream) {
		t.Fatal("other UE should pass")
	}
}

func TestIDSIgnoresNonCarrierTraffic(t *testing.T) {
	ids := NewIDS(4, plan)
	p := &packet.Packet{Src: packet.AddrFrom4(1, 2, 3, 4), Dst: packet.AddrFrom4(5, 6, 7, 8),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	if !ids.Process(p, Upstream) {
		t.Fatal("non-carrier traffic passes untracked")
	}
}

func TestNATRoundTrip(t *testing.T) {
	pool := packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24)
	nat := NewNAT(5, pool)
	ue, _ := plan.LocIP(1, 10)
	up := upPkt(ue, 6000)
	origDst, origDstPort := up.Dst, up.DstPort
	if !nat.Process(up, Upstream) {
		t.Fatal("upstream should pass")
	}
	if up.Src == ue {
		t.Fatal("source should be rewritten")
	}
	if !pool.Contains(up.Src) {
		t.Fatalf("public address %s outside pool %s", up.Src, pool)
	}
	// The server replies to the public binding.
	reply := &packet.Packet{Src: origDst, Dst: up.Src, SrcPort: origDstPort,
		DstPort: up.SrcPort, Proto: packet.ProtoTCP}
	if !nat.Process(reply, Downstream) {
		t.Fatal("downstream should pass")
	}
	if reply.Dst != ue || reply.DstPort != 6000 {
		t.Fatalf("destination not restored: %s", reply.Flow())
	}
	if len(nat.out) != 1 {
		t.Fatalf("Bindings = %d", len(nat.out))
	}
}

func TestNATFreshBindingPerFlow(t *testing.T) {
	pool := packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24)
	nat := NewNAT(5, pool)
	ue, _ := plan.LocIP(1, 10)
	a := upPkt(ue, 6000)
	b := upPkt(ue, 6001)
	nat.Process(a, Upstream)
	nat.Process(b, Upstream)
	if a.SrcPort == b.SrcPort && a.Src == b.Src {
		t.Fatal("distinct flows must get distinct public bindings")
	}
	// Same flow keeps its binding.
	c := upPkt(ue, 6000)
	nat.Process(c, Upstream)
	if c.Src != a.Src || c.SrcPort != a.SrcPort {
		t.Fatal("same flow should reuse its binding")
	}
}

func TestNATDropsUnknownInbound(t *testing.T) {
	pool := packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24)
	nat := NewNAT(5, pool)
	p := downPkt(packet.AddrFrom4(198, 51, 100, 7), 9999)
	if nat.Process(p, Downstream) {
		t.Fatal("unknown inbound should drop")
	}
	if nat.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d", nat.Stats().Dropped)
	}
}

func TestRegistryBuild(t *testing.T) {
	pool := packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24)
	r := NewRegistry(plan, pool)
	for _, fn := range []string{"firewall", "transcoder", "echo-cancel", "ids", "nat"} {
		mb, err := r.Build(fn, 7)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if mb.Func() != fn || mb.Instance() != 7 {
			t.Fatalf("%s: identity wrong: %s #%d", fn, mb.Func(), mb.Instance())
		}
	}
	if _, err := r.Build("nonsense", 1); err == nil {
		t.Fatal("unknown function should fail")
	}
	if len(r.factories) != 5 {
		t.Fatalf("%d functions registered, want 5", len(r.factories))
	}
	// Custom registration overrides.
	r.Register("firewall", func(i topo.MBInstanceID) Middlebox { return NewEchoCanceller(i) })
	mb, _ := r.Build("firewall", 1)
	if mb.Func() != "echo-cancel" {
		t.Fatal("override should take effect")
	}
}

func TestConcurrentMiddleboxAccess(t *testing.T) {
	fw := NewFirewall(1)
	ue, _ := plan.LocIP(1, 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				fw.Process(upPkt(ue, uint16(g*100+i)), Upstream)
				fw.Stats()
			}
		}(g)
	}
	wg.Wait()
	if fw.Stats().Connections != 800 {
		t.Fatalf("Connections = %d", fw.Stats().Connections)
	}
}

// TestNATMovesToTheNextAddressWhenPortsWrap: once a pool address has
// handed out its last port, the next flow's binding takes the next pool
// address from port 1024, and both flows' replies are restored.
func TestNATMovesToTheNextAddressWhenPortsWrap(t *testing.T) {
	pool := packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 30)
	nat := NewNAT(5, pool)
	nat.nextPort = 0xFFFF
	ue, _ := plan.LocIP(1, 10)
	a, b := upPkt(ue, 6000), upPkt(ue, 6001)
	nat.Process(a, Upstream)
	nat.Process(b, Upstream)
	if a.Src != pool.Addr || a.SrcPort != 0xFFFF {
		t.Fatalf("first binding %s:%d, want %s:65535", a.Src, a.SrcPort, pool.Addr)
	}
	if b.Src != pool.Addr+1 || b.SrcPort != 1024 {
		t.Fatalf("binding after the wrap %s:%d, want %s:1024", b.Src, b.SrcPort, pool.Addr+1)
	}
	for _, up := range []*packet.Packet{a, b} {
		down := downPkt(up.Src, up.SrcPort)
		if !nat.Process(down, Downstream) || down.Dst != ue {
			t.Fatalf("reply to %s:%d restored to %s, want %s", up.Src, up.SrcPort, down.Dst, ue)
		}
	}
}

// TestIDSPassesTrafficOutsideTheCarrier: a packet with no carrier address
// on the UE side is no UE's flow; the IDS passes it and counts nothing.
func TestIDSPassesTrafficOutsideTheCarrier(t *testing.T) {
	ids := NewIDS(4, plan)
	ids.FlowLimit = 0
	if !ids.Process(upPkt(packet.AddrFrom4(192, 0, 2, 1), 5000), Upstream) {
		t.Fatal("a packet from outside the carrier block should pass")
	}
	if len(ids.perUE) != 0 || ids.Alerts != 0 {
		t.Fatalf("counted %d UEs, %d alerts", len(ids.perUE), ids.Alerts)
	}
}

// TestDirectionAndBoxNames pins how directions and boxes render in traces.
func TestDirectionAndBoxNames(t *testing.T) {
	if Upstream.String() != "up" || Downstream.String() != "down" {
		t.Fatalf("directions render as %s, %s", Upstream, Downstream)
	}
	if s := NewFirewall(3).String(); s != "firewall#3" {
		t.Fatalf("firewall renders as %q", s)
	}
}
