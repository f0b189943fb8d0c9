package dataplane

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// flowBS is the station the flow set-up tests and benchmark open flows at.
const flowBS = 7

// accessOf returns station bs's access switch.
func accessOf(tb testing.TB, net *Network, bs packet.BSID) *switchsim.Switch {
	tb.Helper()
	st, ok := net.T.Station(bs)
	if !ok {
		tb.Fatalf("no station %d", bs)
	}
	return net.Switches[st.Access]
}

// flowSetupNet is genNet with resident microflows at flowBS's access switch
// (resident/2 web flows of eight UEs, each to its own server) and the fast
// path on and warm. It returns the network and the UE new flows come from.
// With reg set, the network is instrumented on it first.
func flowSetupNet(tb testing.TB, resident int, reg *obs.Registry) (*Network, core.UE) {
	tb.Helper()
	net := genNet(tb)
	if reg != nil {
		net.Instrument(reg)
	}
	ues := make([]core.UE, 8)
	for i := range ues {
		imsi := fmt.Sprintf("resident-%d", i)
		if err := net.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			tb.Fatal(err)
		}
		ue, err := net.Attach(imsi, flowBS)
		if err != nil {
			tb.Fatal(err)
		}
		ues[i] = ue
	}
	for f := 0; f < resident/2; f++ {
		p := webPacket(ues[f%len(ues)], uint16(20000+f))
		p.Dst = packet.AddrFrom4(198, 18, byte(f>>8), byte(f))
		if res, err := net.SendUpstream(flowBS, p); err != nil || res.Disposition != ExitedNet {
			tb.Fatalf("resident flow %d: %v %v", f, res.Disposition, err)
		}
	}
	if n := accessOf(tb, net, flowBS).NumMicroflows(); n != resident {
		tb.Fatalf("the access switch holds %d microflows, want %d", n, resident)
	}
	net.EnableFastPath(1)
	tb.Cleanup(net.DisableFastPath)
	if err := net.Sync(); err != nil {
		tb.Fatal(err)
	}
	return net, ues[0]
}

// TestFlowSetupCompilesNoRules pins what one new flow costs the fast path:
// the access switch's snapshot takes the switch's tables as the switch
// sealed them, so its two microflows compile nothing and copy no TCAM
// entry, however many microflows the switch holds, and a hit on the
// snapshot names the entry the switch holds. Two same-seed plants copy the
// same number of TCAM entries.
func TestFlowSetupCompilesNoRules(t *testing.T) {
	for _, resident := range []int{128, 512} {
		var runs [2][2]uint64 // TCAM entries copied warming the plant, then for one flow
		for run := range runs {
			reg := obs.New()
			net, ue := flowSetupNet(t, resident, reg)
			copied := reg.Counter("switchsim.tcam.rules.copied")
			warm := copied.Value()
			p := webPacket(ue, 40000)
			if res, err := net.SendUpstream(flowBS, p); err != nil || res.Disposition != ExitedNet {
				t.Fatalf("new flow: %v %v", res.Disposition, err)
			}
			runs[run] = [2]uint64{warm, copied.Value() - warm}

			// The reply's entry at the access switch delivers it to the UE.
			w := p.Flow().Reverse()
			reply := &packet.Packet{Src: w.Src, Dst: w.Dst, SrcPort: w.SrcPort, DstPort: w.DstPort, Proto: w.Proto, TTL: 64}
			live, ok := accessOf(t, net, flowBS).Microflow(w)
			st, _ := net.T.Station(flowBS)
			if v := net.FastEngine().Net().FIB(int(st.Access)).Step(reply, 0); !ok || v.Flow != live {
				t.Fatalf("%d resident microflows: the snapshot's hit names entry %p, the switch holds %p", resident, v.Flow, live)
			}
		}
		if runs[0][1] != 0 {
			t.Fatalf("%d resident microflows: one new flow copied %d TCAM entries, want none", resident, runs[0][1])
		}
		if runs[0] != runs[1] {
			t.Fatalf("%d resident microflows: two same-seed plants copied %v and %v TCAM entries", resident, runs[0], runs[1])
		}
		t.Logf("%d resident microflows: %d TCAM entries copied warming the plant, %d for one new flow", resident, runs[0][0], runs[0][1])
	}
}

// TestEphemeralValuesNeverAlias opens more flows from one UE to one server
// than a 12-bit tag plan has ephemeral values (4 bits: 15). Each accepted
// flow holds its own wire five-tuple, so replies reach the port that sent
// it, and the flow past the last free value is refused with
// agent.ErrPortsExhausted instead of taking the first flow's.
func TestEphemeralValuesNeverAlias(t *testing.T) {
	plan := packet.DefaultPlan
	plan.TagBits = 12
	g, err := topo.Generate(topo.GenParams{K: 4, ClusterSize: 10, MBTypes: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	net := netOnPlan(t, g.Topology, g.GatewayID, packet.Prefix{}, plan)
	if err := net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	ue, err := net.Attach("a", flowBS)
	if err != nil {
		t.Fatal(err)
	}
	values := 1<<plan.EphemeralBits() - 1
	wire := make(map[packet.FlowKey]uint16)
	for i := 0; i < values; i++ {
		p := webPacket(ue, uint16(40000+i))
		if res, err := net.SendUpstream(flowBS, p); err != nil || res.Disposition != ExitedNet {
			t.Fatalf("flow %d: %v %v", i, res.Disposition, err)
		}
		if port, dup := wire[p.Flow()]; dup {
			t.Fatalf("the flows from ports %d and %d both go on the wire as %s", port, 40000+i, p.Flow())
		}
		wire[p.Flow()] = uint16(40000 + i)
	}

	if _, err := net.SendUpstream(flowBS, webPacket(ue, uint16(40000+values))); !errors.Is(err, agent.ErrPortsExhausted) {
		t.Fatalf("flow %d of %d ephemeral values: %v, want ErrPortsExhausted", values+1, values, err)
	}

	for w, port := range wire {
		reply := &packet.Packet{Src: w.Dst, Dst: w.Src, SrcPort: w.DstPort, DstPort: w.SrcPort, Proto: w.Proto, TTL: 64}
		if res, err := net.SendDownstream(reply); err != nil || res.Disposition != Delivered || reply.Dst != ue.PermIP || reply.DstPort != port {
			t.Fatalf("reply to the flow from port %d: %v %v, delivered to %s:%d", port, res.Disposition, err, reply.Dst, reply.DstPort)
		}
	}
	if _, conns := net.MiddleboxStats(); conns != uint64(values) {
		t.Fatalf("middleboxes count %d connections for %d flows", conns, values)
	}
}

// BenchmarkFlowSetup times one new flow's set-up and tear-down at an
// access switch holding 128 and 512 resident microflows: its SendUpstream
// (punt, agent admit, the two microflow installs, the Sync that recompiles
// the access switch's snapshot, and the walk out), then the removal of its
// two microflows, which ends the flow for the agent too, and the Sync that
// recompiles the snapshot again, so the resident count stays put. Timing
// both patches makes the figure independent of which one lands the
// compiled index's amortised relayout. make flowsetup-alloc-gate bounds
// its B/op at 512 resident microflows.
func BenchmarkFlowSetup(b *testing.B) {
	for _, resident := range []int{128, 512} {
		b.Run(fmt.Sprintf("microflows=%d", resident), func(b *testing.B) {
			net, ue := flowSetupNet(b, resident, nil)
			sw := accessOf(b, net, flowBS)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := webPacket(ue, uint16(40000+i%64))
				orig := p.Flow()
				res, err := net.SendUpstream(flowBS, p)
				if err != nil || res.Disposition != ExitedNet {
					b.Fatalf("flow %d: %v %v", i, res.Disposition, err)
				}
				if !sw.RemoveMicroflow(orig) || !sw.RemoveMicroflow(p.Flow().Reverse()) {
					b.Fatalf("flow %d left no microflow pair to remove", i)
				}
				if err := net.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
