package fastpath_test

import (
	"fmt"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/fastpath"
	"repro/internal/packet"
	"repro/internal/plant"
	"repro/internal/policy"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// burstSize is the burst the walker tests and benchmark send.
const burstSize = 32

// burst is one 32-packet burst entering the network at one switch: the
// headers it starts from and the packets the walk rewrites.
type burst struct {
	origin, inPort int
	want           fastpath.Disp
	orig           []packet.Packet
	pkts           []*packet.Packet
}

// reset restores every packet's header to the one the burst starts from.
func (b *burst) reset() {
	for i := range b.pkts {
		*b.pkts[i] = b.orig[i]
	}
}

func newBurst(origin, inPort int, want fastpath.Disp, pkt packet.Packet) *burst {
	b := &burst{origin: origin, inPort: inPort, want: want,
		orig: make([]packet.Packet, burstSize), pkts: make([]*packet.Packet, burstSize)}
	backing := make([]packet.Packet, burstSize)
	for i := range b.orig {
		b.orig[i] = pkt
		b.orig[i].Seq = uint32(i)
		b.pkts[i] = &backing[i]
	}
	return b
}

// plainPlantBursts builds the K=4, C=3 generated plant under a pure-allow
// policy, opens one web flow per station and enables the fast path. It
// returns the compiled view and one established burst per station
// upstream, plus downstream bursts from the gateway that fan out to 32
// stations each.
func plainPlantBursts(tb testing.TB) (*fastpath.Net, []*burst) {
	tb.Helper()
	pol := &policy.Policy{}
	pol.Add(policy.Clause{Priority: 10, Name: "allow-A",
		Pred: policy.Attr(policy.FieldProvider, "A"), Action: policy.Via()})
	p, err := plant.New(plant.Spec{Topo: topo.GenParams{K: 4, ClusterSize: 3, MBTypes: 3, Seed: 1}, Policy: pol})
	if err != nil {
		tb.Fatal(err)
	}
	net := p.Net
	var ups, downs []*burst
	var replies []packet.Packet
	for i, bs := range p.Stations {
		imsi := fmt.Sprintf("ue-%d", i)
		if err := net.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			tb.Fatal(err)
		}
		ue, err := net.Attach(imsi, bs)
		if err != nil {
			tb.Fatal(err)
		}
		up := packet.Packet{Src: ue.PermIP, Dst: packet.AddrFrom4(93, 184, 216, 34),
			SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP, TTL: 64}
		wire := up
		if res, err := net.SendUpstream(bs, &wire); err != nil || res.Disposition != dataplane.ExitedNet {
			tb.Fatalf("station %d: the opening %s (%v)", bs, res.Disposition, err)
		}
		st, _ := net.T.Station(bs)
		ups = append(ups, newBurst(int(st.Access), switchsim.PortUE, fastpath.DispExited, up))
		replies = append(replies, packet.Packet{Src: wire.Dst, Dst: wire.Src, SrcPort: wire.DstPort,
			DstPort: wire.SrcPort, Proto: packet.ProtoTCP, TTL: 64})
	}
	for i := 0; i+burstSize <= len(replies); i += burstSize {
		b := newBurst(int(net.Ctrl.Gateway()), switchsim.PortExit, fastpath.DispDelivered, packet.Packet{})
		copy(b.orig, replies[i:i+burstSize])
		downs = append(downs, b)
	}
	if len(downs) == 0 {
		tb.Fatalf("%d stations make no 32-station downstream burst", len(replies))
	}
	net.EnableFastPath(1)
	tb.Cleanup(net.DisableFastPath)
	return net.FastEngine().Net(), append(ups, downs...)
}

// TestWalkerWalkAllocatesNothing: once one sweep has grown the walker's
// scratch, a 32-packet burst of established flows allocates nothing,
// whether it climbs from a station to the gateway or fans out from the
// gateway to 32 stations. The group queue used to lose its front slot at
// every step and be regrown a few times per burst.
func TestWalkerWalkAllocatesNothing(t *testing.T) {
	fnet, bursts := plainPlantBursts(t)
	w := fnet.NewWalker()
	res := make([]fastpath.Result, burstSize)
	sweep := func() {
		for _, b := range bursts {
			b.reset()
			w.Walk(b.origin, b.inPort, b.pkts, res)
			for i := range res {
				if res[i].Disp != b.want {
					t.Fatalf("burst from node %d packet %d: %s at node %d, want %s", b.origin, i, res[i].Disp, res[i].Last, b.want)
				}
			}
		}
	}
	sweep() // the warm-up: snapshots compile, scratch grows
	allocs := testing.AllocsPerRun(20, sweep) / float64(len(bursts))
	t.Logf("%d bursts of %d packets per sweep: %.3f allocs per burst", len(bursts), burstSize, allocs)
	if allocs != 0 {
		t.Fatalf("a steady-state burst allocates %.3f objects, want 0", allocs)
	}
}

// BenchmarkWalkerWalk is one 32-packet burst of established flows on the
// K=4, C=3 plant, cycling through every station's upstream burst and the
// gateway's downstream ones.
func BenchmarkWalkerWalk(b *testing.B) {
	fnet, bursts := plainPlantBursts(b)
	w := fnet.NewWalker()
	res := make([]fastpath.Result, burstSize)
	for _, bu := range bursts {
		bu.reset()
		w.Walk(bu.origin, bu.inPort, bu.pkts, res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := bursts[i%len(bursts)]
		bu.reset()
		w.Walk(bu.origin, bu.inPort, bu.pkts, res)
	}
}
