package dataplane

import (
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mbox"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// primedFlow attaches a subscriber at station 0 of a pure-allow network
// and sends its first web packet (which installs the flow's microflows and
// paths). It returns the UE and the packet the Internet peer replies with.
func primedFlow(t testing.TB, net *Network) (core.UE, packet.Packet) {
	t.Helper()
	if err := net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	ue, err := net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	up := webPacket(ue, 40000)
	if res, err := net.SendUpstream(0, up); err != nil || res.Disposition != ExitedNet {
		t.Fatalf("priming packet: %v, %v", res.Disposition, err)
	}
	return ue, packet.Packet{Src: up.Dst, Dst: up.Src, SrcPort: up.DstPort, DstPort: up.SrcPort,
		Proto: packet.ProtoTCP, TTL: 64}
}

// TestWalkStepsTheSnapshot: with the fast path on, the single-packet walk
// steps each switch's compiled snapshot and ends exactly as the
// interpreter does on a twin network: same disposition, hops, final header
// and switch accounting. A table change with no Sync is seen by the very
// next walk, at the cost of one recompile of the changed switch.
func TestWalkStepsTheSnapshot(t *testing.T) {
	fastNet, refNet := newPlainLine(t, 2, 3), newPlainLine(t, 2, 3)
	ue, reply := primedFlow(t, fastNet)
	if ue2, _ := primedFlow(t, refNet); ue2 != ue {
		t.Fatalf("twin networks diverged: %+v vs %+v", ue, ue2)
	}
	reg := obs.New()
	fastNet.Instrument(reg)
	fastNet.EnableFastPath(1)
	defer fastNet.DisableFastPath()
	compiles := reg.Counter("fastpath.snapshot.compile")

	compare := func(label string, want Disposition) {
		t.Helper()
		for _, down := range []bool{false, true} {
			var got [2]WalkResult
			for i, net := range []*Network{fastNet, refNet} {
				p := webPacket(ue, 40000)
				var err error
				if down {
					q := reply
					got[i], err = net.SendDownstream(&q)
				} else {
					got[i], err = net.SendUpstream(0, p)
				}
				if err != nil {
					t.Fatalf("%s (down=%v): %v", label, down, err)
				}
			}
			f, r := got[0], got[1]
			if f.Disposition != r.Disposition || f.Last != r.Last || !slices.Equal(f.Hops, r.Hops) ||
				f.Packet.Flow() != r.Packet.Flow() || f.Packet.DSCP != r.Packet.DSCP {
				t.Fatalf("%s (down=%v): snapshot walk %s at %d %v %v != interpreter %s at %d %v %v", label, down,
					f.Disposition, f.Last, f.Hops, f.Packet, r.Disposition, r.Last, r.Hops, r.Packet)
			}
			if !down && f.Disposition != want {
				t.Fatalf("%s: upstream ended %s, want %s", label, f.Disposition, want)
			}
		}
	}
	compare("established flow", ExitedNet)
	if c := compiles.Value(); c != uint64(len(fastNet.Switches)-1) {
		t.Fatalf("fastpath.snapshot.compile = %d after the first walks, want one per switch walked (%d)",
			c, len(fastNet.Switches)-1)
	}

	// A microflow that drops the flow at its access switch, with no Sync.
	st, _ := fastNet.T.Station(0)
	for _, net := range []*Network{fastNet, refNet} {
		net.Switches[st.Access].InstallMicroflow(webPacket(ue, 40000).Flow(), switchsim.DropAction(), switchsim.Cookie{})
	}
	before := compiles.Value()
	compare("after an unsynced microflow", DroppedAt)
	if c := compiles.Value() - before; c != 1 {
		t.Fatalf("the unsynced change cost %d recompiles, want 1 (the access switch's)", c)
	}

	for i := range fastNet.Switches {
		f, r := fastNet.Switches[i], refNet.Switches[i]
		if fp, rp := atomic.LoadUint64(&f.Processed), atomic.LoadUint64(&r.Processed); fp != rp {
			t.Fatalf("switch %d Processed: snapshot walks %d != interpreter %d", i, fp, rp)
		}
		if fm, rm := atomic.LoadUint64(&f.Misses), atomic.LoadUint64(&r.Misses); fm != rm {
			t.Fatalf("switch %d Misses: snapshot walks %d != interpreter %d", i, fm, rm)
		}
		fr, rr := f.Rules(), r.Rules()
		for j := range fr {
			if fr[j].Packets != rr[j].Packets || fr[j].Bytes != rr[j].Bytes {
				t.Fatalf("switch %d rule %d: snapshot walks %d/%dB != interpreter %d/%dB",
					i, j, fr[j].Packets, fr[j].Bytes, rr[j].Packets, rr[j].Bytes)
			}
		}
	}
}

// perCall reports the heap objects and bytes one call of f allocates,
// averaged over n calls after a warm-up call, with GOMAXPROCS at 1 as in
// testing.AllocsPerRun.
func perCall(n int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// checkSendsAllocNothing sends an established flow's packet up from
// station bs and the Internet peer's reply down, each walking hops events,
// and fails if, once warm, either send allocates an object or a byte. Each
// send declares its packet itself, as a caller sending from its own stack
// does, so a walk that lets the packet escape costs a heap object per call.
func checkSendsAllocNothing(t *testing.T, net *Network, bs packet.BSID, up, reply packet.Packet, hops int) {
	t.Helper()
	for _, c := range []struct {
		name string
		send func() (Disposition, int, error) // the walk's disposition and hop count
		want Disposition
	}{
		{"SendUpstream", func() (Disposition, int, error) {
			p := up
			res, err := net.SendUpstream(bs, &p)
			return res.Disposition, len(res.Hops), err
		}, ExitedNet},
		{"SendDownstream", func() (Disposition, int, error) {
			p := reply
			res, err := net.SendDownstream(&p)
			return res.Disposition, len(res.Hops), err
		}, Delivered},
	} {
		disp, n, err := c.send()
		if err != nil || disp != c.want || n != hops {
			t.Fatalf("%s: %s after %d hops (%v), want %s after %d", c.name, disp, n, err, c.want, hops)
		}
		allocs, bytes := perCall(200, func() { _, _, _ = c.send() })
		t.Logf("%s: %.2f allocs, %.1f B per call", c.name, allocs, bytes)
		if allocs != 0 || bytes != 0 {
			t.Fatalf("%s allocates %.2f objects and %.1f B per call, want none", c.name, allocs, bytes)
		}
	}
}

// TestSendAllocBudget: with the fast path on, a single packet of an
// established flow allocates nothing in either direction. The walk records
// its hops in the Network's buffer (a fresh 64 B Hops per call before), and
// the caller's packet stays on the caller's stack: the walk hands it to no
// interface method, a middlebox's included (it escaped through
// Middlebox.Process before, 48 B per call).
func TestSendAllocBudget(t *testing.T) {
	t.Run("five-switch line", func(t *testing.T) {
		net := newPlainLine(t, 1, 3)
		ue, reply := primedFlow(t, net)
		net.EnableFastPath(1)
		defer net.DisableFastPath()
		checkSendsAllocNothing(t, net, 0, *webPacket(ue, 40000), reply, 5)
	})
	t.Run("through the firewall", func(t *testing.T) {
		// A silver subscriber's web flow on the Fig. 3 network: up through
		// as0, cs2, cs1, the firewall, cs1 again and the gateway; the
		// reply the same way back.
		net, _ := newNet(t, packet.Prefix{})
		if err := net.Ctrl.RegisterSubscriber("s", policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
			t.Fatal(err)
		}
		ue, err := net.Attach("s", 0)
		if err != nil {
			t.Fatal(err)
		}
		wire := webPacket(ue, 40000)
		if res, err := net.SendUpstream(0, wire); err != nil || res.Disposition != ExitedNet {
			t.Fatalf("opening: %s (%v)", res.Disposition, err)
		}
		reply := packet.Packet{Src: wire.Dst, Dst: wire.Src, SrcPort: wire.DstPort, DstPort: wire.SrcPort,
			Proto: packet.ProtoTCP, TTL: 64}
		net.EnableFastPath(1)
		defer net.DisableFastPath()
		checkSendsAllocNothing(t, net, 0, *webPacket(ue, 40000), reply, 6)
		if v, _ := net.MiddleboxStats(); v != 0 {
			t.Fatalf("the firewall counted %d consistency violations", v)
		}
	})
}

// stampBox is a Middlebox of a type the walk does not know: an echo
// canceller that stamps each packet's Seq.
type stampBox struct{ mbox.Middlebox }

func (s stampBox) Process(p *packet.Packet, dir mbox.Direction) bool {
	p.Seq = 7
	return s.Middlebox.Process(p, dir)
}

// TestEveryMiddleboxKindForwards: the walk hands every box the Network's
// copy of the packet, copied back. With an IDS, then a box of a type the
// registry does not build, in the firewall's place on the Fig. 3 network,
// a web flow opens, its reply comes back through the same instance, and
// what the box wrote reaches the caller's packets.
func TestEveryMiddleboxKindForwards(t *testing.T) {
	for _, fn := range []string{"ids", "stamp"} {
		t.Run(fn, func(t *testing.T) {
			f := newFig3(t)
			ctrl, err := core.NewController(f.Topology, core.ControllerConfig{
				Gateway: f.gw, Policy: policy.ExampleCarrierPolicy(),
				MBTypes: map[string]topo.MBType{policy.MBFirewall: 0, policy.MBTranscoder: 1, policy.MBEchoCancel: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := mbox.NewRegistry(ctrl.Plan(), packet.Prefix{})
			reg.Register("stamp", func(i topo.MBInstanceID) mbox.Middlebox { return stampBox{mbox.NewEchoCanceller(i)} })
			net, err := New(ctrl, Config{Registry: reg, MBFuncs: map[topo.MBType]string{0: fn, 1: "transcoder", 2: "echo-cancel"}})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"}); err != nil {
				t.Fatal(err)
			}
			ue, err := net.Attach("a", 0)
			if err != nil {
				t.Fatal(err)
			}
			up := webPacket(ue, 40000)
			res, err := net.SendUpstream(0, up)
			if err != nil || res.Disposition != ExitedNet || len(res.Middleboxes()) != 1 {
				t.Fatalf("opening: %s via %v (%v)", res.Disposition, res.Middleboxes(), err)
			}
			box := res.Middleboxes()[0]
			reply := &packet.Packet{Src: up.Dst, Dst: up.Src, SrcPort: up.DstPort, DstPort: up.SrcPort,
				Proto: packet.ProtoTCP, TTL: 64}
			dres, err := net.SendDownstream(reply)
			if err != nil || dres.Disposition != Delivered || !slices.Equal(dres.Middleboxes(), []topo.MBInstanceID{box}) {
				t.Fatalf("reply: %s via %v (%v), want delivered via %d", dres.Disposition, dres.Middleboxes(), err, box)
			}
			if s := net.Boxes[box].Stats(); s.Packets != 2 || s.Connections != 1 || s.Violations != 0 {
				t.Fatalf("%s saw %+v, want 2 packets of 1 connection and no violation", fn, s)
			}
			if stamped := up.Seq == 7 && reply.Seq == 7; stamped != (fn == "stamp") {
				t.Fatalf("%s: the caller's packets carry Seq %d and %d", fn, up.Seq, reply.Seq)
			}
		})
	}
}

// TestEveryBoxProcessesInPlace: processBox is the one way into a box. For
// every function the registry builds, and a box of a type it does not, a
// second upstream packet of an open flow, declared by its sender, comes
// back with the box's writes (the NAT's public source, the stamp) and
// costs no allocation.
func TestEveryBoxProcessesInPlace(t *testing.T) {
	pool := packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24)
	net, _ := newNet(t, pool)
	if err := net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	ue, err := net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := mbox.NewRegistry(net.Ctrl.Plan(), pool)
	reg.Register("stamp", func(i topo.MBInstanceID) mbox.Middlebox { return stampBox{mbox.NewEchoCanceller(i)} })
	fns := reg.Functions()
	slices.Sort(fns)
	if len(fns) != 6 {
		t.Fatalf("registry builds %v, want the five built-in functions and the stamp", fns)
	}
	up := *webPacket(ue, 40000)
	for _, fn := range fns {
		box, err := reg.Build(fn, 99)
		if err != nil {
			t.Fatal(err)
		}
		var seen packet.Packet
		send := func() bool {
			p := up
			ok := net.processBox(box, &p)
			seen = p
			return ok
		}
		if !send() {
			t.Fatalf("%s dropped the opening packet", fn)
		}
		want := up
		switch fn {
		case "nat":
			want.Src, want.SrcPort = seen.Src, seen.SrcPort
			if !pool.Contains(seen.Src) || seen.SrcPort < 1024 {
				t.Fatalf("nat left the source %v:%d, want one from %v", seen.Src, seen.SrcPort, pool)
			}
		case "stamp":
			want.Seq = 7
		}
		if !reflect.DeepEqual(seen, want) {
			t.Fatalf("%s: the caller's packet reads %+v, want %+v", fn, seen, want)
		}
		allocs, bytes := perCall(200, func() {
			if !send() {
				t.Fatalf("%s dropped a packet of its open flow", fn)
			}
		})
		if allocs != 0 || bytes != 0 {
			t.Fatalf("%s: %.2f allocs, %.1f B per packet, want none", fn, allocs, bytes)
		}
		if !reflect.DeepEqual(seen, want) {
			t.Fatalf("%s: a later packet reads %+v, want %+v", fn, seen, want)
		}
	}
}

// BenchmarkSendDownstream is one return packet of an established
// middlebox-free flow on the five-switch line, fast path on.
func BenchmarkSendDownstream(b *testing.B) {
	net := newPlainLine(b, 1, 3)
	_, reply := primedFlow(b, net)
	net.EnableFastPath(1)
	defer net.DisableFastPath()
	p := new(packet.Packet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*p = reply
		if res, err := net.SendDownstream(p); err != nil || res.Disposition != Delivered {
			b.Fatalf("%s: %v", res.Disposition, err)
		}
	}
}
