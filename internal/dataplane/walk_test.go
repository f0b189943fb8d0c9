package dataplane

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/switchsim"
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
		net.Switches[st.Access].InstallMicroflow(webPacket(ue, 40000).Flow(), switchsim.DropAction())
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

// TestSendAllocBudget: with the fast path on, a single packet of an
// established middlebox-free flow allocates its walk's Hops once, in
// either direction, on a five-switch line (as long as the benchmark
// plant's walks). The interpreter walk grew Hops 1→2→4→8 there: 4 objects
// and 120 B per call, the byte limit here.
func TestSendAllocBudget(t *testing.T) {
	net := newPlainLine(t, 1, 3)
	ue, reply := primedFlow(t, net)
	net.EnableFastPath(1)
	defer net.DisableFastPath()
	up := *webPacket(ue, 40000)
	p := new(packet.Packet) // the caller's packet, reused across calls
	for _, c := range []struct {
		name string
		send func() (WalkResult, error)
		want Disposition
	}{
		{"SendUpstream", func() (WalkResult, error) { *p = up; return net.SendUpstream(0, p) }, ExitedNet},
		{"SendDownstream", func() (WalkResult, error) { *p = reply; return net.SendDownstream(p) }, Delivered},
	} {
		res, err := c.send()
		if err != nil || res.Disposition != c.want || len(res.Hops) != 5 {
			t.Fatalf("%s: %s after %d hops (%v), want %s after 5", c.name, res.Disposition, len(res.Hops), err, c.want)
		}
		allocs, bytes := perCall(200, func() { _, _ = c.send() })
		t.Logf("%s: %.2f allocs, %.1f B per call", c.name, allocs, bytes)
		if allocs > 1 || bytes > 120 {
			t.Fatalf("%s allocates %.2f objects and %.1f B per call, want at most 1 and 120 B", c.name, allocs, bytes)
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
