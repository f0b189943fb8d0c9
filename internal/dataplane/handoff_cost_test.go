package dataplane

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
)

// handoffFlows is how many web flows the moving UE and each resident UE of
// handoffNet hold.
const handoffFlows = 4

// handoffNet is syncBenchNet (instrumented on reg when it is not nil) with
// eight resident UEs at each of station 0 and far, and the UE "m" at
// station 0; every UE holds handoffFlows established web flows, so both
// access switches index some pages of microflows. The fast path is warm.
func handoffNet(tb testing.TB, reg *obs.Registry) (net *Network, far packet.BSID) {
	tb.Helper()
	net = syncBenchNet(tb, reg)
	far = packet.BSID(len(net.T.Stations) / 2)
	open := func(imsi string, bs packet.BSID, server int) {
		if err := net.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			tb.Fatal(err)
		}
		ue, err := net.Attach(imsi, bs)
		if err != nil {
			tb.Fatal(err)
		}
		for f := 0; f < handoffFlows; f++ {
			p := webPacket(ue, uint16(40000+f))
			p.Dst = packet.AddrFrom4(198, 18, byte(server), byte(f))
			if res, err := net.SendUpstream(bs, p); err != nil || res.Disposition != ExitedNet {
				tb.Fatalf("flow %d of %s: %v %v", f, imsi, res.Disposition, err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		open(fmt.Sprintf("home-%d", i), 0, i)
		open(fmt.Sprintf("away-%d", i), far, 8+i)
	}
	open("m", 0, 16)
	if err := net.Sync(); err != nil {
		tb.Fatal(err)
	}
	return net, far
}

// compileWork is what a span's table updates did: the fast path's
// snapshots compiled, the TCAM entries the switches copied on their first
// write after a seal, and the microflow index pages the access switches
// copied.
type compileWork struct {
	snapshots, tcamCopied, pagesCopied uint64
}

// readWork reads reg's compile counters.
func readWork(reg *obs.Registry) compileWork {
	return compileWork{
		snapshots:   reg.Counter("fastpath.snapshot.compile").Value(),
		tcamCopied:  reg.Counter("switchsim.tcam.rules.copied").Value(),
		pagesCopied: reg.Counter("switchsim.micro.pages.copied").Value(),
	}
}

func (w compileWork) minus(o compileWork) compileWork {
	return compileWork{w.snapshots - o.snapshots, w.tcamCopied - o.tcamCopied, w.pagesCopied - o.pagesCopied}
}

// TestHandoffCompileWork pins what the switches copy and the fast path
// recompiles for one Network.Handoff (its Sync included) of a UE with
// established flows, and for the release's Sync after it: a recompile
// takes each switch's sealed tables as they are, a splice copies the TCAM
// of the switch it touches once, and the two access switches copy the
// index pages the migrated microflows are written to. Two same-seed plants
// do the same work.
func TestHandoffCompileWork(t *testing.T) {
	want := [2]compileWork{
		{snapshots: 8, tcamCopied: 141, pagesCopied: 16},
		{snapshots: 6, tcamCopied: 141, pagesCopied: 0},
	}
	var runs [2][2]compileWork // per plant: the handoff, then the release
	for run := range runs {
		reg := obs.New()
		net, far := handoffNet(t, reg)
		before := readWork(reg)
		hr, err := net.Handoff("m", far)
		if err != nil {
			t.Fatal(err)
		}
		moved := readWork(reg)
		net.Ctrl.ReleaseOldLocIP(hr.OldLocIP, hr.Shortcuts)
		if err := net.Sync(); err != nil {
			t.Fatal(err)
		}
		runs[run] = [2]compileWork{moved.minus(before), readWork(reg).minus(moved)}
	}
	t.Logf("handoff: %+v; release: %+v", runs[0][0], runs[0][1])
	if runs[0] != runs[1] {
		t.Fatalf("two same-seed plants did %+v and %+v", runs[0], runs[1])
	}
	if runs[0] != want {
		t.Fatalf("a handoff and its release did %+v, want %+v", runs[0], want)
	}
}

// BenchmarkHandoff times one whole Network.Handoff — the controller's
// move, the new agent's admission, the migration of the UE's established
// flows and the Sync that splices the shortcuts and recompiles the touched
// snapshots — on the warmed generated plant, alternating between two
// stations. The release and its Sync run off the clock. make
// handoff-alloc-gate bounds its B/op and allocs/op.
func BenchmarkHandoff(b *testing.B) {
	net, far := handoffNet(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := far
		if i%2 == 1 {
			to = 0
		}
		hr, err := net.Handoff("m", to)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		net.Ctrl.ReleaseOldLocIP(hr.OldLocIP, hr.Shortcuts)
		if err := net.Sync(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
