package core

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topo"
)

// BenchmarkRequestPath measures the steady-state hot path: every requested
// path is already installed, so each call is one path-table row read. `make
// profile` drives this benchmark for its CPU/heap profiles; ReportAllocs
// pins the 0 allocs/op property in `go test -bench` output. The fixture
// runs with obs instrumentation enabled (testController wires a live
// registry), so the pinned number includes the telemetry cost.
func BenchmarkRequestPath(b *testing.B) {
	c, _ := testController(b)
	clauses := allowClauses(c.Policy)
	for bs := packet.BSID(0); bs < 4; bs++ {
		for _, cl := range clauses {
			if _, err := c.RequestPath(bs, cl); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := c.RequestPath(packet.BSID(i%4), clauses[i%len(clauses)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkInstallPath measures Algorithm 1 itself: candidate evaluation,
// aggregation, and rule installation for pre-planned routes. The installer
// is recycled every 128 installs: that keeps the rule tables at a realistic
// size instead of growing with b.N, and stays well inside the default
// plan's 63 tags (re-installing these twelve routes takes a fresh tag
// about every fourth install), so the bench times installs, not the
// allocator's refusal.
func BenchmarkInstallPath(b *testing.B) {
	n := newFig3Net(b)
	pl := routing.NewPlanner(n.Topology)
	var routes []*routing.Path
	for bs := packet.BSID(0); bs < 4; bs++ {
		for _, chain := range [][]topo.MBType{{0}, {0, 1}, {1}} {
			route, err := pl.Plan(bs, chain, n.gw)
			if err != nil {
				b.Fatal(err)
			}
			routes = append(routes, route)
		}
	}
	in := mustInstaller(b, n.Topology, InstallerOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%128 == 0 && i > 0 {
			b.StopTimer()
			in = mustInstaller(b, n.Topology, InstallerOptions{})
			b.StartTimer()
		}
		if _, err := in.InstallPath(routes[i%len(routes)]); err != nil {
			b.Fatal(err)
		}
	}
}
