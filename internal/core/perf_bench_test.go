package core

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/policy"
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

// BenchmarkAttachDetach measures one attach and detach of a UE at a
// station that already holds n resident UEs, on each of the four stations
// in turn: a LocIP allocated and freed, its record filed and freed. 4 000
// residents plus the cycling UE still fit the default plan's 4 095 UE IDs
// per station.
func BenchmarkAttachDetach(b *testing.B) {
	for _, n := range []int{64, 512, 4000} {
		b.Run(fmt.Sprintf("resident=%d", n), func(b *testing.B) {
			c, _ := testController(b)
			attr := policy.Attributes{Provider: "A", Plan: "silver"}
			for bs := packet.BSID(0); bs < 4; bs++ {
				for i := 0; i < n; i++ {
					imsi := fmt.Sprintf("resident-%d-%d", bs, i)
					if err := c.RegisterSubscriber(imsi, attr); err != nil {
						b.Fatal(err)
					}
					if _, _, err := c.Attach(imsi, bs); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := c.RegisterSubscriber("cycling", attr); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Attach("cycling", packet.BSID(i%4)); err != nil {
					b.Fatal(err)
				}
				if err := c.Detach("cycling"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAgentView measures the view of station 0, which holds 10 UEs,
// while each of the other three stations holds n: the view reads station
// 0's row of the station table, so its cost does not follow n.
func BenchmarkAgentView(b *testing.B) {
	for _, n := range []int{100, 3000} {
		b.Run(fmt.Sprintf("others=%d", n), func(b *testing.B) {
			c, _ := testController(b)
			attr := policy.Attributes{Provider: "A", Plan: "silver"}
			for bs := packet.BSID(0); bs < 4; bs++ {
				count := n
				if bs == 0 {
					count = 10
				}
				for i := 0; i < count; i++ {
					imsi := fmt.Sprintf("resident-%d-%d", bs, i)
					if err := c.RegisterSubscriber(imsi, attr); err != nil {
						b.Fatal(err)
					}
					if _, _, err := c.Attach(imsi, bs); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := c.AgentView(0)
				if err != nil || len(v.UEs) != 10 {
					b.Fatalf("view of station 0: %d UEs, %v", len(v.UEs), err)
				}
			}
		})
	}
}
