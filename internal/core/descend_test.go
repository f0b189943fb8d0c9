package core

import (
	"slices"
	"testing"

	"repro/internal/policy"
	"repro/internal/topo"
)

// TestCanonicalDescendAgreesEverywhere is the differential check of
// topo.CanonicalDescend's three users: for every (switch, station) pair the
// shortcut route descendRoute builds, a FIB.Step walk of the bootstrapped
// Type 3 location tables, and the planner's canonical tail must name the
// same switches hop by hop — on the Fig. 3 network and on the K=4, C=3
// plant the harnesses run.
func TestCanonicalDescendAgreesEverywhere(t *testing.T) {
	fig3, _ := testController(t)
	g, err := topo.Generate(topo.GenParams{K: 4, ClusterSize: 3, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	k4, err := NewController(g.Topology, ControllerConfig{Gateway: g.GatewayID, Policy: policy.ExampleCarrierPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *Controller
	}{{"fig3", fig3}, {"k4c3", k4}} {
		name, c := tc.name, tc.c
		parent := c.Installer.tree(c.gateway)
		pairs := 0
		for _, st := range c.T.Stations {
			chain := c.T.AncestorChain(st.Access, parent)
			probe, err := c.plan.BSPrefix(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			for i := range c.T.Nodes {
				u := topo.NodeID(i)
				route, err := c.descendRoute(nil, u, chain, parent)
				if err != nil {
					t.Fatalf("%s: descendRoute %d -> station %d: %v", name, u, st.ID, err)
				}
				hops, err := c.Installer.Walk(Down, u, 0, probe.Addr)
				if err != nil {
					t.Fatalf("%s: location walk %d -> station %d: %v", name, u, st.ID, err)
				}
				walked := make([]topo.NodeID, len(hops))
				for j, h := range hops {
					walked[j] = h.Switch
				}
				tail, err := c.Planner.AppendTail([]topo.NodeID{u}, u, st.Access, c.gateway)
				if err != nil {
					t.Fatalf("%s: planner tail %d -> station %d: %v", name, u, st.ID, err)
				}
				if !slices.Equal(route, walked) || !slices.Equal(route, tail) {
					t.Fatalf("%s: switch %d -> station %d (access %d): descendRoute %v, location walk %v, planner tail %v",
						name, u, st.ID, st.Access, route, walked, tail)
				}
				if route[len(route)-1] != st.Access {
					t.Fatalf("%s: switch %d -> station %d ends at %d, not access %d", name, u, st.ID, route[len(route)-1], st.Access)
				}
				pairs++
			}
		}
		t.Logf("%s: %d (switch, station) pairs agree", name, pairs)
	}
}
