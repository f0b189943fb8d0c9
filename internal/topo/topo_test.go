package topo

import (
	"slices"
	"testing"

	"repro/internal/packet"
)

func lineTopo(t *testing.T, n int) *Topology {
	t.Helper()
	tp := New()
	prev := None
	for i := 0; i < n; i++ {
		kind := Core
		if i == 0 {
			kind = Access
		}
		if i == n-1 {
			kind = Gateway
		}
		id := tp.AddNode(kind, "")
		if prev != None {
			if err := tp.Connect(prev, id); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	return tp
}

func TestConnectErrors(t *testing.T) {
	tp := New()
	a := tp.AddNode(Core, "a")
	b := tp.AddNode(Core, "b")
	if err := tp.Connect(a, a); err == nil {
		t.Error("self link should fail")
	}
	if err := tp.Connect(a, 99); err == nil {
		t.Error("unknown node should fail")
	}
	if err := tp.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	if err := tp.Connect(b, a); err == nil {
		t.Error("duplicate link should fail")
	}
	if n := len(tp.Nodes[a].Neighbors); n != 1 {
		t.Errorf("a has %d neighbors, want 1", n)
	}
}

func TestPortNumbering(t *testing.T) {
	tp := New()
	a := tp.AddNode(Core, "a")
	b := tp.AddNode(Core, "b")
	c := tp.AddNode(Core, "c")
	_ = tp.Connect(a, b)
	_ = tp.Connect(a, c)
	if p := tp.Nodes[a].PortTo(b); p != 0 {
		t.Errorf("port a->b = %d, want 0", p)
	}
	if p := tp.Nodes[a].PortTo(c); p != 1 {
		t.Errorf("port a->c = %d, want 1", p)
	}
	if p := tp.Nodes[b].PortTo(c); p != -1 {
		t.Errorf("port b->c = %d, want -1", p)
	}
}

func TestBFSAndShortestPath(t *testing.T) {
	tp := lineTopo(t, 5)
	dist := tp.BFS(0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	path := tp.WalkToward(0, tp.BFS(4))
	if len(path) != 5 || path[0] != 0 || path[4] != 4 {
		t.Fatalf("path = %v", path)
	}
}

// connected reports whether every node is reachable from node 0.
func connected(t *Topology) bool {
	for _, d := range t.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

func TestBFSUnreachable(t *testing.T) {
	tp := New()
	tp.AddNode(Core, "a")
	tp.AddNode(Core, "b") // island
	dist := tp.BFS(0)
	if dist[1] != -1 {
		t.Errorf("unreachable dist = %d", dist[1])
	}
	if tp.WalkToward(0, tp.BFS(1)) != nil {
		t.Error("path to island should be nil")
	}
	if connected(tp) {
		t.Error("should not be connected")
	}
}

func TestWalkTowardDeterministic(t *testing.T) {
	// Diamond: 0-1-3, 0-2-3. Walk should always pick the lower neighbor.
	tp := New()
	for i := 0; i < 4; i++ {
		tp.AddNode(Core, "")
	}
	_ = tp.Connect(0, 1)
	_ = tp.Connect(0, 2)
	_ = tp.Connect(1, 3)
	_ = tp.Connect(2, 3)
	dist := tp.BFS(3)
	for i := 0; i < 10; i++ {
		path := tp.WalkToward(0, dist)
		if len(path) != 3 || path[1] != 1 {
			t.Fatalf("walk = %v, want [0 1 3]", path)
		}
	}
}

func TestBaseStations(t *testing.T) {
	tp := New()
	as := tp.AddNode(Access, "as0")
	core := tp.AddNode(Core, "c0")
	if err := tp.AddBaseStation(1, as); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddBaseStation(1, as); err == nil {
		t.Error("duplicate base station should fail")
	}
	if err := tp.AddBaseStation(2, core); err == nil {
		t.Error("base station on core switch should fail")
	}
	bs, ok := tp.Station(1)
	if !ok || bs.Access != as {
		t.Fatalf("Station(1) = %+v %v", bs, ok)
	}
	if _, ok := tp.Station(9); ok {
		t.Error("unknown station should not resolve")
	}
}

func TestMiddleboxes(t *testing.T) {
	tp := New()
	sw := tp.AddNode(Core, "c0")
	id, err := tp.AttachMiddlebox(MBType(2), sw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.AttachMiddlebox(MBType(2), 99); err == nil {
		t.Error("attach to unknown node should fail")
	}
	got := tp.InstancesOf(MBType(2))
	if len(got) != 1 || got[0] != id {
		t.Fatalf("InstancesOf = %v", got)
	}
	inst := tp.Instance(id)
	if inst.Type != 2 || inst.Attached != sw {
		t.Fatalf("Instance = %+v", inst)
	}
}

func TestGenerateCounts(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		p := GenParams{K: k, ClusterSize: 10, MBTypes: k, Seed: 1}
		g, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		wantBS := 10 * k * k * k / 4
		if len(g.Stations) != wantBS {
			t.Errorf("k=%d: stations = %d, want %d", k, len(g.Stations), wantBS)
		}
		// Nodes: k² core + 1 gateway + k·k agg + one access switch per BS.
		wantNodes := k*k + 1 + k*k + wantBS
		if len(g.Nodes) != wantNodes {
			t.Errorf("k=%d: nodes = %d, want %d", k, len(g.Nodes), wantNodes)
		}
		// Middleboxes: k types × (k pods + 2 core instances).
		wantMB := k * (k + 2)
		if len(g.MBoxes) != wantMB {
			t.Errorf("k=%d: middleboxes = %d, want %d", k, len(g.MBoxes), wantMB)
		}
		if !connected(g.Topology) {
			t.Errorf("k=%d: topology not connected", k)
		}
		var gateways []NodeID
		for _, n := range g.Nodes {
			if n.Kind == Gateway {
				gateways = append(gateways, n.ID)
			}
		}
		if len(gateways) != 1 || gateways[0] != g.GatewayID {
			t.Errorf("k=%d: gateways = %v", k, gateways)
		}
	}
}

func TestGeneratePaperSizes(t *testing.T) {
	// The paper: k=8 → 1280 base stations, k=20 → 20000.
	for k, want := range map[int]int{8: 1280, 20: 20000} {
		g, err := Generate(GenParams{K: k, ClusterSize: 10})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(g.Stations); n != want {
			t.Errorf("k=%d → %d, want %d", k, n, want)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenParams{
		{K: 3, ClusterSize: 10},
		{K: 0, ClusterSize: 10},
		{K: 4, ClusterSize: 0},
		{K: 4, ClusterSize: 10, MBTypes: -1},
	}
	for i, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenParams{K: 4, ClusterSize: 4, MBTypes: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenParams{K: 4, ClusterSize: 4, MBTypes: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.MBoxes) != len(b.MBoxes) {
		t.Fatal("instance counts differ")
	}
	for i := range a.MBoxes {
		if a.MBoxes[i] != b.MBoxes[i] {
			t.Fatalf("placement differs at %d: %+v vs %+v", i, a.MBoxes[i], b.MBoxes[i])
		}
	}
}

func TestGenerateClusterContiguity(t *testing.T) {
	g, err := Generate(GenParams{K: 4, ClusterSize: 10, MBTypes: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Base stations are numbered densely in cluster order: stations 0..9 are
	// one ring, and consecutive stations in a cluster are ring neighbors.
	s0, _ := g.Station(0)
	s1, _ := g.Station(1)
	if g.Nodes[s0.Access].PortTo(s1.Access) < 0 {
		t.Error("stations 0 and 1 should be ring-adjacent")
	}
	s9, _ := g.Station(9)
	if g.Nodes[s9.Access].PortTo(s0.Access) < 0 {
		t.Error("ring should wrap around")
	}
	// Station IDs are dense from 0.
	for i, st := range g.Stations {
		if st.ID != packet.BSID(i) {
			t.Fatalf("station %d has ID %d", i, st.ID)
		}
	}
}

func TestGenerateAccessUplinkRedundancy(t *testing.T) {
	g, err := Generate(GenParams{K: 4, ClusterSize: 10, MBTypes: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Ring head (station 0) and midpoint (station 5) both uplink to a pod
	// switch: their access switches have 3 neighbors (2 ring + 1 up).
	s0, _ := g.Station(0)
	s5, _ := g.Station(5)
	if n := len(g.Nodes[s0.Access].Neighbors); n != 3 {
		t.Errorf("head uplinks: %d neighbors, want 3", n)
	}
	if n := len(g.Nodes[s5.Access].Neighbors); n != 3 {
		t.Errorf("midpoint uplinks: %d neighbors, want 3", n)
	}
	s1, _ := g.Station(1)
	if n := len(g.Nodes[s1.Access].Neighbors); n != 2 {
		t.Errorf("ordinary ring member: %d neighbors, want 2", n)
	}
}

func TestSPTree(t *testing.T) {
	// Diamond 0-1-3, 0-2-3 plus island 4.
	tp := New()
	for i := 0; i < 5; i++ {
		tp.AddNode(Core, "")
	}
	_ = tp.Connect(0, 1)
	_ = tp.Connect(0, 2)
	_ = tp.Connect(1, 3)
	_ = tp.Connect(2, 3)
	par := tp.SPTree(0)
	if par[0] != None {
		t.Errorf("root parent = %d", par[0])
	}
	if par[1] != 0 || par[2] != 0 {
		t.Errorf("layer-1 parents: %d %d", par[1], par[2])
	}
	if par[3] != 1 && par[3] != 2 {
		t.Errorf("parent[3] = %d, want one of its equally close neighbors", par[3])
	}
	// Deterministic across calls.
	par2 := tp.SPTree(0)
	for i := range par {
		if par[i] != par2[i] {
			t.Fatalf("SPTree not deterministic at %d", i)
		}
	}
	if par[4] != None {
		t.Errorf("island parent = %d", par[4])
	}
}

// TestCanonicalDescend states the location-routing rule on a small tree
// with one mesh link: step down the chain, jump to the lowest-index chain
// neighbour, else climb.
func TestCanonicalDescend(t *testing.T) {
	tp := New()
	for i := 0; i < 6; i++ {
		tp.AddNode(Core, "")
	}
	for _, l := range [][2]NodeID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}, {4, 5}} {
		if err := tp.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	parent := []NodeID{None, 0, 0, 1, 2, 4}
	chain := tp.AppendAncestorChain([]NodeID{9}, 3, parent)
	if want := []NodeID{9, 3, 1, 0}; !slices.Equal(chain, want) {
		t.Fatalf("AppendAncestorChain onto [9] = %v, want %v", chain, want)
	}
	chain = chain[1:]
	for _, c := range []struct {
		u, next NodeID
		done    bool
	}{
		{3, None, true}, // the destination itself
		{1, 3, false},   // on the chain: step down
		{0, 1, false},   // the root is on every chain
		{2, 1, false},   // off-chain, neighbours 0 and 1: the lower index wins
		{4, 2, false},   // no chain neighbour: climb
		{5, 4, false},
	} {
		if next, done := tp.CanonicalDescend(c.u, chain, parent); next != c.next || done != c.done {
			t.Errorf("CanonicalDescend(%d) = (%d, %v), want (%d, %v)", c.u, next, done, c.next, c.done)
		}
	}
	if got := tp.AncestorChain(3, []NodeID{1, 0, 0, 1, 2, 4}); got != nil {
		t.Errorf("AncestorChain over a cyclic parent array = %v, want nil", got)
	}
}

func TestSPTreeCoversGenerated(t *testing.T) {
	g, err := Generate(GenParams{K: 4, ClusterSize: 10, MBTypes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	par := g.SPTree(g.GatewayID)
	dist := g.BFS(g.GatewayID)
	for i, p := range par {
		if NodeID(i) == g.GatewayID {
			continue
		}
		if p == None {
			t.Fatalf("node %d has no parent", i)
		}
		if dist[p] != dist[i]-1 {
			t.Fatalf("parent of %d not one hop closer", i)
		}
	}
}

// TestDownNodeIsRoutedAround: a failed switch is invisible to BFS and to
// both walks, a BFS from it reaches nothing, and recovering it restores
// the node.
func TestDownNodeIsRoutedAround(t *testing.T) {
	tp := New()
	for i := 0; i < 4; i++ {
		tp.AddNode(Core, "c")
	}
	for _, l := range [][2]NodeID{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		if err := tp.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.SetNodeDown(1, true); err != nil || !tp.Down(1) {
		t.Fatalf("SetNodeDown(1): %v, Down = %v", err, tp.Down(1))
	}
	if tp.SetNodeDown(99, true) == nil {
		t.Error("an unknown node cannot go down")
	}
	dist := tp.BFS(3)
	if dist[1] != -1 || dist[0] != 2 {
		t.Fatalf("dist with node 1 down = %v", dist)
	}
	for name, path := range map[string][]NodeID{
		"WalkToward":       tp.WalkToward(0, dist),
		"WalkTowardSpread": tp.WalkTowardSpread(0, dist, 7),
	} {
		if !slices.Equal(path, []NodeID{0, 2, 3}) {
			t.Errorf("%s = %v, want [0 2 3]", name, path)
		}
	}
	if d := tp.BFS(1); d[0] != -1 || d[1] != -1 {
		t.Errorf("a BFS from a down node reached %v", d)
	}
	if tp.WalkTowardSpread(1, dist, 7) != nil {
		t.Error("a spread walk from an unreachable node should be nil")
	}
	if err := tp.SetNodeDown(1, false); err != nil || tp.Down(1) || tp.BFS(3)[1] != 1 {
		t.Fatalf("recovering node 1: %v, Down = %v", err, tp.Down(1))
	}
	if Access.String() != "access" || Gateway.String() != "gateway" || Kind(9).String() != "kind(9)" {
		t.Errorf("kinds render as %s, %s, %s", Access, Gateway, Kind(9))
	}
}
