// Package topo models the cellular core network graph — access, aggregation
// and core switches, gateways, base stations and middlebox attachment points
// — and generates the synthetic three-layer topologies the paper uses for
// its large-scale simulations (§6.3).
package topo

import (
	"fmt"
	"slices"

	"repro/internal/packet"
)

// NodeID identifies a switch in the topology. IDs are dense, starting at 0.
type NodeID int32

// None is the absent-node sentinel.
const None NodeID = -1

// Kind classifies a switch.
type Kind uint8

// Switch kinds.
const (
	Access  Kind = iota // software switch at a base station
	Agg                 // aggregation-layer switch
	Core                // core-layer switch
	Gateway             // Internet-facing gateway switch
)

func (k Kind) String() string {
	switch k {
	case Access:
		return "access"
	case Agg:
		return "agg"
	case Core:
		return "core"
	case Gateway:
		return "gateway"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Node is one switch.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
	// Neighbors lists adjacent switch IDs; the index in this slice is the
	// switch's port number for that adjacency.
	Neighbors []NodeID
}

// PortTo returns the local port facing neighbor n, or -1.
func (nd *Node) PortTo(n NodeID) int {
	for i, v := range nd.Neighbors {
		if v == n {
			return i
		}
	}
	return -1
}

// MBType identifies a middlebox function (firewall, transcoder, ...).
type MBType int

// MBInstanceID identifies one deployed middlebox instance.
type MBInstanceID int32

// MBInstance is a middlebox instance attached to a switch.
type MBInstance struct {
	ID       MBInstanceID
	Type     MBType
	Attached NodeID // switch the instance hangs off
}

// BaseStation ties a base-station ID to its access switch.
type BaseStation struct {
	ID     packet.BSID
	Access NodeID
}

// Topology is the network graph. Build it with the Add/Connect methods or
// the Generate constructor; it is immutable during simulation.
type Topology struct {
	Nodes     []Node
	Stations  []BaseStation
	MBoxes    []MBInstance
	gateways  []NodeID
	mbByType  map[MBType][]MBInstanceID
	stationAt map[packet.BSID]int
	linkCount int
	down      map[NodeID]bool
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		mbByType:  make(map[MBType][]MBInstanceID),
		stationAt: make(map[packet.BSID]int),
	}
}

// AddNode appends a switch of the given kind and returns its ID.
func (t *Topology) AddNode(kind Kind, name string) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Name: name})
	if kind == Gateway {
		t.gateways = append(t.gateways, id)
	}
	return id
}

// SetNodeDown marks a switch failed (or recovered). Failed switches are
// invisible to BFS, walks and trees, so path computation routes around
// them — the controller "can easily handle topology changes (e.g., switch
// failures) by recomputing paths" (§5.2).
func (t *Topology) SetNodeDown(n NodeID, isDown bool) error {
	if !t.valid(n) {
		return fmt.Errorf("topo: unknown node %d", n)
	}
	if t.down == nil {
		t.down = make(map[NodeID]bool)
	}
	if isDown {
		t.down[n] = true
	} else {
		delete(t.down, n)
	}
	return nil
}

// Down reports whether a switch is failed.
func (t *Topology) Down(n NodeID) bool { return t.down[n] }

// Connect adds a bidirectional link between a and b. Connecting a node to
// itself or duplicating an existing link is an error.
func (t *Topology) Connect(a, b NodeID) error {
	if a == b {
		return fmt.Errorf("topo: self-link on node %d", a)
	}
	if !t.valid(a) || !t.valid(b) {
		return fmt.Errorf("topo: connect %d-%d: unknown node", a, b)
	}
	if t.Nodes[a].PortTo(b) >= 0 {
		return fmt.Errorf("topo: duplicate link %d-%d", a, b)
	}
	t.Nodes[a].Neighbors = append(t.Nodes[a].Neighbors, b)
	t.Nodes[b].Neighbors = append(t.Nodes[b].Neighbors, a)
	t.linkCount++
	return nil
}

func (t *Topology) valid(n NodeID) bool { return n >= 0 && int(n) < len(t.Nodes) }

// Links reports the number of bidirectional links.
func (t *Topology) Links() int { return t.linkCount }

// AttachMiddlebox deploys an instance of typ on switch sw.
func (t *Topology) AttachMiddlebox(typ MBType, sw NodeID) (MBInstanceID, error) {
	if !t.valid(sw) {
		return 0, fmt.Errorf("topo: attach middlebox to unknown node %d", sw)
	}
	id := MBInstanceID(len(t.MBoxes))
	t.MBoxes = append(t.MBoxes, MBInstance{ID: id, Type: typ, Attached: sw})
	t.mbByType[typ] = append(t.mbByType[typ], id)
	return id, nil
}

// InstancesOf lists the deployed instances of a middlebox type.
func (t *Topology) InstancesOf(typ MBType) []MBInstanceID { return t.mbByType[typ] }

// Instance returns the instance record for id.
func (t *Topology) Instance(id MBInstanceID) MBInstance { return t.MBoxes[id] }

// AddBaseStation registers a base station served by access switch sw.
func (t *Topology) AddBaseStation(id packet.BSID, sw NodeID) error {
	if !t.valid(sw) || t.Nodes[sw].Kind != Access {
		return fmt.Errorf("topo: base station %d needs an access switch, got node %d", id, sw)
	}
	if _, dup := t.stationAt[id]; dup {
		return fmt.Errorf("topo: duplicate base station %d", id)
	}
	t.stationAt[id] = len(t.Stations)
	t.Stations = append(t.Stations, BaseStation{ID: id, Access: sw})
	return nil
}

// Station looks a base station up by ID.
func (t *Topology) Station(id packet.BSID) (BaseStation, bool) {
	i, ok := t.stationAt[id]
	if !ok {
		return BaseStation{}, false
	}
	return t.Stations[i], true
}

// Gateways lists the Internet-facing switches.
func (t *Topology) Gateways() []NodeID { return t.gateways }

// BFS computes hop distances from src to every node. Unreachable nodes get
// distance -1. The returned slice is indexed by NodeID.
func (t *Topology) BFS(src NodeID) []int32 {
	dist := make([]int32, len(t.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	if !t.valid(src) {
		return dist
	}
	if t.down[src] {
		return dist
	}
	dist[src] = 0
	queue := make([]NodeID, 0, len(t.Nodes))
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.Nodes[u].Neighbors {
			if dist[v] < 0 && !t.down[v] {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// WalkToward traces the shortest path from src to the source of dist (a BFS
// field computed from the destination). The returned path includes both
// endpoints. Ties break toward the lowest neighbor ID, so the walk is
// deterministic. It returns nil when no path exists.
func (t *Topology) WalkToward(src NodeID, dist []int32) []NodeID {
	if !t.valid(src) || dist[src] < 0 {
		return nil
	}
	path := make([]NodeID, 0, dist[src]+1)
	u := src
	path = append(path, u)
	for dist[u] > 0 {
		next := None
		for _, v := range t.Nodes[u].Neighbors {
			if dist[v] == dist[u]-1 && (next == None || v < next) {
				next = v
			}
		}
		if next == None {
			return nil // inconsistent distance field
		}
		u = next
		path = append(path, u)
	}
	return path
}

// ShortestPath returns one deterministic shortest path from a to b
// (inclusive), or nil when disconnected.
func (t *Topology) ShortestPath(a, b NodeID) []NodeID {
	return t.WalkToward(a, t.BFS(b))
}

// Connected reports whether every node is reachable from node 0.
func (t *Topology) Connected() bool {
	if len(t.Nodes) == 0 {
		return true
	}
	dist := t.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// SPTree returns a deterministic shortest-path-tree parent array rooted at
// root: parent[n] is n's next hop toward the root (None for the root and
// unreachable nodes). Ties between equally close neighbors break by a hash
// of the child — not by lowest ID — so parallel fabrics (full-mesh core
// layers) spread children across peers instead of funnelling everything
// through one hub switch. SoftCell's location routing (Type 3 rules)
// follows this tree, so every switch agrees on one canonical next hop per
// destination.
func (t *Topology) SPTree(root NodeID) []NodeID {
	dist := t.BFS(root)
	parent := make([]NodeID, len(t.Nodes))
	mix := func(u, v NodeID) uint32 {
		h := uint32(u)*2654435761 ^ uint32(v)*40503
		h ^= h >> 13
		h *= 0x5bd1e995
		h ^= h >> 15
		return h
	}
	for i := range parent {
		parent[i] = None
		if dist[i] <= 0 {
			continue
		}
		var bestH uint32
		for _, v := range t.Nodes[i].Neighbors {
			if dist[v] != dist[i]-1 {
				continue
			}
			h := mix(NodeID(i), v)
			if parent[i] == None || h < bestH || (h == bestH && v < parent[i]) {
				parent[i], bestH = v, h
			}
		}
	}
	return parent
}

// AncestorChain returns the canonical chain from leaf up to the root of the
// given SPTree parent array: chain[0] = leaf, chain[len-1] = root. It
// returns nil when the leaf has no path to the root.
func (t *Topology) AncestorChain(leaf NodeID, parent []NodeID) []NodeID {
	return t.AppendAncestorChain(nil, leaf, parent)
}

// AppendAncestorChain is AncestorChain appending to dst, so a caller that
// keeps a buffer builds the chain without allocating. It returns nil (and
// drops dst) when the leaf has no path to the root.
func (t *Topology) AppendAncestorChain(dst []NodeID, leaf NodeID, parent []NodeID) []NodeID {
	start := len(dst)
	for n := leaf; n != None; n = parent[n] {
		dst = append(dst, n)
		if len(dst)-start > len(t.Nodes) {
			return nil // cycle: malformed parent array
		}
	}
	return dst
}

// CanonicalDescend is SoftCell's shared location-routing function: the
// canonical next hop at switch u for traffic toward chain[0] (the
// destination's access switch), where chain is the destination's
// AncestorChain. The chain is only as long as the tree is deep, so it is
// scanned rather than indexed.
//
// The rule, in precedence order: on the destination's ancestor chain, step
// down the chain; off-chain but adjacent to chain nodes, jump to the
// lowest-index (closest-to-destination) adjacent chain node — this is what
// lets full-mesh layers (core and pod fabrics) cut across instead of
// climbing through the tree root; otherwise climb to the tree parent.
// The bootstrapped Type 3 location tables implement exactly this function,
// so every clause's tail resolves identically at every switch.
//
// done=true means u is the destination access switch itself.
func (t *Topology) CanonicalDescend(u NodeID, chain []NodeID, parent []NodeID) (next NodeID, done bool) {
	if u == chain[0] {
		return None, true
	}
	if i := slices.Index(chain, u); i > 0 {
		return chain[i-1], false
	}
	best := -1
	for _, v := range t.Nodes[u].Neighbors {
		if j := slices.Index(chain, v); j >= 0 && (best < 0 || j < best) {
			best = j
		}
	}
	if best >= 0 {
		return chain[best], false
	}
	return parent[u], false
}

// WalkTowardSpread is WalkToward with a destination-seeded tie-break:
// among equally close neighbors it picks the one minimising a hash of
// (hop, neighbor, seed) instead of the lowest ID. Deterministic for a given
// seed, but different destinations spread across parallel paths instead of
// funnelling through the lowest-numbered switches — which keeps multi-hop
// middlebox trunks from revisiting switches over the same link.
func (t *Topology) WalkTowardSpread(src NodeID, dist []int32, seed uint32) []NodeID {
	if !t.valid(src) || dist[src] < 0 {
		return nil
	}
	mix := func(u, v NodeID) uint32 {
		h := uint32(u)*2654435761 ^ uint32(v)*40503 ^ seed*97
		h ^= h >> 13
		h *= 0x5bd1e995
		h ^= h >> 15
		return h
	}
	path := make([]NodeID, 0, dist[src]+1)
	u := src
	path = append(path, u)
	for dist[u] > 0 {
		next := None
		var bestH uint32
		for _, v := range t.Nodes[u].Neighbors {
			if dist[v] != dist[u]-1 {
				continue
			}
			h := mix(u, v)
			if next == None || h < bestH || (h == bestH && v < next) {
				next, bestH = v, h
			}
		}
		if next == None {
			return nil
		}
		u = next
		path = append(path, u)
	}
	return path
}
