// Package routing computes policy paths: concrete switch walks from the
// gateway to a base station's access switch through an ordered chain of
// middlebox instances. The controller (internal/core) turns these walks into
// aggregated forwarding rules.
//
// Instance selection follows §2.2: the policy names middlebox *functions*;
// the planner picks instances and network paths "that minimize latency and
// load".
package routing

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/packet"
	"repro/internal/topo"
)

// Path is a policy path in downstream orientation: Switches[0] is the
// gateway, Switches[len-1] the access switch of the origin base station.
// MBAt[i] names the middlebox instance traversed *at* Switches[i] after
// arrival (topo.MBInstanceID >= 0), or NoMB. A switch may appear several
// times when middlebox placement forces a loop.
type Path struct {
	Origin   packet.BSID
	Switches []topo.NodeID
	MBAt     []topo.MBInstanceID
	Chain    []topo.MBInstanceID // the instances in traversal order
}

// NoMB marks path positions without a middlebox.
const NoMB topo.MBInstanceID = -1

// Len reports the number of switch positions.
func (p *Path) Len() int { return len(p.Switches) }

// Gateway returns the path's gateway end.
func (p *Path) Gateway() topo.NodeID { return p.Switches[0] }

// Access returns the path's access end.
func (p *Path) Access() topo.NodeID { return p.Switches[len(p.Switches)-1] }

func (p *Path) String() string {
	s := fmt.Sprintf("bs%d:", p.Origin)
	for i, sw := range p.Switches {
		if i > 0 {
			s += "->"
		}
		s += fmt.Sprintf("%d", sw)
		if p.MBAt[i] != NoMB {
			s += fmt.Sprintf("(mb%d)", p.MBAt[i])
		}
	}
	return s
}

// Selector chooses a middlebox instance for the next chain position.
type Selector interface {
	// Select picks among candidates. dist(n) returns hops from the current
	// position to node n; distToUE(n) returns hops from n to the path's
	// destination access switch. Either oracle may report -1 (unreachable).
	Select(candidates []topo.MBInstanceID, from topo.NodeID, dist, distToUE func(topo.NodeID) int32) (topo.MBInstanceID, error)
}

// NearestSelector minimises the total detour dist(cur, instance) +
// dist(instance, UE), breaking ties toward the instance closer to the UE
// (the paper's motivation for in-network placement of transcoders and
// caches) and then toward the lowest instance ID. This is the
// latency-minimising default of §2.2.
type NearestSelector struct{ T *topo.Topology }

// Select implements Selector.
func (s NearestSelector) Select(cands []topo.MBInstanceID, from topo.NodeID, dist, distToUE func(topo.NodeID) int32) (topo.MBInstanceID, error) {
	best := NoMB
	var bestTotal, bestToUE int32 = -1, -1
	for _, id := range cands {
		at := s.T.Instance(id).Attached
		d, u := dist(at), distToUE(at)
		if d < 0 || u < 0 {
			continue
		}
		total := d + u
		better := best == NoMB || total < bestTotal ||
			(total == bestTotal && (u < bestToUE || (u == bestToUE && id < best)))
		if better {
			best, bestTotal, bestToUE = id, total, u
		}
	}
	if best == NoMB {
		return NoMB, fmt.Errorf("routing: no reachable instance among %v", cands)
	}
	return best, nil
}

// RandomSelector picks uniformly among reachable candidates — the paper's
// large-scale simulation uses randomly chosen instances (§6.3), and this is
// also the load-spreading alternative.
type RandomSelector struct {
	T   *topo.Topology
	Rng *rand.Rand
}

// Select implements Selector.
func (s RandomSelector) Select(cands []topo.MBInstanceID, from topo.NodeID, dist, distToUE func(topo.NodeID) int32) (topo.MBInstanceID, error) {
	reachable := make([]topo.MBInstanceID, 0, len(cands))
	for _, id := range cands {
		if dist(s.T.Instance(id).Attached) >= 0 {
			reachable = append(reachable, id)
		}
	}
	if len(reachable) == 0 {
		return NoMB, fmt.Errorf("routing: no reachable instance among %v", cands)
	}
	return reachable[s.Rng.Intn(len(reachable))], nil
}

// Planner computes policy paths over one topology, memoising BFS distance
// fields per destination. It is safe for concurrent use.
//
// The final segment of every path — from the last middlebox down to the
// base station — follows the canonical shortest-path tree rooted at the
// gateway (topo.SPTree). That makes the fan-out region identical for every
// clause, which is what lets the controller serve it with shared Type 3
// location rules instead of per-tag state (paper §3.1 "Aggregation by
// location", Fig. 3(a)). Set LegacyTails to route tails with per-pair
// shortest walks instead (the no-location-routing ablation).
type Planner struct {
	T        *topo.Topology
	Selector Selector
	// LegacyTails disables canonical-tree tails.
	LegacyTails bool

	mu     sync.Mutex
	fields map[topo.NodeID][]int32
	trees  map[topo.NodeID][]topo.NodeID
}

// NewPlanner builds a planner with the nearest-instance selector.
func NewPlanner(t *topo.Topology) *Planner {
	return &Planner{
		T:        t,
		Selector: NearestSelector{T: t},
		fields:   make(map[topo.NodeID][]int32),
		trees:    make(map[topo.NodeID][]topo.NodeID),
	}
}

// Tree returns (and caches) the canonical shortest-path tree rooted at
// root (normally the gateway).
func (pl *Planner) Tree(root topo.NodeID) []topo.NodeID {
	pl.mu.Lock()
	tr, ok := pl.trees[root]
	pl.mu.Unlock()
	if ok {
		return tr
	}
	tr = pl.T.SPTree(root)
	pl.mu.Lock()
	pl.trees[root] = tr
	pl.mu.Unlock()
	return tr
}

// Field returns (and caches) the BFS distance field rooted at n. The graph
// is undirected, so dist-to equals dist-from.
func (pl *Planner) Field(n topo.NodeID) []int32 {
	pl.mu.Lock()
	f, ok := pl.fields[n]
	pl.mu.Unlock()
	if ok {
		return f
	}
	f = pl.T.BFS(n)
	pl.mu.Lock()
	pl.fields[n] = f
	pl.mu.Unlock()
	return f
}

// Plan computes the downstream policy path from gateway to base station
// origin, traversing one instance of each chain function type in order.
// The chain is given as middlebox *types*; instance choice is delegated to
// the Selector.
func (pl *Planner) Plan(origin packet.BSID, chain []topo.MBType, gateway topo.NodeID) (*Path, error) {
	bs, ok := pl.T.Station(origin)
	if !ok {
		return nil, fmt.Errorf("routing: unknown base station %d", origin)
	}
	p := &Path{Origin: origin}
	cur := gateway
	p.Switches = append(p.Switches, cur)
	p.MBAt = append(p.MBAt, NoMB)

	for _, typ := range chain {
		cands := pl.T.InstancesOf(typ)
		if len(cands) == 0 {
			return nil, fmt.Errorf("routing: no instances of middlebox type %d", typ)
		}
		field := func(n topo.NodeID) int32 { return pl.Field(n)[cur] }
		toUE := func(n topo.NodeID) int32 { return pl.Field(n)[bs.Access] }
		inst, err := pl.Selector.Select(cands, cur, field, toUE)
		if err != nil {
			return nil, err
		}
		attach := pl.T.Instance(inst).Attached
		if err := pl.appendWalk(p, &cur, attach); err != nil {
			return nil, err
		}
		if err := markMB(p, inst); err != nil {
			return nil, err
		}
	}
	if err := pl.appendTail(p, &cur, bs.Access, gateway); err != nil {
		return nil, err
	}
	return p, nil
}

// markMB records that the chain's next instance is traversed at the path's
// current tail. When a previous instance already sits on the same switch,
// the position is duplicated so both traversals are kept in order.
// Traversing the same instance twice in a row is rejected: switches
// disambiguate middlebox returns by in-port (paper footnote 1), which cannot
// tell a first return from a second.
func markMB(p *Path, inst topo.MBInstanceID) error {
	if p.MBAt[len(p.MBAt)-1] == inst {
		return fmt.Errorf("routing: chain traverses middlebox instance %d twice in a row", inst)
	}
	if p.MBAt[len(p.MBAt)-1] != NoMB {
		p.Switches = append(p.Switches, p.Switches[len(p.Switches)-1])
		p.MBAt = append(p.MBAt, NoMB)
	}
	p.MBAt[len(p.MBAt)-1] = inst
	p.Chain = append(p.Chain, inst)
	return nil
}

// appendWalk extends the path from *cur to dst along one shortest path.
// When dst is an access switch (there can be tens of thousands of those),
// the walk is computed in reverse against *cur's cached distance field so
// the planner never builds a BFS field per base station.
func (pl *Planner) appendWalk(p *Path, cur *topo.NodeID, dst topo.NodeID) error {
	var walk []topo.NodeID
	if pl.T.Nodes[dst].Kind == topo.Access {
		rev := pl.T.WalkToward(dst, pl.Field(*cur))
		if rev == nil {
			return fmt.Errorf("routing: no path from %d to %d", *cur, dst)
		}
		walk = make([]topo.NodeID, len(rev))
		for i, sw := range rev {
			walk[len(rev)-1-i] = sw
		}
	} else {
		// Seed the tie-break with the segment endpoints so different trunk
		// segments fan out across the mesh instead of all funnelling
		// through the lowest-numbered switches (which manufactures loops).
		walk = pl.T.WalkTowardSpread(*cur, pl.Field(dst), uint32(dst)*131+uint32(*cur))
		if walk == nil {
			return fmt.Errorf("routing: no path from %d to %d", *cur, dst)
		}
	}
	for _, sw := range walk[1:] { // walk[0] == *cur, already present
		p.Switches = append(p.Switches, sw)
		p.MBAt = append(p.MBAt, NoMB)
	}
	*cur = dst
	return nil
}

// appendTail extends the path from *cur down to the station's access
// switch along the canonical descend route (topo.CanonicalDescend over the
// gateway-rooted tree): climb toward the root until some ancestor of the
// access switch is adjacent, then jump as low as possible and walk down.
// All clauses produce identical decisions at every switch, which is what
// lets the controller serve the fan-out with shared Type 3 location rules
// (paper §3.1, Fig. 3(a)). LegacyTails uses per-pair shortest walks instead
// (the no-location-routing ablation).
func (pl *Planner) appendTail(p *Path, cur *topo.NodeID, access, gateway topo.NodeID) error {
	if pl.LegacyTails {
		return pl.appendWalk(p, cur, access)
	}
	sw, err := pl.AppendTail(p.Switches, *cur, access, gateway)
	if err != nil {
		return err
	}
	for len(p.MBAt) < len(sw) {
		p.MBAt = append(p.MBAt, NoMB)
	}
	p.Switches, *cur = sw, access
	return nil
}

// AppendTail appends to dst the switches after from on the canonical
// descend route to access under the gateway's tree, access included — the
// tail every policy path ends with when it leaves from.
func (pl *Planner) AppendTail(dst []topo.NodeID, from, access, gateway topo.NodeID) ([]topo.NodeID, error) {
	parent := pl.Tree(gateway)
	chain := pl.T.AncestorChain(access, parent)
	if chain == nil || chain[len(chain)-1] != gateway {
		return dst, fmt.Errorf("routing: access switch %d not under gateway %d", access, gateway)
	}
	u := from
	for steps := 0; ; steps++ {
		if steps > 2*len(pl.T.Nodes) {
			return dst, fmt.Errorf("routing: canonical descend did not converge from %d to %d", from, access)
		}
		next, done := pl.T.CanonicalDescend(u, chain, parent)
		if done {
			return dst, nil
		}
		if next == topo.None {
			return dst, fmt.Errorf("routing: no tree path from %d to %d", from, access)
		}
		dst = append(dst, next)
		u = next
	}
}

// PlanInstances computes the downstream path through an explicit instance
// sequence (used when re-anchoring old flows after mobility, where the
// instances are pinned).
func (pl *Planner) PlanInstances(origin packet.BSID, chain []topo.MBInstanceID, gateway topo.NodeID) (*Path, error) {
	bs, ok := pl.T.Station(origin)
	if !ok {
		return nil, fmt.Errorf("routing: unknown base station %d", origin)
	}
	p := &Path{Origin: origin}
	cur := gateway
	p.Switches = append(p.Switches, cur)
	p.MBAt = append(p.MBAt, NoMB)
	for _, inst := range chain {
		if int(inst) < 0 || int(inst) >= len(pl.T.MBoxes) {
			return nil, fmt.Errorf("routing: unknown middlebox instance %d", inst)
		}
		if err := pl.appendWalk(p, &cur, pl.T.Instance(inst).Attached); err != nil {
			return nil, err
		}
		if err := markMB(p, inst); err != nil {
			return nil, err
		}
	}
	if err := pl.appendTail(p, &cur, bs.Access, gateway); err != nil {
		return nil, err
	}
	return p, nil
}

// ChainKey canonically identifies an instance chain plus endpoints; paths
// sharing a ChainKey are the ones that can share policy tags end-to-end.
func ChainKey(gateway topo.NodeID, chain []topo.MBInstanceID) string {
	key := fmt.Sprintf("g%d", gateway)
	for _, c := range chain {
		key += fmt.Sprintf(",%d", c)
	}
	return key
}
