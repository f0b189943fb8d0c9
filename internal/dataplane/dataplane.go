// Package dataplane assembles the full SoftCell data plane: one
// switchsim.Switch per topology node programmed from the controller's
// abstract FIBs, live middlebox instances on their attachment ports, local
// agents on the access switches, inter-station mobility tunnels, and an
// optional gateway NAT (§4.1). It walks packets hop by hop exactly as the
// hardware would, which is what the integration and mobility tests observe.
// Once EnableFastPath has run, every hop of a single-packet walk steps the
// switch's compiled fastpath snapshot (fastpath.FIB.Step); before that, it
// runs switchsim.Process, the reference pipeline the snapshots are tested
// against. Both give the same verdicts, rewrites and counters.
package dataplane

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/mbox"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// Priority bands for materialised rules, mirroring the FIB's resolution
// order (see core.RuleBand). The matched prefix's length is added so
// longest-prefix-match holds within each band.
var bandPriority = map[core.RuleBand]int{
	core.BandLocation:  switchsim.PrioPrefix,
	core.BandTagOnly:   switchsim.PrioTag,
	core.BandTagPrefix: switchsim.PrioTagPrefix,
	core.BandPort:      switchsim.PrioPort,
	core.BandMBLoc:     switchsim.PrioMBLoc,
	core.BandMBTag:     switchsim.PrioMBTag,
	core.BandMobility:  switchsim.PrioMobility,
}

// Network is the assembled data plane.
type Network struct {
	T        *topo.Topology
	Ctrl     *core.Controller
	Switches []*switchsim.Switch
	Agents   map[packet.BSID]*agent.Agent
	Boxes    map[topo.MBInstanceID]mbox.Middlebox

	// GatewayNAT, when set, translates at the Internet boundary (§4.1).
	GatewayNAT *mbox.NAT

	plan     packet.Plan
	mbPort   map[topo.MBInstanceID]int
	mbAt     [][]topo.MBInstanceID // per node: instance on each middlebox port, first one at index 0
	agentAt  map[topo.NodeID]*agent.Agent
	bindings []publicBinding // §7 public-IP classifiers, part of the gateway's table
	synced   []uint64        // per node: the FIB version its TCAM holds; see Sync

	fast *fastpath.Engine // burst fast path; see EnableFastPath (burst.go)
	obs  *dpObs           // burst telemetry; see Instrument (obs.go)
	reg  *obs.Registry    // registry handed to the fast path on enable

	// Congestion scales the modelled queueing delay per hop (0 = idle
	// network: only propagation and processing latency accrue). The walk's
	// latency model serves the QoS experiments: higher-DSCP traffic waits
	// in shorter virtual queues.
	Congestion float64

	// Stats; bumped atomically so concurrent fast-path burst senders can
	// tally alongside the single-threaded walks.
	Delivered uint64
	Exited    uint64
	Dropped   uint64
}

// Config parameterises New.
type Config struct {
	// Registry builds middlebox instances; MBFuncs names the function each
	// topology middlebox type realises.
	Registry *mbox.Registry
	MBFuncs  map[topo.MBType]string
	// NATPool, when non-zero, enables a gateway NAT drawing from the pool.
	NATPool packet.Prefix
}

// New assembles the data plane for a controller's topology: switches,
// middlebox instances, and one local agent per base station.
func New(ctrl *core.Controller, cfg Config) (*Network, error) {
	t := ctrl.T
	n := &Network{
		T:        t,
		Ctrl:     ctrl,
		Switches: make([]*switchsim.Switch, len(t.Nodes)),
		Agents:   make(map[packet.BSID]*agent.Agent),
		Boxes:    make(map[topo.MBInstanceID]mbox.Middlebox),
		plan:     ctrl.Plan(),
		mbPort:   make(map[topo.MBInstanceID]int),
		mbAt:     make([][]topo.MBInstanceID, len(t.Nodes)),
		synced:   make([]uint64, len(t.Nodes)),
	}
	for i := range t.Nodes {
		n.Switches[i] = switchsim.NewSwitch(t.Nodes[i].Name)
	}
	// Middlebox ports follow the link ports on the attachment switch.
	for _, inst := range t.MBoxes {
		n.mbPort[inst.ID] = len(t.Nodes[inst.Attached].Neighbors) + len(n.mbAt[inst.Attached])
		n.mbAt[inst.Attached] = append(n.mbAt[inst.Attached], inst.ID)
		fn, ok := cfg.MBFuncs[inst.Type]
		if !ok {
			return nil, fmt.Errorf("dataplane: no function mapped for middlebox type %d", inst.Type)
		}
		box, err := cfg.Registry.Build(fn, inst.ID)
		if err != nil {
			return nil, err
		}
		n.Boxes[inst.ID] = box
	}
	n.agentAt = make(map[topo.NodeID]*agent.Agent)
	for _, st := range t.Stations {
		ag := agent.New(st.ID, n.Switches[st.Access], n.plan, ctrl)
		ag.PermPool = ctrl.PermPool()
		n.Agents[st.ID] = ag
		n.agentAt[st.Access] = ag
	}
	if cfg.NATPool != (packet.Prefix{}) {
		n.GatewayNAT = mbox.NewNAT(-1, cfg.NATPool)
	}
	return n, nil
}

// unsynced is a synced entry no FIB version equals: the next Sync rebuilds
// the switch whatever its FIB says.
const unsynced = ^uint64(0)

// Sync brings the switches' TCAMs up to date with the controller's FIBs.
// Call it after control-plane changes (path installs, handoffs, releases,
// failure recomputation). It costs what changed: a switch whose FIB version
// (core.FIB.Version) is the one already materialised is skipped, and a
// Sync that finds nothing changed allocates nothing and moves no switch
// generation. A changed switch gets its whole table — FIB rules plus, on
// the gateway, the §7 public-IP bindings — in one switchsim.ReplaceTCAM, so
// concurrent Process calls and fast-path compiles see the old table or the
// new one and never a partial one; the fast path then recompiles exactly
// the snapshots whose generation moved.
//
// Microflow tables are never touched. Rule traffic counters (Packets,
// Bytes) keep counting on skipped switches and restart from zero on a
// rebuilt one, whose rules are new rules. On error the failing switch keeps
// the table it had.
func (n *Network) Sync() error {
	for i, sw := range n.Switches {
		fib := n.Ctrl.Installer.FIB(topo.NodeID(i))
		v := fib.Version()
		if v == n.synced[i] {
			continue
		}
		rules, err := n.materialise(fib)
		if err != nil {
			return err
		}
		sw.ReplaceTCAM(rules)
		n.synced[i] = v
	}
	if n.fast != nil {
		// Recompile stale fast-path snapshots now, so the control-plane
		// change is paid for here rather than on the next burst.
		n.fast.Net().Warm()
	}
	return nil
}

// publicBinding is one §7 gateway classifier.
type publicBinding struct {
	public packet.Addr
	loc    packet.Addr
	tag    packet.Tag
}

func (n *Network) bindingRule(b publicBinding) switchsim.Rule {
	loc, tag := b.loc, b.tag
	return switchsim.Rule{
		Priority: switchsim.PrioBinding,
		Match: switchsim.Match{
			InPort: switchsim.AnyPort,
			Dst:    packet.Prefix{Addr: b.public, Len: 32},
		},
		Action: switchsim.Action{
			Resubmit:   true,
			Output:     -1,
			SetDst:     &loc,
			SetDstTag:  &tag,
			TagEphBits: n.plan.EphemeralBits(),
		},
	}
}

// materialise translates one switch's FIB into its complete TCAM contents.
func (n *Network) materialise(fib *core.FIB) ([]switchsim.Rule, error) {
	var bindings []publicBinding
	if fib.Node == n.Ctrl.Gateway() {
		bindings = n.bindings
	}
	rules := make([]switchsim.Rule, 0, fib.NumRules()+len(bindings))
	// Newest binding first: among rules equal in priority and match the
	// first wins, and a re-bound public address means its latest binding.
	for i := len(bindings) - 1; i >= 0; i-- {
		rules = append(rules, n.bindingRule(bindings[i]))
	}
	var exportErr error
	fib.Export(func(r core.ExportedRule) {
		if exportErr != nil {
			return
		}
		rule, err := n.exportedRule(fib.Node, r)
		if err != nil {
			exportErr = err
			return
		}
		rules = append(rules, rule)
	})
	return rules, exportErr
}

// exportedRule translates one abstract rule into a concrete TCAM entry.
func (n *Network) exportedRule(node topo.NodeID, r core.ExportedRule) (switchsim.Rule, error) {
	m := switchsim.Match{InPort: switchsim.AnyPort}
	prefix := r.Prefix
	// Clamp catch-alls (like the gateway exit route) to the carrier block
	// so upstream source matches never swallow downstream traffic.
	if prefix.Len < n.plan.Carrier.Len {
		prefix = n.plan.Carrier
	}
	if r.Dir == core.Down {
		m.Dst = prefix
	} else {
		m.Src = prefix
	}
	if r.Tag != 0 {
		if r.Tag > n.plan.MaxTag() {
			return switchsim.Rule{}, fmt.Errorf("dataplane: tag %d exceeds the plan's %d-bit field (use a wider plan for dataplane networks)", r.Tag, n.plan.TagBits)
		}
		lo, hi, err := n.plan.TagPortRange(r.Tag)
		if err != nil {
			return switchsim.Rule{}, err
		}
		if r.Dir == core.Down {
			m.DstPortLo, m.DstPortHi = lo, hi
		} else {
			m.SrcPortLo, m.SrcPortHi = lo, hi
		}
	}
	switch {
	case r.FromMB != core.NoMB:
		m.InPort = n.mbPort[r.FromMB]
	case r.From != topo.None:
		p := n.T.Nodes[node].PortTo(r.From)
		if p < 0 {
			return switchsim.Rule{}, fmt.Errorf("dataplane: switch %d has no port to %d", node, r.From)
		}
		m.InPort = p
	}

	var act switchsim.Action
	act.Output = -1
	switch {
	case r.NH.IsDeliver():
		// Hand to the local agent; established flows match their
		// higher-priority microflows instead.
		act.ToController = true
	case r.NH.IsExit():
		act.Output = switchsim.PortExit
	case r.NH.MB != core.NoMB:
		act.Output = n.mbPort[r.NH.MB]
	default:
		p := n.T.Nodes[node].PortTo(r.NH.Node)
		if p < 0 {
			return switchsim.Rule{}, fmt.Errorf("dataplane: switch %d has no port to next hop %d", node, r.NH.Node)
		}
		act.Output = p
	}
	if r.NH.NewTag != 0 {
		if r.NH.NewTag > n.plan.MaxTag() {
			return switchsim.Rule{}, fmt.Errorf("dataplane: swap tag %d exceeds the plan's tag field", r.NH.NewTag)
		}
		tag := r.NH.NewTag
		act.TagEphBits = n.plan.EphemeralBits()
		if r.Dir == core.Down {
			act.SetDstTag = &tag
		} else {
			act.SetSrcTag = &tag
		}
	}
	return switchsim.Rule{Priority: bandPriority[r.Band] + r.Prefix.Len, Match: m, Action: act}, nil
}

// Hop is one event of a packet walk.
type Hop struct {
	Node topo.NodeID
	MB   topo.MBInstanceID // core.NoMB for plain forwarding
}

// Disposition says how a walk ended.
type Disposition uint8

// Dispositions.
const (
	Delivered   Disposition = iota // handed to a UE at an access switch
	ExitedNet                      // left through the gateway's Internet port
	DroppedAt                      // dropped (policy or table miss)
	PuntedAgent                    // reached an access agent (caller handles)
)

func (d Disposition) String() string {
	switch d {
	case Delivered:
		return "delivered"
	case ExitedNet:
		return "exited"
	case DroppedAt:
		return "dropped"
	case PuntedAgent:
		return "punted"
	default:
		return fmt.Sprintf("disposition(%d)", uint8(d))
	}
}

// WalkResult reports one packet's journey.
type WalkResult struct {
	Hops        []Hop
	Disposition Disposition
	Last        topo.NodeID
	Packet      *packet.Packet // final header state
	// Latency is the modelled one-way delay: per-hop propagation plus
	// DSCP-weighted queueing under Network.Congestion, plus middlebox
	// processing time.
	Latency time.Duration
}

// Middleboxes lists the middlebox instances the walk entered, in order: the
// sequence §5.1 promises a connection keeps across handoffs.
func (r WalkResult) Middleboxes() []topo.MBInstanceID {
	var out []topo.MBInstanceID
	for _, h := range r.Hops {
		if h.MB != core.NoMB {
			out = append(out, h.MB)
		}
	}
	return out
}

// Latency model constants.
const (
	hopPropagation = 50 * time.Microsecond
	mbProcessing   = 100 * time.Microsecond
	queueUnit      = 200 * time.Microsecond
)

// queueDelay models one hop's queueing wait: congestion raises it, the
// packet's DSCP class divides it (strict-ish priority queues: CS6 traffic
// overtakes best effort).
func (n *Network) queueDelay(dscp uint8) time.Duration {
	if n.Congestion <= 0 {
		return 0
	}
	weight := 1 + time.Duration(dscp)/8 // 0->1, 10->2, 46->6, 48->7
	return time.Duration(n.Congestion*float64(queueUnit)) / weight
}

// direction infers a packet's orientation from its addresses.
func (n *Network) direction(p *packet.Packet) mbox.Direction {
	if n.plan.Carrier.Contains(p.Dst) && !n.plan.Carrier.Contains(p.Src) {
		return mbox.Downstream
	}
	return mbox.Upstream
}

// walkHops is the capacity a walk's Hops starts with (64 B), so a
// middlebox-free walk allocates it once: on the benchmark's 81-switch
// plant those walks cross at most 7 switches. A middlebox adds two events
// (the box, then its switch again); those walks, up to 15 events there,
// grow it once.
const walkHops = 8

// process runs p through node's switch. With the fast path on it steps
// the switch's compiled snapshot (recompiled first if stale); otherwise
// it interprets the switch's tables under their lock.
func (n *Network) process(node topo.NodeID, inPort int, p *packet.Packet) fastpath.Verdict {
	if n.fast != nil {
		return n.fast.Net().FIB(int(node)).Step(p, inPort)
	}
	v := n.Switches[node].Process(p, inPort)
	return fastpath.Verdict{Output: v.Output, Drop: v.Drop, ToController: v.ToController}
}

// walk processes a packet starting at node with the given ingress port.
func (n *Network) walk(node topo.NodeID, inPort int, p *packet.Packet) (WalkResult, error) {
	res := WalkResult{Packet: p, Hops: make([]Hop, 0, walkHops)}
	cur := node
	for hops := 0; hops < fastpath.HopBudget(len(n.T.Nodes)); hops++ {
		res.Hops = append(res.Hops, Hop{Node: cur, MB: core.NoMB})
		v := n.process(cur, inPort, p)
		switch {
		case v.ToController:
			res.Disposition, res.Last = PuntedAgent, cur
			return res, nil
		case v.Drop:
			atomic.AddUint64(&n.Dropped, 1)
			res.Disposition, res.Last = DroppedAt, cur
			return res, nil
		case v.Output == switchsim.PortUE:
			atomic.AddUint64(&n.Delivered, 1)
			res.Disposition, res.Last = Delivered, cur
			return res, nil
		case v.Output == switchsim.PortExit:
			if n.GatewayNAT != nil && !n.GatewayNAT.Process(p, mbox.Upstream) {
				atomic.AddUint64(&n.Dropped, 1)
				res.Disposition, res.Last = DroppedAt, cur
				return res, nil
			}
			atomic.AddUint64(&n.Exited, 1)
			res.Disposition, res.Last = ExitedNet, cur
			return res, nil
		case v.Output >= switchsim.PortTunnelBase:
			bs := packet.BSID(v.Output - switchsim.PortTunnelBase)
			st, ok := n.T.Station(bs)
			if !ok {
				return res, fmt.Errorf("dataplane: tunnel to unknown station %d", bs)
			}
			cur = st.Access
			inPort = switchsim.PortTunnelBase // tunnel ingress pseudo port
			continue
		case v.Output >= len(n.T.Nodes[cur].Neighbors):
			// Middlebox attachment port.
			inst, ok := n.mbAtPort(cur, v.Output)
			if !ok {
				return res, fmt.Errorf("dataplane: switch %d has no port %d", cur, v.Output)
			}
			box := n.Boxes[inst]
			res.Hops = append(res.Hops, Hop{Node: cur, MB: inst})
			res.Latency += mbProcessing
			if !box.Process(p, n.direction(p)) {
				atomic.AddUint64(&n.Dropped, 1)
				res.Disposition, res.Last = DroppedAt, cur
				return res, nil
			}
			inPort = v.Output // returns on the same port
			continue
		default:
			next := n.T.Nodes[cur].Neighbors[v.Output]
			inPort = n.T.Nodes[next].PortTo(cur)
			cur = next
			res.Latency += hopPropagation + n.queueDelay(p.DSCP)
		}
	}
	return res, fmt.Errorf("dataplane: packet exceeded hop budget (forwarding loop?)")
}

// mbAtPort names the middlebox behind one of node's attachment ports, which
// follow its link ports.
func (n *Network) mbAtPort(node topo.NodeID, port int) (topo.MBInstanceID, bool) {
	i := port - len(n.T.Nodes[node].Neighbors)
	if i < 0 || i >= len(n.mbAt[node]) {
		return 0, false
	}
	return n.mbAt[node][i], true
}

// SendUpstream injects a packet a UE sends at its base station. First
// packets of new flows are punted to the local agent (which installs
// microflows and asks the controller if needed) and then re-injected;
// packets punted at a *destination* station (mobile-to-mobile or
// Internet-initiated arrivals) are resolved by that station's agent. Callers
// see the end-to-end outcome directly.
func (n *Network) SendUpstream(bs packet.BSID, p *packet.Packet) (WalkResult, error) {
	st, ok := n.T.Station(bs)
	if !ok {
		return WalkResult{}, fmt.Errorf("dataplane: unknown base station %d", bs)
	}
	res, err := n.walk(st.Access, switchsim.PortUE, p)
	if err != nil || res.Disposition != PuntedAgent {
		return res, err
	}
	ag := n.Agents[bs]
	allowed, err := ag.HandlePacketIn(p)
	if err != nil {
		return res, err
	}
	if !allowed {
		atomic.AddUint64(&n.Dropped, 1)
		res.Disposition = DroppedAt
		return res, nil
	}
	if err := n.Sync(); err != nil { // new paths may have been installed
		return res, err
	}
	res, err = n.walk(st.Access, switchsim.PortUE, p)
	if err != nil {
		return res, err
	}
	return n.resolveArrivalPunts(res, p)
}

// resolveArrivalPunts handles punts at a destination access switch: the
// local agent there installs delivery microflows for flows addressed to one
// of its UEs (M2M and public-IP arrivals), then the walk resumes.
func (n *Network) resolveArrivalPunts(res WalkResult, p *packet.Packet) (WalkResult, error) {
	for tries := 0; tries < 2 && res.Disposition == PuntedAgent; tries++ {
		ag, ok := n.agentAt[res.Last]
		if !ok {
			return res, fmt.Errorf("dataplane: punt at non-access switch %d", res.Last)
		}
		delivered, err := ag.HandleArrival(p)
		if err != nil {
			return res, err
		}
		if !delivered {
			atomic.AddUint64(&n.Dropped, 1)
			res.Disposition = DroppedAt
			return res, nil
		}
		next, err := n.walk(res.Last, switchsim.PortTunnelBase, p)
		if err != nil {
			return next, err
		}
		next.Hops = append(res.Hops, next.Hops...)
		res = next
	}
	return res, nil
}

// SendDownstream injects a packet arriving from the Internet at the
// gateway. With a gateway NAT configured, the packet addresses the public
// binding; otherwise it addresses the LocIP (or a bound public IP, §7)
// directly.
func (n *Network) SendDownstream(p *packet.Packet) (WalkResult, error) {
	if n.GatewayNAT != nil && !n.GatewayNAT.Process(p, mbox.Downstream) {
		atomic.AddUint64(&n.Dropped, 1)
		return WalkResult{Disposition: DroppedAt, Last: n.Ctrl.Gateway(), Packet: p}, nil
	}
	res, err := n.walk(n.Ctrl.Gateway(), switchsim.PortExit, p)
	if err != nil {
		return res, err
	}
	return n.resolveArrivalPunts(res, p)
}

// BindPublicIP exposes a UE on a public address (§7 "Traffic initiated from
// the Internet"): the gateway gets one coarse classifier rule translating
// the public destination to the UE's LocIP plus the policy tag of the given
// clause, then ordinary forwarding applies. Inbound service ports must fit
// the plan's ephemeral field (the tag rides the high bits).
func (n *Network) BindPublicIP(imsi string, public packet.Addr, clause int) error {
	ue, ok := n.Ctrl.LookupUE(imsi)
	if !ok || ue.LocIP == 0 {
		return fmt.Errorf("dataplane: UE %q is not attached", imsi)
	}
	if n.plan.Carrier.Contains(public) || n.Ctrl.PermPool().Contains(public) {
		return fmt.Errorf("dataplane: public address %s collides with internal blocks", public)
	}
	tag, err := n.Ctrl.RequestPath(ue.BS, clause)
	if err != nil {
		return err
	}
	n.bindings = append(n.bindings, publicBinding{public: public, loc: ue.LocIP, tag: tag})
	n.synced[n.Ctrl.Gateway()] = unsynced // the binding is the gateway's alone
	n.Agents[ue.BS].AllowInbound(ue.LocIP, tag)
	return n.Sync()
}

// Handoff performs the complete handoff choreography: controller move,
// new-agent admission, microflow migration with tunnelling, and TCAM
// resync. It returns the controller's result (for later ReleaseOldLocIP).
func (n *Network) Handoff(imsi string, newBS packet.BSID) (core.HandoffResult, error) {
	ue, ok := n.Ctrl.LookupUE(imsi)
	if !ok {
		return core.HandoffResult{}, fmt.Errorf("dataplane: unknown UE %q", imsi)
	}
	oldAgent := n.Agents[ue.BS]
	res, err := n.Ctrl.Handoff(imsi, newBS)
	if err != nil {
		return res, err
	}
	newAgent := n.Agents[newBS]
	if err := newAgent.AdmitUE(res.UE, res.Classifiers); err != nil {
		return res, err
	}
	if err := oldAgent.MigrateFlows(newAgent, res.UE, res.OldLocIP); err != nil {
		return res, err
	}
	return res, n.Sync()
}

// Attach runs the attach choreography: controller admission plus agent
// state push.
func (n *Network) Attach(imsi string, bs packet.BSID) (core.UE, error) {
	ue, cls, err := n.Ctrl.Attach(imsi, bs)
	if err != nil {
		return ue, err
	}
	return ue, n.Agents[bs].AdmitUE(ue, cls)
}

// RefreshClassifiers re-pushes every attached UE's compiled classifiers to
// its agent — used after policy changes or failure recomputation, when
// cached tags have gone stale (stale tags miss and re-resolve; they never
// alias, because the controller's tag sequence survives rebuilds).
func (n *Network) RefreshClassifiers() error {
	for bs, ag := range n.Agents {
		rep := ag.LocationReport()
		for _, ue := range rep.UEs {
			u2, cls, err := n.Ctrl.Attach(ue.IMSI, bs)
			if err != nil {
				return err
			}
			if err := ag.AdmitUE(u2, cls); err != nil {
				return err
			}
		}
	}
	return n.Sync()
}

// MiddleboxStats sums consistency violations across all instances — the
// mobility experiments' pass/fail signal.
func (n *Network) MiddleboxStats() (violations, connections uint64) {
	for _, b := range n.Boxes {
		s := b.Stats()
		violations += s.Violations
		connections += s.Connections
	}
	return
}
