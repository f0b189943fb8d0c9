// Package dataplane assembles the full SoftCell data plane: one
// switchsim.Switch per topology node programmed from the controller's
// abstract FIBs, live middlebox instances on their attachment ports, local
// agents on the access switches, inter-station mobility tunnels, and an
// optional gateway NAT (§4.1). It walks packets hop by hop exactly as the
// hardware would, which is what the integration and mobility tests observe.
// Once EnableFastPath has run, every hop of a single-packet walk steps the
// switch's sealed view (fastpath.Net.Step); before that, it runs
// switchsim.Process, the reference pipeline the fast path is tested
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
	bindings []publicBinding  // §7 public-IP classifiers, part of the gateway's table
	synced   []uint64         // per node: the FIB version its TCAM holds; see Sync
	edits    []switchsim.Edit // Sync's splice scratch
	hops     []Hop            // the hop buffer every walk records into; see WalkResult.Hops
	mbPkt    packet.Packet    // the copy a middlebox processes; see processBox

	fast  *fastpath.Engine // burst fast path; see EnableFastPath (burst.go)
	obs   *dpObs           // burst telemetry; see Instrument (obs.go)
	spans dpSpans          // handoff and Sync spans; see Instrument (obs.go)
	reg   *obs.Registry    // registry handed to the fast path on enable

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
// generation. A switch whose FIB can list the rules it gained and lost
// since (core.FIB.ChangesSince: a handoff's shortcuts, a release) gets just
// those in one switchsim.Splice; any other changed switch gets its whole
// table — FIB rules plus, on the gateway, the §7 public-IP bindings — in
// one switchsim.ReplaceTCAM. Either way concurrent Process calls and
// fast-path walks see the old table or the new one and never a partial
// one; the fast path then has exactly the switches whose generation moved
// seal their views, the access switches whose agents wrote microflows
// since among them.
//
// Sync itself never touches a microflow table. A rule's traffic counters
// (Packets, Bytes) keep counting for as long as the rule stays installed:
// on skipped switches, and on spliced ones for every rule the splice did
// not remove. A rebuilt switch's rules are new rules, counting from zero.
// On error the failing switch keeps the table it had.
//
// A sampled Sync is a dataplane.sync span with one dataplane.sync.splice
// child per switch it tried to splice, one dataplane.sync.replace per
// switch it rebuilt and a dataplane.sync.compile for the fast path's Warm.
func (n *Network) Sync() error {
	return n.sync(n.spans.sync.Root())
}

// sync is Sync inside sp, an open dataplane.sync span it ends. It examines
// only the switches whose FIB version moved since the last Sync (the
// Installer's Changed set) and, through the fast path's Warm, whose tables
// changed: a Sync with nothing to do examines no switch. A switch it fails
// on stays in the set, with those after it, for the next Sync.
func (n *Network) sync(sp obs.Span) error {
	defer sp.End()
	sc := sp.Context()
	var err error
	n.Ctrl.Installer.Changed().Drain(func(i int) bool {
		sw, fib := n.Switches[i], n.Ctrl.Installer.FIB(topo.NodeID(i))
		n.obs.examined(1)
		v := fib.Version()
		if v == n.synced[i] {
			return true
		}
		ssp := n.spans.splice.Start(sc)
		spliced, serr := n.splice(sw, fib, n.synced[i])
		ssp.End()
		switch {
		case serr != nil:
		case spliced:
			n.obs.synced(true)
		default:
			serr = n.replace(sc, sw, fib)
		}
		if serr != nil {
			err = serr
			return false
		}
		n.synced[i] = v
		return true
	})
	if err != nil {
		return err
	}
	if n.fast != nil {
		// Seal the changed switches' views now, so the control-plane
		// change is paid for here rather than on the next burst.
		csp := n.spans.compile.Start(sc)
		n.obs.examined(n.fast.Net().Warm())
		csp.End()
	}
	return nil
}

// replace rebuilds sw's whole table from fib, in a dataplane.sync.replace
// span under sc.
func (n *Network) replace(sc obs.SpanContext, sw *switchsim.Switch, fib *core.FIB) error {
	sp := n.spans.replace.Start(sc)
	defer sp.End()
	rules, err := n.materialise(fib)
	if err != nil {
		return err
	}
	sw.ReplaceTCAM(rules)
	n.obs.synced(false)
	return nil
}

// splice applies to sw the rules fib gained and lost since version from,
// and reports false, having changed nothing, when fib cannot list them or
// sw cannot take them as a splice.
func (n *Network) splice(sw *switchsim.Switch, fib *core.FIB, from uint64) (bool, error) {
	changes, ok := fib.ChangesSince(from)
	if !ok {
		return false, nil
	}
	n.edits = n.edits[:0]
	for _, c := range changes {
		rule, err := n.exportedRule(fib.Node, c.Rule)
		if err != nil {
			return false, err
		}
		n.edits = append(n.edits, switchsim.Edit{Remove: c.Removed, Rule: rule})
	}
	return sw.Splice(n.edits), nil
}

// publicBinding is one §7 gateway classifier.
type publicBinding struct {
	public packet.Addr
	loc    packet.Addr
	tag    packet.Tag
}

func (n *Network) bindingRule(b publicBinding) switchsim.Rule {
	return switchsim.Rule{
		Priority: switchsim.PrioBinding,
		Match: switchsim.Match{
			InPort: switchsim.AnyPort,
			Dst:    packet.Prefix{Addr: b.public, Len: 32},
		},
		Action: switchsim.Action{
			Resubmit:   true,
			Output:     -1,
			Set:        switchsim.SetDst | switchsim.SetDstTag,
			Dst:        b.loc,
			DstTag:     b.tag,
			TagEphBits: uint8(n.plan.EphemeralBits()),
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
		m.InPort = int32(n.mbPort[r.FromMB])
	case r.From != topo.None:
		p := n.T.Nodes[node].PortTo(r.From)
		if p < 0 {
			return switchsim.Rule{}, fmt.Errorf("dataplane: switch %d has no port to %d", node, r.From)
		}
		m.InPort = int32(p)
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
		act.TagEphBits = uint8(n.plan.EphemeralBits())
		if r.Dir == core.Down {
			act.Set, act.DstTag = switchsim.SetDstTag, r.NH.NewTag
		} else {
			act.Set, act.SrcTag = switchsim.SetSrcTag, r.NH.NewTag
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
	// Hops lists the walk's events in order. It is the Network's hop
	// buffer, so a walk allocates nothing for it: the slice is valid only
	// until the Network's next send (SendUpstream, SendDownstream or a
	// BurstSender's slow-path replay), which overwrites it. A caller that
	// keeps the hops longer copies them (slices.Clone).
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

// process runs p through node's switch. With the fast path on it steps
// the switch's view (sealed first if stale); otherwise it interprets the
// switch's tables under their lock.
func (n *Network) process(node topo.NodeID, inPort int, p *packet.Packet) switchsim.Verdict {
	if n.fast != nil {
		return n.fast.Net().Step(int(node), p, inPort)
	}
	return n.Switches[node].Process(p, inPort)
}

// walk processes a packet starting at node with the given ingress port. It
// records the hops in the Network's hop buffer after its first keep
// entries: 0 starts a fresh record, and an arrival punt's resumed leg keeps
// the leg before it.
func (n *Network) walk(node topo.NodeID, inPort int, p *packet.Packet, keep int) (WalkResult, error) {
	res := WalkResult{Packet: p}
	hops, err := n.walkFrom(&res, n.hops[:keep], node, inPort)
	n.hops = hops // the buffer keeps what it grew to
	res.Hops = hops
	return res, err
}

// walkFrom is walk's hop loop: it moves res.Packet switch by switch from
// cur, appending each event to hops, and fills in res's outcome. The hops
// stay apart from res until walk stores them, so that storing the buffer
// in the Network does not take the caller's packet to the heap with it.
func (n *Network) walkFrom(res *WalkResult, hops []Hop, cur topo.NodeID, inPort int) ([]Hop, error) {
	p := res.Packet
	for range fastpath.HopBudget(len(n.T.Nodes)) {
		hops = append(hops, Hop{Node: cur, MB: core.NoMB})
		v := n.process(cur, inPort, p)
		switch {
		case v.ToController:
			res.Disposition, res.Last = PuntedAgent, cur
			return hops, nil
		case v.Drop:
			atomic.AddUint64(&n.Dropped, 1)
			res.Disposition, res.Last = DroppedAt, cur
			return hops, nil
		case v.Output == switchsim.PortUE:
			atomic.AddUint64(&n.Delivered, 1)
			res.Disposition, res.Last = Delivered, cur
			return hops, nil
		case v.Output == switchsim.PortExit:
			if n.GatewayNAT != nil && !n.GatewayNAT.Process(p, mbox.Upstream) {
				atomic.AddUint64(&n.Dropped, 1)
				res.Disposition, res.Last = DroppedAt, cur
				return hops, nil
			}
			atomic.AddUint64(&n.Exited, 1)
			res.Disposition, res.Last = ExitedNet, cur
			return hops, nil
		case v.Output >= switchsim.PortTunnelBase:
			bs := packet.BSID(v.Output - switchsim.PortTunnelBase)
			st, ok := n.T.Station(bs)
			if !ok {
				return hops, fmt.Errorf("dataplane: tunnel to unknown station %d", bs)
			}
			cur = st.Access
			inPort = switchsim.PortTunnelBase // tunnel ingress pseudo port
			continue
		case v.Output >= len(n.T.Nodes[cur].Neighbors):
			// Middlebox attachment port.
			inst, ok := n.mbAtPort(cur, v.Output)
			if !ok {
				return hops, fmt.Errorf("dataplane: switch %d has no port %d", cur, v.Output)
			}
			hops = append(hops, Hop{Node: cur, MB: inst})
			res.Latency += mbProcessing
			if !n.processBox(n.Boxes[inst], p) {
				atomic.AddUint64(&n.Dropped, 1)
				res.Disposition, res.Last = DroppedAt, cur
				return hops, nil
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
	return hops, fmt.Errorf("dataplane: packet exceeded hop budget (forwarding loop?)")
}

// processBox runs p through box in the direction its addresses give. The
// box processes the Network's scratch copy of p, copied back: p is the
// caller's packet, and one handed to an interface method escapes to the
// heap. Like the hop buffer, the copy relies on the slow path being
// single-threaded (BurstSender), and no box keeps the packet past Process.
func (n *Network) processBox(box mbox.Middlebox, p *packet.Packet) bool {
	n.mbPkt = *p
	ok := box.Process(&n.mbPkt, n.direction(p))
	*p = n.mbPkt
	return ok
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
	orig := p.Flow()
	res, err := n.walk(st.Access, switchsim.PortUE, p, 0)
	if err != nil || res.Disposition != PuntedAgent {
		return res, err
	}
	if res.Last != st.Access {
		// A punt at another station is that station's to resolve only for
		// an established flow, whose arrival entries went with their UE. A
		// first packet addressed to a peer's LocIP rides location routing
		// unclassified, so its own agent applies the UE's policy first.
		if _, ok := n.Switches[st.Access].Microflow(orig); ok {
			return n.resolveArrivalPunts(res, p)
		}
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
	res, err = n.walk(st.Access, switchsim.PortUE, p, 0)
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
		next, err := n.walk(res.Last, switchsim.PortTunnelBase, p, len(res.Hops))
		if err != nil {
			return next, err
		}
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
	res, err := n.walk(n.Ctrl.Gateway(), switchsim.PortExit, p, 0)
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
//
//lint:ignore deadexport §7's entry point for traffic initiated from the Internet; only its tests drive it so far
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
	n.Ctrl.Installer.Changed().Mark(int(n.Ctrl.Gateway()))
	n.Agents[ue.BS].AllowInbound(ue.LocIP, tag)
	return n.Sync()
}

// Handoff performs the complete handoff choreography: controller move,
// new-agent admission, microflow migration with tunnelling, and TCAM
// resync. It returns the controller's result (for later ReleaseOldLocIP).
// A sampled handoff is a dataplane.handoff span whose children are the
// controller's core.handoff, the agents' dataplane.handoff.agents and the
// resync's dataplane.sync.
func (n *Network) Handoff(imsi string, newBS packet.BSID) (core.HandoffResult, error) {
	sp := n.spans.handoff.Root()
	defer sp.End()
	res, err := n.move(sp.Context(), imsi, newBS)
	if err != nil {
		return res, err
	}
	return res, n.sync(n.spans.sync.Start(sp.Context()))
}

// move is Handoff without the resync, its spans children of sc.
func (n *Network) move(sc obs.SpanContext, imsi string, newBS packet.BSID) (core.HandoffResult, error) {
	ue, ok := n.Ctrl.LookupUE(imsi)
	if !ok {
		return core.HandoffResult{}, fmt.Errorf("dataplane: unknown UE %q", imsi)
	}
	oldAgent := n.Agents[ue.BS]
	res, err := n.Ctrl.HandoffCtx(sc, imsi, newBS)
	if err != nil {
		return res, err
	}
	sp := n.spans.agents.Start(sc)
	defer sp.End()
	newAgent := n.Agents[newBS]
	if err := newAgent.AdmitUE(res.UE, res.Classifiers); err != nil {
		return res, err
	}
	return res, oldAgent.MigrateFlows(newAgent, res.UE, res.OldLocIP)
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
