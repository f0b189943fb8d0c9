// Package agent implements SoftCell's local control agent (§4.2): the
// software controller co-located with each base station's access switch. It
// classifies new flows against an immutable, versioned snapshot of per-UE
// classifiers and admitted policy tags — last-known-good state the data
// plane keeps using through controller outages — installs microflow rules,
// whose cookies make the access switch the one record of each UE's flows,
// and only contacts the controller when a flow needs a policy path the
// snapshot does not carry yet (and even that falls away in the
// pushed-snapshot deployment shape, where the controller publishes fresh
// snapshots asynchronously instead of answering blocking RPCs).
package agent

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/switchsim"
)

// ControllerClient is the slice of the central controller an agent needs
// for synchronous path resolution. core.Controller implements it
// in-process; internal/ctrlproto implements it over the wire. A nil client
// puts the agent in pushed-snapshot mode: packet-ins never block on the
// control plane, and a clause with no admitted tag fails with ErrNoPath
// until a fresh snapshot arrives.
type ControllerClient interface {
	RequestPath(bs packet.BSID, clause int) (packet.Tag, error)
}

// LocResolver is the optional capability mobile-to-mobile traffic needs:
// translating a destination UE's permanent address to its current LocIP.
// Controllers that implement it enable §7's direct M2M paths; otherwise the
// agent denies carrier-internal destinations.
type LocResolver interface {
	ResolveLocIP(perm packet.Addr) (packet.Addr, error)
}

// Stats count the agent's control-plane activity; Table 2's benchmark
// reads them. All fields are monotonic, like their obs registry mirrors.
type Stats struct {
	PacketIns  uint64 // table-miss packets handled
	CacheHits  uint64 // flows admitted with no controller round trip
	CacheMiss  uint64 // flows that required a controller round trip
	Denied     uint64
	Microflows uint64
	Publishes  uint64 // snapshots accepted by Publish
	StaleDrops uint64 // snapshots refused for stale versions (ErrStaleSnapshot)
	Rejected   uint64 // snapshots refused by validation
	Replayed   uint64 // flows reinstalled under a changed tag at reconcile
	TornDown   uint64 // flows removed at reconcile (path or UE withdrawn)
	// PortsExhausted counts flows refused because every ephemeral value
	// toward their destination was held (ErrPortsExhausted).
	PortsExhausted uint64
}

// counters is the lock-free backing store for Stats.
type counters struct {
	packetIns  atomic.Uint64
	cacheHits  atomic.Uint64
	cacheMiss  atomic.Uint64
	denied     atomic.Uint64
	microflows atomic.Uint64
	publishes  atomic.Uint64
	staleDrops atomic.Uint64
	rejected   atomic.Uint64
	replayed   atomic.Uint64
	tornDown   atomic.Uint64

	portsExhausted atomic.Uint64
}

// Agent is one base station's local controller.
type Agent struct {
	BS     packet.BSID
	Access *switchsim.Switch

	// PermPool, when set, marks the block of permanent UE addresses: flows
	// addressed inside it are mobile-to-mobile candidates the agent
	// resolves through the controller (§7). Zero disables M2M-by-permanent
	// address (LocIP-addressed M2M still works).
	PermPool packet.Prefix

	plan packet.Plan
	ctrl ControllerClient

	// snap is the LKG classifier state: swapped whole by Publish (pushed
	// snapshots, CAS ordered by version) and derive (local admits). Always
	// non-nil; classification loads it exactly once per decision.
	snap atomic.Pointer[Snapshot]

	mu      sync.Mutex
	nextEph uint16                  // guarded by mu; the station's last ephemeral value, see ephemeralPort
	inbound map[inboundKey]struct{} // guarded by mu; §7 public-IP bindings this station accepts

	stats counters
	obs   agentObs // lock-free mirrors; set by Instrument
}

// inboundKey identifies an accepted Internet-initiated service binding.
type inboundKey struct {
	loc packet.Addr
	tag packet.Tag
}

// New builds an agent controlling the given access switch. A nil ctrl is
// valid: see ControllerClient.
func New(bs packet.BSID, access *switchsim.Switch, plan packet.Plan, ctrl ControllerClient) *Agent {
	access.TableMiss = switchsim.Punt() // misses go to this agent
	a := &Agent{
		BS:      bs,
		Access:  access,
		plan:    plan,
		ctrl:    ctrl,
		inbound: make(map[inboundKey]struct{}),
	}
	a.snap.Store(&emptySnapshot) // version 0: nothing published yet
	return a
}

// AllowInbound registers a §7 public-IP binding: Internet-initiated flows
// arriving tagged for (loc, tag) may be delivered. Without a registration,
// externally sourced packets that reach the access switch untagged or with
// an unknown tag are dropped — spoofed-tag probes included (§4.1).
func (a *Agent) AllowInbound(loc packet.Addr, tag packet.Tag) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inbound[inboundKey{loc, tag}] = struct{}{}
}

// Stats returns a snapshot of the agent counters.
func (a *Agent) Stats() Stats {
	return Stats{
		PacketIns:  a.stats.packetIns.Load(),
		CacheHits:  a.stats.cacheHits.Load(),
		CacheMiss:  a.stats.cacheMiss.Load(),
		Denied:     a.stats.denied.Load(),
		Microflows: a.stats.microflows.Load(),
		Publishes:  a.stats.publishes.Load(),
		StaleDrops: a.stats.staleDrops.Load(),
		Rejected:   a.stats.rejected.Load(),
		Replayed:   a.stats.replayed.Load(),
		TornDown:   a.stats.tornDown.Load(),

		PortsExhausted: a.stats.portsExhausted.Load(),
	}
}

// AdmitUE folds a UE's record and classifiers into the LKG snapshot (the
// controller pushes these on attach and handoff) by deriving and swapping
// in a successor snapshot. A classifier's tag is the station's grant for
// its clause when the message was cut, kept once per station: a non-zero
// one sets the grant and zero leaves it alone.
func (a *Agent) AdmitUE(ue core.UE, classifiers []core.Classifier) error {
	if ue.BS != a.BS {
		return fmt.Errorf("agent: UE %s is attached to bs%d, not bs%d", ue.IMSI, ue.BS, a.BS)
	}
	if !a.derive(func(d *snapshotDraft) {
		d.putUE(ue, classifiers)
		d.grant(classifiers)
	}) {
		return fmt.Errorf("agent: UE %s: permanent address %s or LocIP %s is another UE's address of the other kind at bs%d",
			ue.IMSI, ue.PermIP, ue.LocIP, a.BS)
	}
	return nil
}

// UpdateClassifiers refreshes a UE's classifiers in the LKG snapshot. A
// classifier's tag sets the station's grant for its clause, as in AdmitUE,
// except that Tag 0 explicitly withdraws the grant, forcing the next flow
// back to the controller.
func (a *Agent) UpdateClassifiers(permIP packet.Addr, classifiers []core.Classifier) error {
	if _, ok := a.lkg().ue(permIP); !ok {
		return fmt.Errorf("agent: no UE with permanent IP %s", permIP)
	}
	a.derive(func(d *snapshotDraft) { d.mergeClassifiers(permIP, classifiers) })
	return nil
}

// classifyApp labels a flow, preferring the packet's explicit label.
func classifyApp(p *packet.Packet) policy.AppType {
	if p.App != 0 {
		return policy.AppType(p.App)
	}
	return policy.AppFromPort(p.DstPort)
}

const (
	deniedClause  = -1 // the cookie clause of a denial's drop entry
	arrivalClause = -2 // the cookie clause of HandleArrival's two entries
)

// deny counts a policy denial and installs a drop microflow for the flow so
// later packets die in the switch instead of punting again. The entry is
// the UE's: the next Publish or the UE's removal lifts it.
func (a *Agent) deny(p *packet.Packet) {
	a.stats.denied.Add(1)
	a.obs.denied.Inc()
	a.Access.InstallMicroflow(p.Flow(), switchsim.DropAction(), switchsim.Cookie{Owner: p.Src, Clause: deniedClause})
}

// isDenial reports whether m is a denial's drop entry.
func isDenial(m switchsim.Microflow) bool { return m.Cookie.Clause == deniedClause }

// HandlePacketIn processes one table-miss packet from the access switch —
// the first packet of a new upstream flow. The whole decision reads one
// atomically loaded LKG snapshot: classify, read the clause's tag from the
// station's grants (kept once per station, never per UE), and install the
// two microflow rules (upstream rewrite+resubmit, downstream
// restore+deliver). Only a clause absent from the snapshot falls back to a
// synchronous controller request — and only when the agent has a resolver;
// without one it fails fast with ErrNoPath and keeps serving everything the
// snapshot already admits, which is what lets admitted traffic ride out a
// controller blackout.
func (a *Agent) HandlePacketIn(p *packet.Packet) (allowed bool, err error) {
	snap := a.lkg()
	a.stats.packetIns.Add(1)
	a.obs.packetIns.Inc()
	su, ok := snap.ue(p.Src)
	if !ok {
		return false, fmt.Errorf("agent: packet from unknown UE %s", p.Src)
	}
	cl := su.classifiers.of(classifyApp(p))
	if !cl.allow {
		a.deny(p)
		return false, nil
	}
	clause := int(cl.clause)
	if a.plan.Carrier.Contains(p.Dst) || a.isLocalPerm(p.Dst) {
		// Mobile-to-mobile (§7): translate the peer's permanent address to
		// its LocIP and route directly by location — no tag, no gateway
		// detour. The reply direction is set up by the peer's agent when
		// the packet arrives there.
		return a.handleM2M(su, clause, p)
	}
	tag := snap.tag(clause)
	if tag != 0 {
		a.stats.cacheHits.Add(1)
		a.obs.cacheHits.Inc()
	} else {
		// "send to controller": the policy path does not exist yet (§4.2).
		a.stats.cacheMiss.Add(1)
		a.obs.cacheMiss.Inc()
		if a.ctrl == nil {
			return false, fmt.Errorf("agent: clause %d at bs%d: %w", clause, a.BS, ErrNoPath)
		}
		t, err := a.ctrl.RequestPath(a.BS, clause)
		if err != nil {
			return false, fmt.Errorf("agent: controller refused path for clause %d: %w", clause, err)
		}
		tag = t
		// Record the admitted tag in the snapshot so later flows (and
		// restarts) hit it without another round trip.
		a.derive(func(d *snapshotDraft) { d.setTag(clause, t) })
	}
	if err := a.installFlow(su, p.Flow(), tag, clause, cl.qos); err != nil {
		return false, err
	}
	return true, nil
}

// installFlow takes the agent lock and installs one admitted flow.
func (a *Agent) installFlow(su *snapUE, orig packet.FlowKey, tag packet.Tag, clause int, qos policy.QoS) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.installMicroflows(su, orig, tag, clause, qos)
}

// isLocalPerm reports whether the destination sits in the deployment's
// permanent-address pool — a mobile-to-mobile candidate. The check is a
// prefix test, so ordinary Internet-bound flows never pay a controller
// round trip here.
func (a *Agent) isLocalPerm(dst packet.Addr) bool {
	return a.PermPool.Len > 0 && a.PermPool.Contains(dst)
}

// handleM2M installs the microflows for a carrier-internal destination. A
// permanent address is resolved to its LocIP by a controller round trip,
// and is denied when the agent has no resolver; a LocIP needs neither.
func (a *Agent) handleM2M(su *snapUE, clause int, p *packet.Packet) (bool, error) {
	dstLoc := p.Dst
	if a.plan.Carrier.Contains(dstLoc) {
		a.stats.cacheHits.Add(1)
		a.obs.cacheHits.Inc()
	} else {
		r, ok := a.ctrl.(LocResolver)
		if !ok {
			a.deny(p)
			return false, nil
		}
		a.stats.cacheMiss.Add(1)
		a.obs.cacheMiss.Inc()
		loc, err := r.ResolveLocIP(p.Dst)
		if err != nil {
			return false, fmt.Errorf("agent: controller could not resolve %s: %w", p.Dst, err)
		}
		dstLoc = loc
	}
	// Tag 0: pure location routing (Type 3 rules) carries the flow to the
	// peer's station directly.
	up := switchsim.Action{Resubmit: true, Output: -1, Set: switchsim.SetSrc | switchsim.SetDst,
		Src: su.ue.LocIP, Dst: dstLoc}
	down := switchsim.Action{Output: switchsim.PortUE, Set: switchsim.SetDst, Dst: su.ue.PermIP}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.installPair(p.Flow(), up, down, cookie(su, clause))
	return true, nil
}

// HandleArrival handles a punted packet ADDRESSED TO this station: a
// mobile-to-mobile or Internet-initiated (public IP, §7) flow reaching its
// destination access switch with no microflow yet. Internal sources
// (carrier or permanent-pool addresses) are mobile-to-mobile and always
// deliverable; external sources must match a registered inbound binding —
// anything else (including spoofed-tag probes, §4.1) is refused. On
// success it installs the delivery microflow and the reverse rule, in one
// switch write, so replies retrace the same header transformation.
func (a *Agent) HandleArrival(p *packet.Packet) (delivered bool, err error) {
	su, ok := a.lkg().byLoc(p.Dst)
	if !ok {
		return false, fmt.Errorf("agent: no UE with LocIP %s at bs%d", p.Dst, a.BS)
	}
	perm := su.ue.PermIP
	internal := a.plan.Carrier.Contains(p.Src) || a.isLocalPerm(p.Src)
	if !internal {
		tag, _ := a.plan.SplitPort(p.DstPort)
		a.mu.Lock()
		_, bound := a.inbound[inboundKey{p.Dst, tag}]
		a.mu.Unlock()
		if !bound {
			a.stats.denied.Add(1)
			a.obs.denied.Inc()
			return false, nil
		}
	}
	a.stats.packetIns.Add(1)
	a.obs.packetIns.Inc()
	key := p.Flow()
	tag, svc := a.plan.SplitPort(p.DstPort)
	deliver := switchsim.Action{Output: switchsim.PortUE, Set: switchsim.SetDst, Dst: perm}
	if tag != 0 {
		// Inbound-tagged flows (public IP bindings) carry the service port
		// in the ephemeral bits; restore it for the UE.
		deliver.Set |= switchsim.SetDstPort
		deliver.DstPort = svc
	}
	// Both entries belong to the destination UE, under no clause: a publish
	// that drops the UE tears them down, and reconcile never re-tags them.
	owned := switchsim.Cookie{Owner: perm, Clause: arrivalClause}
	// Replies from the UE: restore the wire form so they retrace the same
	// (tagged) path back out.
	replyKey := packet.FlowKey{Src: perm, Dst: p.Src, SrcPort: svc, DstPort: p.SrcPort, Proto: p.Proto}
	if tag == 0 {
		replyKey.SrcPort = p.DstPort
	}
	reply := switchsim.Action{Resubmit: true, Output: -1, Set: switchsim.SetSrc | switchsim.SetSrcPort,
		Src: p.Dst, SrcPort: p.DstPort}
	a.Access.WriteMicroflows(nil, []switchsim.Microflow{
		{Key: key, Action: deliver, Cookie: owned},
		{Key: replyKey, Action: reply, Cookie: owned},
	})
	a.stats.microflows.Add(2)
	a.obs.microflows.Add(2)
	return true, nil
}

// dscpFor maps a clause's QoS class to the DSCP marking the access edge
// applies (§2.2: actions carry "quality-of-service (QoS) ... specifications").
func dscpFor(q policy.QoS) uint8 {
	switch q {
	case policy.QoSVideo:
		return 10 // AF11-ish
	case policy.QoSVoice:
		return 46 // EF
	case policy.QoSLowLatency:
		return 48 // CS6: Table 1's M2M fleet tracking rides the top class
	default:
		return 0
	}
}

// cookie marks the microflows of a flow su sends under clause as theirs.
func cookie(su *snapUE, clause int) switchsim.Cookie {
	return switchsim.Cookie{Owner: su.ue.PermIP, Clause: int32(clause)}
}

// upstream reports whether m carries the packets its owner sends: those
// are keyed by the UE's permanent address, the downstream ones by a LocIP.
func upstream(m switchsim.Microflow) bool { return m.Key.Src == m.Cookie.Owner }

// installPair writes one flow's two microflows in one switch write: up for
// the UE's packets, keyed orig, and down for the replies to the wire
// five-tuple up gives them. A flow installed again gives up the wire
// five-tuple it had.
//
// caller holds mu
func (a *Agent) installPair(orig packet.FlowKey, up, down switchsim.Action, c switchsim.Cookie) {
	var gone []packet.FlowKey
	if r, ok := a.Access.Microflow(orig); ok && r.Cookie.Owner == c.Owner {
		gone = []packet.FlowKey{r.Action.Rewritten(orig).Reverse()}
	}
	a.Access.WriteMicroflows(gone, []switchsim.Microflow{
		{Key: orig, Action: up, Cookie: c},
		{Key: up.Rewritten(orig).Reverse(), Action: down, Cookie: c},
	})
	a.stats.microflows.Add(2)
	a.obs.microflows.Add(2)
}

// installMicroflows writes the pair of exact-match rules for one tagged
// flow, owned by its UE and clause: the switch's entries are the agent's
// record of the flow.
//
// caller holds mu
func (a *Agent) installMicroflows(su *snapUE, orig packet.FlowKey, tag packet.Tag, clause int, qos policy.QoS) error {
	if tag > a.plan.MaxTag() {
		return fmt.Errorf("agent: tag %d does not fit the %d-bit tag field", tag, a.plan.TagBits)
	}
	sport, err := a.ephemeralPort(su.ue.LocIP, orig, tag)
	if err != nil {
		return err // refused: a flow installed before keeps the microflows it has
	}
	// Upstream: rewrite source to (LocIP, tag|eph), mark the QoS class, and
	// resubmit so the controller-installed rules forward it (§4.1, Fig. 4).
	up := switchsim.Action{Resubmit: true, Output: -1, Set: switchsim.SetSrc | switchsim.SetSrcPort,
		Src: su.ue.LocIP, SrcPort: sport}
	if d := dscpFor(qos); d != 0 {
		up.Set |= switchsim.SetDSCP
		up.DSCP = d
	}
	// Downstream: the reverse of the rewritten flow; restore the permanent
	// address and deliver to the UE.
	down := switchsim.Action{Output: switchsim.PortUE, Set: switchsim.SetDst | switchsim.SetDstPort,
		Dst: su.ue.PermIP, DstPort: orig.SrcPort}
	a.installPair(orig, up, down, cookie(su, clause))
	return nil
}

// ephemeralPort picks a new flow's wire source port: its tag and the
// station's next ephemeral value, wrapping like real port allocation, that
// leaves the rewritten five-tuple (loc, port to orig's destination) to no
// live flow: the switch holds no entry for its replies. With every value
// held the flow is refused with ErrPortsExhausted and counted.
//
// caller holds mu
func (a *Agent) ephemeralPort(loc packet.Addr, orig packet.FlowKey, tag packet.Tag) (uint16, error) {
	values := 1<<a.plan.EphemeralBits() - 1 // 1..values; 0 is never used
	for range values {
		a.nextEph = a.nextEph%uint16(values) + 1
		sport, err := a.plan.EmbedPort(tag, a.nextEph)
		if err != nil {
			return 0, err
		}
		reply := packet.FlowKey{Src: orig.Dst, Dst: loc, SrcPort: orig.DstPort, DstPort: sport, Proto: orig.Proto}
		if _, held := a.Access.Microflow(reply); !held {
			return sport, nil
		}
	}
	a.stats.portsExhausted.Add(1)
	a.obs.portsExhausted.Inc()
	return 0, fmt.Errorf("agent: flow %s at bs%d: %w", orig, a.BS, ErrPortsExhausted)
}

// MigrateFlows implements the access side of a handoff (§5.1): the old
// agent copies the moving UE's microflow rules to the new agent's switch
// (old flows keep the old LocIP and tags), retargets its own downstream
// microflows into the inter-station tunnel toward the new station, and
// hands over the UE state. newUE is the controller's post-handoff record;
// the new agent must already have admitted it (AdmitUE).
func (a *Agent) MigrateFlows(newAgent *Agent, newUE core.UE, oldLocIP packet.Addr) error {
	if _, ok := a.lkg().ue(newUE.PermIP); !ok {
		return fmt.Errorf("agent: no state for UE %s", newUE.IMSI)
	}
	if _, ok := newAgent.lkg().ue(newUE.PermIP); !ok {
		return fmt.Errorf("agent: new agent has not admitted UE %s", newUE.IMSI)
	}
	// Refuse the alias below before anything moves, so a refusal leaves
	// the UE and its flows where they were.
	if _, ok := newAgent.lkg().ue(oldLocIP); ok {
		return fmt.Errorf("agent: old LocIP %s of UE %s is a permanent address at bs%d", oldLocIP, newUE.IMSI, newAgent.BS)
	}
	// The UE leaves this agent's snapshot; its microflows move out under mu.
	a.derive(func(d *snapshotDraft) { d.removeUE(newUE.PermIP) })
	a.mu.Lock()
	flows := a.Access.Owned(nil, newUE.PermIP)
	tunnel := switchsim.Action{Output: switchsim.PortTunnelBase + int(newUE.BS)}
	var gone []packet.FlowKey
	var tunnels []switchsim.Microflow
	for _, m := range flows {
		if upstream(m) {
			// The upstream rule or denial at the old switch is obsolete.
			gone = append(gone, m.Key)
		} else {
			// Downstream packets for the old flow now tunnel to the new
			// station unmodified: the copied microflow there restores the
			// permanent address on delivery. The tunnel entry is owned by
			// no UE.
			tunnels = append(tunnels, switchsim.Microflow{Key: m.Key, Action: tunnel})
		}
	}
	a.Access.WriteMicroflows(gone, tunnels)
	a.mu.Unlock()
	flows = slices.DeleteFunc(flows, isDenial) // a denial is not carried over

	// The new agent inherits the UE (with its new LocIP for new flows) and
	// re-installs the old flows' microflows: upstream packets keep the old
	// LocIP and tag and triangle-route through the tunnel to the flow's
	// ORIGIN station (decoded from the old LocIP), where the old policy
	// path's upstream rules take over — so they traverse the old middlebox
	// sequence (§5.1). The reserved old address aliases into the new
	// agent's snapshot.
	if !newAgent.derive(func(d *snapshotDraft) { d.alias(oldLocIP, newUE.PermIP) }) {
		return fmt.Errorf("agent: old LocIP %s of UE %s is a permanent address at bs%d", oldLocIP, newUE.IMSI, newAgent.BS)
	}
	newAgent.mu.Lock()
	defer newAgent.mu.Unlock()
	for i := range flows {
		if act := &flows[i].Action; upstream(flows[i]) {
			originBS, _, ok := newAgent.plan.Split(act.Src)
			if !ok {
				return fmt.Errorf("agent: flow source %s outside the carrier block", act.Src)
			}
			act.Resubmit, act.Output = false, switchsim.PortTunnelBase+int(originBS)
		}
	}
	newAgent.Access.WriteMicroflows(nil, flows)
	newAgent.stats.microflows.Add(uint64(len(flows)))
	newAgent.obs.microflows.Add(uint64(len(flows)))
	return nil
}

// LocationReport answers a recovering controller's location query (§5.2).
func (a *Agent) LocationReport() core.AgentLocationReport {
	snap := a.lkg()
	rep := core.AgentLocationReport{BS: a.BS}
	snap.eachUE(func(su *snapUE) bool {
		rep.UEs = append(rep.UEs, su.ue)
		return true
	})
	return rep
}

// NumUEs reports the attached-UE count (Fig. 6(b)'s per-station quantity).
func (a *Agent) NumUEs() int {
	return a.lkg().ues
}
