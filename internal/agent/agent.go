// Package agent implements SoftCell's local control agent (§4.2): the
// software controller co-located with each base station's access switch. It
// classifies new flows against an immutable, versioned snapshot of per-UE
// classifiers and admitted policy tags — last-known-good state the data
// plane keeps using through controller outages — installs microflow rules,
// and only contacts the controller when a flow needs a policy path the
// snapshot does not carry yet (and even that falls away in the
// pushed-snapshot deployment shape, where the controller publishes fresh
// snapshots asynchronously instead of answering blocking RPCs).
package agent

import (
	"fmt"
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

// flowState records one active upstream microflow for a UE, with the
// policy coordinates reconciliation needs to replay or tear it down when a
// newer snapshot changes the clause's tag.
type flowState struct {
	orig      packet.FlowKey // as sent by the UE (permanent IP)
	rewritten packet.FlowKey // as it travels the core (LocIP + tag port)
	clause    int
	tag       packet.Tag // 0 for M2M location-routed flows
	qos       policy.QoS
}

// ueFlows is the mutable per-UE flow book: soft state owned by this agent
// (unlike classifiers, which live in the immutable snapshot) and dropped on
// Restart — the microflows themselves survive in the switch.
type ueFlows struct {
	flows map[packet.FlowKey]flowState // keyed by orig
	// wire counts the book's flows per rewritten five-tuple, for
	// ephemeralPort. It is built once a value ephemeralPort picks could be
	// held: when nextEph wraps, or when a handoff brings in flows another
	// book numbered. Until then every value it picks is new to the book.
	// Kept from a book's first flow instead, the map cost 3 % more
	// bytes_per_subscriber on forward_plain and 2.5 % on e2e_mobility
	// (EXPERIMENTS.md, "Microflow ledger").
	wire    map[packet.FlowKey]int
	nextEph uint16
}

// put files f, replacing the book's flow with the same original key.
func (uf *ueFlows) put(f flowState) {
	if old, ok := uf.flows[f.orig]; ok {
		uf.drop(old)
	}
	uf.flows[f.orig] = f
	if uf.wire != nil {
		uf.wire[f.rewritten]++
	}
}

// drop removes f from the book.
func (uf *ueFlows) drop(f flowState) {
	delete(uf.flows, f.orig)
	if uf.wire == nil {
		return
	}
	if n := uf.wire[f.rewritten]; n > 1 {
		uf.wire[f.rewritten] = n - 1
	} else {
		delete(uf.wire, f.rewritten)
	}
}

// indexWire builds the wire counts, if they are not kept yet.
func (uf *ueFlows) indexWire() {
	if uf.wire != nil {
		return
	}
	uf.wire = make(map[packet.FlowKey]int, len(uf.flows))
	for _, f := range uf.flows {
		uf.wire[f.rewritten]++
	}
}

// Stats count the agent's control-plane activity; Table 2's benchmark
// reads them. All fields are monotonic and survive Restart, keeping them
// coherent with the obs registry mirrors (which are registered
// get-or-create and also keep counting across restarts).
type Stats struct {
	PacketIns  uint64 // table-miss packets handled
	CacheHits  uint64 // flows admitted from the LKG snapshot alone
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
	flows   map[packet.Addr]*ueFlows // guarded by mu; keyed by permanent IP
	inbound map[inboundKey]struct{}  // guarded by mu; §7 public-IP bindings this station accepts

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
		flows:   make(map[packet.Addr]*ueFlows),
		inbound: make(map[inboundKey]struct{}),
	}
	a.snap.Store(newDraft(0).seal(0)) // version 0: nothing published yet
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
// in a successor snapshot.
func (a *Agent) AdmitUE(ue core.UE, classifiers []core.Classifier) error {
	if ue.BS != a.BS {
		return fmt.Errorf("agent: UE %s is attached to bs%d, not bs%d", ue.IMSI, ue.BS, a.BS)
	}
	a.derive(func(d *snapshotDraft) { d.putUE(ue, classifiers) })
	return nil
}

// UpdateClassifiers refreshes a UE's classifiers in the LKG snapshot. A
// classifier carrying Tag 0 explicitly invalidates the station's admitted
// tag for its clause, forcing the next flow back to the controller.
func (a *Agent) UpdateClassifiers(permIP packet.Addr, classifiers []core.Classifier) error {
	if _, ok := a.lkg().ues[permIP]; !ok {
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

// deny counts a policy denial and pins a drop microflow for the flow so
// later packets die in the switch instead of punting again.
func (a *Agent) deny(p *packet.Packet) {
	a.stats.denied.Add(1)
	a.obs.denied.Inc()
	a.Access.InstallMicroflow(p.Flow(), switchsim.DropAction())
}

// HandlePacketIn processes one table-miss packet from the access switch —
// the first packet of a new upstream flow. The whole decision reads one
// atomically loaded LKG snapshot: classify, resolve the clause's tag
// (classifier pin, then the snapshot's admitted-tag table), and install the
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
	su, ok := snap.ues[p.Src]
	if !ok {
		return false, fmt.Errorf("agent: packet from unknown UE %s", p.Src)
	}
	app := classifyApp(p)
	cl, ok := su.classifiers[app]
	if !ok || !cl.Allow {
		a.deny(p)
		return false, nil
	}
	if a.plan.Carrier.Contains(p.Dst) || a.isLocalPerm(p.Dst) {
		// Mobile-to-mobile (§7): translate the peer's permanent address to
		// its LocIP and route directly by location — no tag, no gateway
		// detour. The reply direction is set up by the peer's agent when
		// the packet arrives there.
		return a.handleM2M(su, p)
	}
	tag := cl.Tag
	if tag == 0 {
		tag = snap.tags[cl.Clause]
	}
	if tag != 0 {
		a.stats.cacheHits.Add(1)
		a.obs.cacheHits.Inc()
	} else {
		// "send to controller": the policy path does not exist yet (§4.2).
		a.stats.cacheMiss.Add(1)
		a.obs.cacheMiss.Inc()
		if a.ctrl == nil {
			return false, fmt.Errorf("agent: clause %d at bs%d: %w", cl.Clause, a.BS, ErrNoPath)
		}
		t, err := a.ctrl.RequestPath(a.BS, cl.Clause)
		if err != nil {
			return false, fmt.Errorf("agent: controller refused path for clause %d: %w", cl.Clause, err)
		}
		tag = t
		// Record the admitted tag in the snapshot so later flows (and
		// restarts) hit it without another round trip.
		a.derive(func(d *snapshotDraft) { d.tags[cl.Clause] = t })
	}
	if err := a.installFlow(su, p.Flow(), tag, cl.Clause, cl.QoS); err != nil {
		return false, err
	}
	return true, nil
}

// installFlow takes the agent lock and installs one admitted flow.
func (a *Agent) installFlow(su *snapUE, orig packet.FlowKey, tag packet.Tag, clause int, qos policy.QoS) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.installMicroflows(su, a.flowsFor(su.ue.PermIP), orig, tag, clause, qos)
}

// isLocalPerm reports whether the destination sits in the deployment's
// permanent-address pool — a mobile-to-mobile candidate. The check is a
// prefix test, so ordinary Internet-bound flows never pay a controller
// round trip here.
func (a *Agent) isLocalPerm(dst packet.Addr) bool {
	return a.PermPool.Len > 0 && a.PermPool.Contains(dst)
}

// handleM2M installs the microflows for a carrier-internal destination.
func (a *Agent) handleM2M(su *snapUE, p *packet.Packet) (bool, error) {
	r, ok := a.ctrl.(LocResolver)
	if !ok {
		a.deny(p)
		return false, nil
	}
	dstLoc := p.Dst
	if !a.plan.Carrier.Contains(dstLoc) {
		loc, err := r.ResolveLocIP(p.Dst)
		if err != nil {
			a.deny(p)
			return false, nil
		}
		dstLoc = loc
	}
	a.stats.cacheMiss.Add(1) // the resolution is a controller round trip
	a.obs.cacheMiss.Inc()
	orig := p.Flow()
	srcLoc := su.ue.LocIP
	// Tag 0: pure location routing (Type 3 rules) carries the flow to the
	// peer's station directly.
	up := switchsim.Action{Resubmit: true, Output: -1, SetSrc: &srcLoc, SetDst: &dstLoc}
	a.Access.InstallMicroflow(orig, up)
	rewritten := packet.FlowKey{Src: srcLoc, Dst: dstLoc, SrcPort: orig.SrcPort,
		DstPort: orig.DstPort, Proto: orig.Proto}
	perm := su.ue.PermIP
	down := switchsim.Action{Output: switchsim.PortUE, SetDst: &perm}
	a.Access.InstallMicroflow(rewritten.Reverse(), down)
	a.mu.Lock()
	a.flowsFor(perm).put(flowState{orig: orig, rewritten: rewritten})
	a.mu.Unlock()
	a.stats.microflows.Add(2)
	a.obs.microflows.Add(2)
	return true, nil
}

// HandleArrival handles a punted packet ADDRESSED TO this station: a
// mobile-to-mobile or Internet-initiated (public IP, §7) flow reaching its
// destination access switch with no microflow yet. Internal sources
// (carrier or permanent-pool addresses) are mobile-to-mobile and always
// deliverable; external sources must match a registered inbound binding —
// anything else (including spoofed-tag probes, §4.1) is refused. On
// success it installs the delivery microflow and the reverse rule so
// replies retrace the same header transformation.
func (a *Agent) HandleArrival(p *packet.Packet) (delivered bool, err error) {
	snap := a.lkg()
	su, ok := snap.byLoc[p.Dst]
	if !ok {
		return false, fmt.Errorf("agent: no UE with LocIP %s at bs%d", p.Dst, a.BS)
	}
	internal := a.plan.Carrier.Contains(p.Src) ||
		(a.PermPool.Len > 0 && a.PermPool.Contains(p.Src))
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
	perm := su.ue.PermIP
	tag, svc := a.plan.SplitPort(p.DstPort)
	deliver := switchsim.Action{Output: switchsim.PortUE, SetDst: &perm}
	if tag != 0 {
		// Inbound-tagged flows (public IP bindings) carry the service port
		// in the ephemeral bits; restore it for the UE.
		svcPort := svc
		deliver.SetDstPort = &svcPort
	}
	a.Access.InstallMicroflow(key, deliver)
	// Replies from the UE: restore the wire form so they retrace the same
	// (tagged) path back out.
	locIP := p.Dst
	tagged := p.DstPort
	replyKey := packet.FlowKey{Src: perm, Dst: p.Src, SrcPort: svc, DstPort: p.SrcPort, Proto: p.Proto}
	if tag == 0 {
		replyKey.SrcPort = p.DstPort
	}
	reply := switchsim.Action{Resubmit: true, Output: -1, SetSrc: &locIP, SetSrcPort: &tagged}
	a.Access.InstallMicroflow(replyKey, reply)
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

// flowsFor returns (creating if needed) the mutable flow book for a UE.
//
// caller holds mu
func (a *Agent) flowsFor(perm packet.Addr) *ueFlows {
	uf, ok := a.flows[perm]
	if !ok {
		uf = &ueFlows{flows: make(map[packet.FlowKey]flowState)}
		a.flows[perm] = uf
	}
	return uf
}

// installMicroflows writes the pair of exact-match rules for one flow and
// records it in the UE's flow book for later reconciliation.
//
// caller holds mu
func (a *Agent) installMicroflows(su *snapUE, uf *ueFlows, orig packet.FlowKey, tag packet.Tag, clause int, qos policy.QoS) error {
	if tag > a.plan.MaxTag() {
		return fmt.Errorf("agent: tag %d does not fit the %d-bit tag field", tag, a.plan.TagBits)
	}
	old, booked := uf.flows[orig]
	if booked {
		uf.drop(old) // a re-installed flow gives up its old wire tuple
	}
	sport, err := a.ephemeralPort(uf, su.ue.LocIP, orig, tag)
	if err != nil {
		if booked {
			uf.put(old) // refused: the flow keeps the microflows it has
		}
		return err
	}
	loc := su.ue.LocIP

	// Upstream: rewrite source to (LocIP, tag|eph), mark the QoS class, and
	// resubmit so the controller-installed rules forward it (§4.1, Fig. 4).
	up := switchsim.Action{Resubmit: true, Output: -1, SetSrc: &loc, SetSrcPort: &sport}
	if d := dscpFor(qos); d != 0 {
		dscp := d
		up.SetDSCP = &dscp
	}
	a.Access.InstallMicroflow(orig, up)

	// Downstream: the reverse of the rewritten flow; restore the permanent
	// address and deliver to the UE.
	rewritten := packet.FlowKey{Src: loc, Dst: orig.Dst, SrcPort: sport, DstPort: orig.DstPort, Proto: orig.Proto}
	perm := su.ue.PermIP
	origPort := orig.SrcPort
	down := switchsim.Action{Output: switchsim.PortUE, SetDst: &perm, SetDstPort: &origPort}
	a.Access.InstallMicroflow(rewritten.Reverse(), down)

	uf.put(flowState{orig: orig, rewritten: rewritten, clause: clause, tag: tag, qos: qos})
	a.stats.microflows.Add(2)
	a.obs.microflows.Add(2)
	return nil
}

// ephemeralPort picks a new flow's wire source port: its tag and the next
// ephemeral value, wrapping like real port allocation, that leaves the
// rewritten five-tuple (loc, port to orig's destination) to no live flow
// in the UE's book. Switch entries the book no longer lists do not hold a
// value. With every value held the flow is refused with ErrPortsExhausted
// and counted.
//
// caller holds mu
func (a *Agent) ephemeralPort(uf *ueFlows, loc packet.Addr, orig packet.FlowKey, tag packet.Tag) (uint16, error) {
	values := 1<<a.plan.EphemeralBits() - 1 // 1..values; 0 is never used
	for range values {
		if int(uf.nextEph) >= values {
			uf.nextEph = 0
			uf.indexWire() // the values come round again
		}
		uf.nextEph++
		sport, err := a.plan.EmbedPort(tag, uf.nextEph)
		if err != nil {
			return 0, err
		}
		w := packet.FlowKey{Src: loc, Dst: orig.Dst, SrcPort: sport, DstPort: orig.DstPort, Proto: orig.Proto}
		if uf.wire[w] == 0 {
			return sport, nil
		}
	}
	a.stats.portsExhausted.Add(1)
	a.obs.portsExhausted.Inc()
	return 0, fmt.Errorf("agent: flow %s at bs%d: %w", orig, a.BS, ErrPortsExhausted)
}

// ActiveFlows lists a UE's live upstream flow keys (original form).
func (a *Agent) ActiveFlows(permIP packet.Addr) []packet.FlowKey {
	a.mu.Lock()
	defer a.mu.Unlock()
	uf, ok := a.flows[permIP]
	if !ok {
		return nil
	}
	out := make([]packet.FlowKey, 0, len(uf.flows))
	for k := range uf.flows {
		out = append(out, k)
	}
	return out
}

// MigrateFlows implements the access side of a handoff (§5.1): the old
// agent copies the moving UE's microflow rules to the new agent's switch
// (old flows keep the old LocIP and tags), retargets its own downstream
// microflows into the inter-station tunnel toward the new station, and
// hands over the UE state. newUE is the controller's post-handoff record;
// the new agent must already have admitted it (AdmitUE).
func (a *Agent) MigrateFlows(newAgent *Agent, newUE core.UE, oldLocIP packet.Addr) error {
	if _, ok := a.lkg().ues[newUE.PermIP]; !ok {
		return fmt.Errorf("agent: no state for UE %s", newUE.IMSI)
	}
	if _, ok := newAgent.lkg().ues[newUE.PermIP]; !ok {
		return fmt.Errorf("agent: new agent has not admitted UE %s", newUE.IMSI)
	}
	// The UE leaves this agent's snapshot; its flow book moves out under mu.
	a.derive(func(d *snapshotDraft) { d.removeUE(newUE.PermIP) })
	a.mu.Lock()
	uf := a.flows[newUE.PermIP]
	delete(a.flows, newUE.PermIP)
	var flows []flowState
	if uf != nil {
		flows = make([]flowState, 0, len(uf.flows))
		for _, f := range uf.flows {
			flows = append(flows, f)
		}
	}
	tunnel := switchsim.PortTunnelBase + int(newUE.BS)
	for _, f := range flows {
		// Downstream packets for the old flow now tunnel to the new station
		// unmodified: the copied microflow there restores the permanent
		// address on delivery.
		down := f.rewritten.Reverse()
		if _, ok := a.Access.Microflow(down); ok {
			a.Access.InstallMicroflow(down, switchsim.Action{Output: tunnel})
		}
		// The upstream rule at the old switch is obsolete (the UE is gone).
		a.Access.RemoveMicroflow(f.orig)
	}
	a.mu.Unlock()

	// The new agent inherits the UE (with its new LocIP for new flows) and
	// re-installs the old flows' microflows: upstream packets keep the old
	// LocIP and tag and triangle-route through the tunnel to the flow's
	// ORIGIN station (decoded from the old LocIP), where the old policy
	// path's upstream rules take over — so they traverse the old middlebox
	// sequence (§5.1). The reserved old address aliases into the new
	// agent's snapshot.
	newAgent.derive(func(d *snapshotDraft) { d.alias(oldLocIP, newUE.PermIP) })
	newAgent.mu.Lock()
	defer newAgent.mu.Unlock()
	nuf := newAgent.flowsFor(newUE.PermIP)
	if len(flows) > 0 {
		nuf.indexWire() // the flows carry values another book picked
	}
	for _, f := range flows {
		loc := f.rewritten.Src
		sport := f.rewritten.SrcPort
		originBS, _, ok := newAgent.plan.Split(loc)
		if !ok {
			return fmt.Errorf("agent: flow source %s outside the carrier block", loc)
		}
		up := switchsim.Action{
			Output:     switchsim.PortTunnelBase + int(originBS),
			SetSrc:     &loc,
			SetSrcPort: &sport,
		}
		newAgent.Access.InstallMicroflow(f.orig, up)
		perm := newUE.PermIP
		origPort := f.orig.SrcPort
		down := switchsim.Action{Output: switchsim.PortUE, SetDst: &perm, SetDstPort: &origPort}
		newAgent.Access.InstallMicroflow(f.rewritten.Reverse(), down)
		nuf.put(f)
		newAgent.stats.microflows.Add(2)
		newAgent.obs.microflows.Add(2)
	}
	return nil
}

// LocationReport answers a recovering controller's location query (§5.2).
func (a *Agent) LocationReport() core.AgentLocationReport {
	snap := a.lkg()
	rep := core.AgentLocationReport{BS: a.BS}
	for _, su := range snap.ues {
		rep.UEs = append(rep.UEs, su.ue)
	}
	return rep
}

// Restart simulates a local-agent process failure (§5.2). The LKG snapshot
// — validated, versioned, published state — survives, exactly as a
// persisted config would: the agent keeps classifying and keeps its
// version floor, so a stale snapshot replayed after the restart is still
// refused. The counters survive too, staying coherent with their obs
// registry mirrors (which are per-series and never reset). What is lost is
// the soft state: the per-UE flow books. Microflows in the switch survive
// (the switch did not fail), so established flows keep forwarding while
// the controller re-pushes anything it wants changed.
func (a *Agent) Restart() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.flows = make(map[packet.Addr]*ueFlows)
}

// NumUEs reports the attached-UE count (Fig. 6(b)'s per-station quantity).
func (a *Agent) NumUEs() int {
	return len(a.lkg().ues)
}
