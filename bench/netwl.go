package main

// Shared machinery of the two network-plant workloads (forward_plain,
// e2e_mobility): flows and their packet templates, timed sends with
// disposition checks, and the scripted UE session — attach, flows,
// traffic, handoff, old-flow traffic, new flows, release, detach — that
// e2e_mobility interleaves across a whole round and forward_plain runs as
// a short population turnover between its forwarding rounds.

import (
	"fmt"
	"math/rand"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// flow is one established connection of a UE.
type flow struct {
	up   packet.Packet // as the UE sends it (permanent source address)
	down packet.Packet // as the Internet peer replies (to the wire form)
	perm packet.Addr   // the UE's permanent address, restored on delivery
	// mbs is the middlebox instance sequence the flow's first packet
	// crossed; §5.1 policy consistency says the flow keeps it for life.
	mbs []topo.MBInstanceID
}

// servicePorts are the destination ports new flows cycle through: web,
// video, VoIP (three different Table 1 clauses for a silver subscriber).
var servicePorts = [3]uint16{80, 554, 5060}

// netDriver issues timed operations against a network plant on behalf of
// one generator.
type netDriver struct {
	p      *netPlant
	rec    *recorder
	sender *dataplane.BurstSender
	access []topo.NodeID // station -> access switch

	backing []packet.Packet
	pkts    []*packet.Packet
	out     []dataplane.BurstOutcome

	// Burst accounting over the driver's lifetime.
	burstPkts, slowPkts, hops int64
	// oldProbes counts old-flow downstream probes after handoffs and
	// downBypass those that no longer crossed the flow's middleboxes.
	oldProbes, downBypass int64
}

func newNetDriver(p *netPlant, rec *recorder) (*netDriver, error) {
	s, err := p.net.NewBurstSender()
	if err != nil {
		return nil, err
	}
	d := &netDriver{p: p, rec: rec, sender: s, access: make([]topo.NodeID, p.stations)}
	for bs := range d.access {
		st, ok := p.net.T.Station(packet.BSID(bs))
		if !ok {
			return nil, fmt.Errorf("plant has no station %d", bs)
		}
		d.access[bs] = st.Access
	}
	return d, nil
}

func mbSeq(hops []dataplane.Hop) []topo.MBInstanceID {
	var out []topo.MBInstanceID
	for _, h := range hops {
		if h.MB != core.NoMB {
			out = append(out, h.MB)
		}
	}
	return out
}

func sameSeq(a, b []topo.MBInstanceID, reversed bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		j := i
		if reversed {
			j = len(b) - 1 - i
		}
		if a[i] != b[j] {
			return false
		}
	}
	return true
}

// attach admits a UE at a station.
func (d *netDriver) attach(imsi string, bs packet.BSID) (core.UE, error) {
	o, c := d.rec.open(kAttach)
	ue, err := d.p.net.Attach(imsi, bs)
	return ue, d.rec.done(&o, sNetAttach, c, 1, err)
}

// openFlow sets up a new flow: its first packet is injected at the UE's
// station, punts to the agent, gets its path and microflows, and must leave
// through the gateway. The op spans injection to final disposition.
func (d *netDriver) openFlow(ue core.UE, sport, dport uint16, peer packet.Addr) (flow, error) {
	f := flow{perm: ue.PermIP, up: packet.Packet{Src: ue.PermIP, Dst: peer, SrcPort: sport, DstPort: dport, Proto: packet.ProtoTCP, TTL: 64}}
	sent := f.up
	o, c := d.rec.open(kFlow)
	res, err := d.p.net.SendUpstream(ue.BS, &sent)
	if err := d.rec.done(&o, sNetSendUpstream, c, 1, err); err != nil {
		return f, err
	}
	if res.Disposition != dataplane.ExitedNet {
		return f, fmt.Errorf("new flow %s ended %s at node %d, want exited", f.up.Flow(), res.Disposition, res.Last)
	}
	f.mbs = mbSeq(res.Hops)
	f.down = packet.Packet{Src: sent.Dst, Dst: sent.Src, SrcPort: sent.DstPort, DstPort: sent.SrcPort, Proto: sent.Proto, TTL: 64}
	return f, nil
}

// burstUp sends n upstream packets of established flows from station bs as
// one burst, cycling through flows from *cursor. wantFast asserts that no
// packet left the fast path.
func (d *netDriver) burstUp(bs packet.BSID, flows []flow, cursor *int, n int, wantFast bool) error {
	if cap(d.backing) < n {
		d.backing = make([]packet.Packet, n)
		d.pkts = make([]*packet.Packet, n)
		for i := range d.pkts {
			d.pkts[i] = &d.backing[i]
		}
		d.out = make([]dataplane.BurstOutcome, n)
	}
	pkts := d.pkts[:n]
	for i := 0; i < n; i++ {
		d.backing[i] = flows[*cursor].up
		if *cursor++; *cursor == len(flows) {
			*cursor = 0
		}
	}
	o, c := d.rec.open(kUp)
	out, err := d.sender.Send(bs, pkts, d.out)
	if err := d.rec.done(&o, sNetBurstSend, c, n, err); err != nil {
		return err
	}
	d.out = out
	for i := range out {
		if out[i].Disposition != dataplane.ExitedNet {
			return fmt.Errorf("established upstream packet %s ended %s at node %d, want exited",
				flows[0].up.Flow(), out[i].Disposition, out[i].Last)
		}
		if out[i].Slow {
			if wantFast {
				return fmt.Errorf("established middlebox-free packet from station %d took the slow path", bs)
			}
			d.slowPkts++
		}
		d.hops += int64(out[i].Hops)
	}
	d.burstPkts += int64(n)
	return nil
}

// downBlock sends one downstream packet on each of n established flows
// (cycling from *cursor) as one timed block; each must be delivered at the
// access switch of station bs with its permanent destination restored.
func (d *netDriver) downBlock(bs packet.BSID, flows []flow, cursor *int, n int) error {
	want := d.access[bs]
	o, c := d.rec.open(kDown)
	for i := 0; i < n; i++ {
		p, perm := flows[*cursor].down, flows[*cursor].perm
		if *cursor++; *cursor == len(flows) {
			*cursor = 0
		}
		res, err := d.p.net.SendDownstream(&p)
		if err != nil {
			d.rec.fail(&o, err)
			return err
		}
		if res.Disposition != dataplane.Delivered || res.Last != want || p.Dst != perm {
			d.rec.fail(&o, nil)
			return fmt.Errorf("downstream packet to %s ended %s at node %d as %s, want delivered at node %d",
				perm, res.Disposition, res.Last, p.Flow(), want)
		}
	}
	return d.rec.done(&o, sNetSendDownstream, c, n, nil)
}

// probeOldFlow sends one single packet each way on a pre-handoff flow from
// the UE's new station and asserts §5.1 policy consistency upstream: the
// flow still crosses exactly the middlebox instances its first packet did.
// Downstream the packet must be delivered at the new station; whether it
// still crossed the flow's middleboxes is COUNTED, not asserted, because it
// does not hold today: a shortcut whose route doubles back over a switch the
// old path crosses before its branch point captures the packet early and it
// skips the middleboxes (README.md, "What the gate found").
func (d *netDriver) probeOldFlow(newBS packet.BSID, f *flow) error {
	up := f.up
	o, c := d.rec.open(kUp)
	res, err := d.p.net.SendUpstream(newBS, &up)
	if err := d.rec.done(&o, sNetSendUpstream, c, 1, err); err != nil {
		return err
	}
	if res.Disposition != dataplane.ExitedNet {
		return fmt.Errorf("old flow %s upstream after handoff ended %s at node %d", f.up.Flow(), res.Disposition, res.Last)
	}
	if got := mbSeq(res.Hops); !sameSeq(got, f.mbs, false) {
		return fmt.Errorf("old flow %s crossed middleboxes %v after handoff, %v before", f.up.Flow(), got, f.mbs)
	}
	d.oldProbes++
	down := f.down
	o, c = d.rec.open(kDown)
	dres, err := d.p.net.SendDownstream(&down)
	if err := d.rec.done(&o, sNetSendDownstream, c, 1, err); err != nil {
		return err
	}
	if dres.Disposition != dataplane.Delivered || dres.Last != d.access[newBS] || down.Dst != f.perm {
		return fmt.Errorf("old flow %s downstream after handoff ended %s at node %d, want delivered at node %d",
			f.up.Flow(), dres.Disposition, dres.Last, d.access[newBS])
	}
	if !sameSeq(mbSeq(dres.Hops), f.mbs, true) {
		d.downBypass++
	}
	return nil
}

// handoff moves a UE: controller move, new-agent admission, microflow
// migration with tunnelling, and TCAM resync, all inside the op.
func (d *netDriver) handoff(imsi string, to packet.BSID) (core.HandoffResult, error) {
	o, c := d.rec.open(kHandoff)
	hr, err := d.p.net.Handoff(imsi, to)
	return hr, d.rec.done(&o, sNetHandoff, c, 1, err)
}

// release expires a handoff's soft timeout: the old LocIP and its
// shortcuts go, and the switches resync.
func (d *netDriver) release(hr core.HandoffResult) error {
	o, c := d.rec.open(kRelease)
	d.p.net.Ctrl.ReleaseOldLocIP(hr.OldLocIP, hr.Shortcuts)
	d.rec.ret(&o, sCoreRelease, c)
	c = d.rec.call(&o)
	return d.rec.done(&o, sNetSync, c, 0, d.p.net.Sync())
}

// detach ends a UE's session at the controller. Its agent-side state goes
// with the next snapshot publish (flushAgents).
func (d *netDriver) detach(imsi string) error {
	o, c := d.rec.open(kDetach)
	return d.rec.done(&o, sCoreDetach, c, 1, d.p.net.Ctrl.Detach(imsi))
}

// flushAgents publishes a fresh controller view to the given stations'
// agents, tearing down the microflows and records of every UE that has
// since detached or moved away. It runs only when no session with
// pre-handoff flows is live at those stations (a republish re-resolves
// migrated flows' tags against the new station's paths).
func (d *netDriver) flushAgents(stations []packet.BSID) error {
	for _, bs := range stations {
		ag := d.p.net.Agents[bs]
		o, c := d.rec.open(kPublish)
		view, err := d.p.net.Ctrl.AgentView(bs)
		d.rec.ret(&o, sCoreAgentView, c)
		if err != nil {
			d.rec.fail(&o, err)
			return err
		}
		c = d.rec.call(&o)
		_, err = ag.Publish(agent.NewSnapshot(ag.Version()+1, view))
		if err := d.rec.done(&o, sAgentPublish, c, 0, err); err != nil {
			return err
		}
	}
	return nil
}

// --- scripted sessions ---

// sessionShape sizes a scripted session.
type sessionShape struct {
	flowsHome int // flows opened at the home station
	flowsAway int // flows opened after the handoff
	burst     int // upstream packets per burst
	downs     int // downstream packets per block
	reps      int // (burst, block) pairs per traffic step
}

// Session steps, one per tick of the session's life.
const (
	stAttach = iota
	stOpenHome
	stTraffic1
	stHandoff
	stTraffic2
	stRelease
	stTraffic3
	stDetach
	sessionSteps
)

// session is one UE's scripted life on a network plant.
type session struct {
	sub        int // index into the subscriber pool
	home, away packet.BSID
	ue         core.UE
	old, cur   []flow // pre-handoff flows (until release); flows of the current LocIP
	hr         core.HandoffResult
	step       int
	cursor     int
}

// mobility runs scripted sessions over a subscriber pool on one plant.
type mobility struct {
	d     *netDriver
	rng   *rand.Rand
	shape sessionShape
	imsis []string
	next  int // next subscriber of the pool
	live  []*session
	// touched marks the stations whose agents hold state of ended sessions.
	touched map[packet.BSID]bool
	// podStations is the station count under one pod; stations a multiple
	// of it apart are served by different pods' middlebox instances.
	podStations int
}

// registerPool registers n subscribers named prefix-i; plan picks each
// one's billing plan.
func registerPool(p *netPlant, prefix string, n int, plan func(i int) string) ([]string, error) {
	imsis := make([]string, n)
	for i := range imsis {
		imsis[i] = fmt.Sprintf("%s-%05d", prefix, i)
		if err := p.net.Ctrl.RegisterSubscriber(imsis[i], policy.Attributes{Provider: "A", Plan: plan(i), DeviceType: "phone"}); err != nil {
			return nil, err
		}
	}
	return imsis, nil
}

// populate gives a plant its resident population: uesPerStation UEs
// attached at every station, each with flowsPerUE established flows of one
// service. It returns the flows per station. Call it before the fast path
// is enabled, or every flow set-up also recompiles the FIB snapshots.
func populate(p *netPlant, prefix string, uesPerStation, flowsPerUE int, plan func(i int) string) ([][]flow, error) {
	imsis, err := registerPool(p, prefix, p.stations*uesPerStation, plan)
	if err != nil {
		return nil, err
	}
	// Set-up ops are part of setup_s, not of any latency pool.
	d := &netDriver{p: p, rec: &recorder{}}
	flows := make([][]flow, p.stations)
	for i, imsi := range imsis {
		bs := packet.BSID(i / uesPerStation)
		ue, err := d.attach(imsi, bs)
		if err != nil {
			return nil, err
		}
		for f := 0; f < flowsPerUE; f++ {
			peer := packet.AddrFrom4(198, 18, byte(i%250), byte(1+f))
			fl, err := d.openFlow(ue, uint16(40000+f), servicePorts[i%len(servicePorts)], peer)
			if err != nil {
				return nil, err
			}
			flows[bs] = append(flows[bs], fl)
		}
	}
	return flows, nil
}

func newMobility(d *netDriver, seed int64, shape sessionShape, imsis []string) *mobility {
	return &mobility{d: d, rng: rand.New(rand.NewSource(seed)), shape: shape, imsis: imsis,
		touched: make(map[packet.BSID]bool), podStations: d.p.stations / smallK}
}

// start begins a session for the pool's next subscriber at a seeded home
// station; its away station sits in another pod, so it is served by other
// middlebox instances.
func (m *mobility) start() {
	s := &session{sub: m.next}
	m.next = (m.next + 1) % len(m.imsis)
	home := m.rng.Intn(m.d.p.stations)
	pods := m.d.p.stations / m.podStations
	away := (home + m.podStations*(1+m.rng.Intn(pods-1))) % m.d.p.stations
	s.home, s.away = packet.BSID(home), packet.BSID(away)
	m.live = append(m.live, s)
}

// tick advances every live session by one step, in start order.
func (m *mobility) tick() error {
	kept := m.live[:0]
	for _, s := range m.live {
		if err := m.advance(s); err != nil {
			return fmt.Errorf("session %s step %d: %w", m.imsis[s.sub], s.step, err)
		}
		if s.step++; s.step < sessionSteps {
			kept = append(kept, s)
		}
	}
	m.live = kept
	return nil
}

func (m *mobility) open(s *session, n int, base uint16) error {
	for i := 0; i < n; i++ {
		peer := packet.AddrFrom4(203, 0, 113, byte(1+m.rng.Intn(250)))
		f, err := m.d.openFlow(s.ue, base+uint16(i), servicePorts[s.sub%len(servicePorts)], peer)
		if err != nil {
			return err
		}
		s.cur = append(s.cur, f)
	}
	return nil
}

func (m *mobility) traffic(s *session, flows []flow) error {
	for i := 0; i < m.shape.reps; i++ {
		if err := m.d.burstUp(s.ue.BS, flows, &s.cursor, m.shape.burst, false); err != nil {
			return err
		}
		if err := m.d.downBlock(s.ue.BS, flows, &s.cursor, m.shape.downs); err != nil {
			return err
		}
	}
	return nil
}

func (m *mobility) advance(s *session) error {
	d, imsi := m.d, m.imsis[s.sub]
	var err error
	switch s.step {
	case stAttach:
		s.ue, err = d.attach(imsi, s.home)
		m.touched[s.home] = true
	case stOpenHome:
		err = m.open(s, m.shape.flowsHome, 20000)
	case stTraffic1, stTraffic3:
		err = m.traffic(s, s.cur)
	case stHandoff:
		if s.hr, err = d.handoff(imsi, s.away); err != nil {
			return err
		}
		s.ue = s.hr.UE
		m.touched[s.away] = true
		s.old, s.cur = s.cur, nil
		for i := range s.old {
			if err := d.probeOldFlow(s.away, &s.old[i]); err != nil {
				return err
			}
		}
		err = m.open(s, m.shape.flowsAway, 30000)
	case stTraffic2:
		s.cursor = 0
		if err = m.traffic(s, s.old); err != nil {
			return err
		}
		s.cursor = 0
		err = m.traffic(s, s.cur)
	case stRelease:
		// The old flows end with the soft timeout. Their downstream
		// microflows at the home station (retargeted into the tunnel by the
		// migration) belong to no agent's flow book any more; a real switch
		// would idle them out, so they are removed here, or the microflow
		// tables would grow from round to round.
		home := d.p.net.Switches[d.access[s.home]]
		for i := range s.old {
			home.RemoveMicroflow(s.old[i].down.Flow())
		}
		err = d.release(s.hr)
		s.old, s.cursor = nil, 0
	case stDetach:
		err = d.detach(imsi)
	}
	return err
}

// flush publishes fresh views to every station ended sessions touched.
// Only call it with no session live.
func (m *mobility) flush() error {
	if len(m.live) != 0 {
		return fmt.Errorf("flush with %d sessions live", len(m.live))
	}
	stations := make([]packet.BSID, 0, len(m.touched))
	for bs := 0; bs < m.d.p.stations; bs++ {
		if m.touched[packet.BSID(bs)] {
			stations = append(stations, packet.BSID(bs))
		}
	}
	m.touched = make(map[packet.BSID]bool)
	return m.d.flushAgents(stations)
}

// run starts cohort sessions per tick for starts ticks, then ticks until
// the last session has ended, then flushes the agents.
func (m *mobility) run(starts, cohort int) error {
	for t := 0; t < starts || len(m.live) > 0; t++ {
		if t < starts {
			for i := 0; i < cohort; i++ {
				m.start()
			}
		}
		if err := m.tick(); err != nil {
			return err
		}
	}
	return m.flush()
}

// netLayerValues are the per-layer values a network workload's drivers and
// agents accumulated over its rounds.
func netLayerValues(p *netPlant, drivers ...*netDriver) map[string]float64 {
	v := map[string]float64{}
	var burst, slow, hops, bypass int64
	for _, d := range drivers {
		burst += d.burstPkts
		slow += d.slowPkts
		hops += d.hops
		bypass += d.downBypass
	}
	if burst > 0 {
		v["dataplane.slow_share"] = float64(slow) / float64(burst)
		v["dataplane.hops_per_pkt"] = float64(hops) / float64(burst)
	}
	v["mbox.old_flow_bypasses"] = float64(bypass)
	var hit, miss uint64
	for _, ag := range p.net.Agents {
		s := ag.Stats()
		hit += s.CacheHits
		miss += s.CacheMiss
	}
	if hit+miss > 0 {
		v["agent.cache_hit_ratio"] = float64(hit) / float64(hit+miss)
	}
	return v
}

// directFlows keeps the flows that cross no middlebox (the ones the
// forwarding probes can burst).
func directFlows(flows [][]flow) [][]flow {
	out := make([][]flow, len(flows))
	for bs := range flows {
		for _, f := range flows[bs] {
			if len(f.mbs) == 0 {
				out[bs] = append(out[bs], f)
			}
		}
	}
	return out
}
