package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/plant"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// BlackoutConfig parameterises one control-plane blackout run: a fleet of
// pushed-snapshot agents (no synchronous controller RPC anywhere in the
// packet-in path) admits live traffic, the control channel to every agent
// is severed for OutageTicks sim-milliseconds while the controller keeps
// mutating underneath (policy churn reallocating tags), and the run then
// reconnects, re-pushes, and checks reconciliation. Only Seed has no
// default.
type BlackoutConfig struct {
	Seed int64

	Shards      int // control-plane shards (default 2)
	ClusterSize int // stations per cluster; K=2, so stations = 2*ClusterSize (default 4)
	UEs         int // subscriber population (default 16)

	// OutageTicks is the blackout length in sim-kernel ticks (1ms each;
	// default 2000). The CI smoke runs 30000 — 30 sim-seconds dark.
	OutageTicks int
	// ProbeEvery runs the continuity probe (every admitted UE classified
	// and forwarded against LKG state) every N outage ticks (default 10).
	ProbeEvery int
	// ChurnEvery mutates the controller mid-blackout every N outage ticks
	// (default 500): one allow clause's paths are withdrawn and
	// re-requested, so reconnecting agents have real divergence to
	// reconcile.
	ChurnEvery int

	// Trace receives one line per notable event; two same-seed runs write
	// identical bytes. Nil discards.
	Trace io.Writer

	// Obs instruments the stack under test plus every agent (per-station
	// Sub views). The registry clock is pointed at the sim kernel.
	Obs *obs.Registry
}

func (cfg BlackoutConfig) withDefaults() BlackoutConfig {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.ClusterSize <= 0 {
		cfg.ClusterSize = 4
	}
	if cfg.UEs <= 0 {
		cfg.UEs = 16
	}
	if cfg.OutageTicks <= 0 {
		cfg.OutageTicks = 2000
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 10
	}
	if cfg.ChurnEvery <= 0 {
		cfg.ChurnEvery = 500
	}
	return cfg
}

// BlackoutResult summarises a blackout run. It is comparable, so tests
// assert two same-seed runs agree with ==.
type BlackoutResult struct {
	Stations int
	Admitted int // UEs admitted (baseline verdicts recorded) before the outage

	OutageTicks    int
	OutageProbes   int // continuity verdicts evaluated while dark
	OutageForward  int // probe packets forwarded by access switches on LKG state
	OutageNewFlows int // brand-new flows admitted from the snapshot while dark
	VerdictFlips   int // MUST be zero: an admitted UE's verdict changed mid-blackout
	PolicyChurns   int // controller mutations injected during the outage

	Kept          int // reconciliation: flows confirmed on reconnect
	Replayed      int // reconciliation: flows reinstalled under changed tags
	TornDown      int // reconciliation: flows whose path the new state withdrew
	StaleRejected int // re-deliveries of old snapshot versions refused by CAS
	Converged     bool
}

// blackoutEngine drives one run. The driver is single-threaded (the sim
// kernel); snapshot publication happens on per-connection read loops, and
// every push is followed by a barrier Echo on the same connection, so the
// driver never observes a half-delivered push.
type blackoutEngine struct {
	cfg BlackoutConfig
	k   *sim.Kernel
	rng *rand.Rand

	*plant.Plant // the system under test: topology, policy, dispatcher, wire

	agents map[packet.BSID]*agent.Agent
	conns  map[packet.BSID]*ctrlproto.Client
	ues    []core.UE // admitted population, attach order

	// baseline holds each admitted UE's reference verdict; any deviation
	// during the blackout is an invariant violation.
	baseline map[packet.Addr]agent.Verdict

	// pubMu guards the publish results written by connection read loops
	// and read by the driver after its barrier.
	pubMu   sync.Mutex
	lastRep agent.ReconcileReport // guarded by pubMu
	lastErr error                 // guarded by pubMu

	res BlackoutResult
	obs chaosObs
	err error
}

// RunBlackout executes one seeded blackout schedule. A nil error means the
// continuity invariant held: zero verdict flips while dark, reconciliation
// converged on reconnect, and every stale re-delivery was refused.
func RunBlackout(cfg BlackoutConfig) (BlackoutResult, error) {
	cfg = cfg.withDefaults()
	e := &blackoutEngine{
		cfg:      cfg,
		k:        sim.NewKernel(cfg.Seed),
		agents:   make(map[packet.BSID]*agent.Agent),
		conns:    make(map[packet.BSID]*ctrlproto.Client),
		baseline: make(map[packet.Addr]agent.Verdict),
	}
	e.rng = e.k.Fork("blackout-schedule")
	if cfg.Obs != nil {
		k := e.k
		cfg.Obs.SetClock(func() int64 { return int64(k.Now()) })
	}
	e.obs = newChaosObs(cfg.Obs)
	if err := e.setup(); err != nil {
		return e.res, err
	}
	defer e.Disp.Close()
	defer e.closeConns()

	e.warm()
	if e.err != nil {
		return e.res, e.err
	}
	e.blackout()
	if e.err != nil {
		return e.res, e.err
	}
	e.reconnectAndReconcile()
	return e.res, e.err
}

func (e *blackoutEngine) setup() error {
	p, err := plant.New(plant.Spec{
		Topo:   topo.GenParams{K: genK, ClusterSize: e.cfg.ClusterSize, MBTypes: 3, Seed: e.cfg.Seed},
		Shards: e.cfg.Shards,
		Obs:    e.cfg.Obs,
	})
	if err != nil {
		return err
	}
	e.Plant = p

	for _, bs := range e.Stations {
		ag := p.PushedAgent(bs)
		if e.cfg.Obs != nil {
			ag.Instrument(e.cfg.Obs.Sub(fmt.Sprintf("bs.%d", bs)))
		}
		e.agents[bs] = ag
	}
	e.res.Stations = len(e.Stations)
	e.connectAll()
	return e.err
}

// connectAll (re)builds one control channel per station and announces it.
func (e *blackoutEngine) connectAll() {
	for _, bs := range e.Stations {
		ag := e.agents[bs]
		cl := e.Dial(nil)
		cl.OnSnapshot = func(n ctrlproto.SnapshotNotify) error {
			rep, err := ag.Publish(agent.NewSnapshot(n.Version, n.View))
			e.pubMu.Lock()
			e.lastRep, e.lastErr = rep, err
			e.pubMu.Unlock()
			return err
		}
		if err := cl.Hello(bs); err != nil {
			e.fail(fmt.Errorf("blackout: hello bs%d: %w", bs, err))
			return
		}
		e.conns[bs] = cl
	}
}

func (e *blackoutEngine) closeConns() {
	for _, bs := range e.Stations {
		if cl := e.conns[bs]; cl != nil {
			_ = cl.Close()
			delete(e.conns, bs)
		}
	}
}

// push exports bs's view from the dispatcher, pushes it at the given
// version over the station's control channel, and barriers with an Echo so
// the publish (or its refusal) is complete when push returns.
func (e *blackoutEngine) push(bs packet.BSID, version uint64) (agent.ReconcileReport, error) {
	view, err := e.Disp.AgentView(bs)
	if err != nil {
		return agent.ReconcileReport{}, err
	}
	n, err := e.Server().PushSnapshot(ctrlproto.SnapshotNotify{Version: version, View: view})
	if err != nil {
		return agent.ReconcileReport{}, err
	}
	if n != 1 {
		return agent.ReconcileReport{}, fmt.Errorf("blackout: push bs%d reached %d conns", bs, n)
	}
	if _, err := e.conns[bs].Echo(nil); err != nil { // barrier
		return agent.ReconcileReport{}, err
	}
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	return e.lastRep, e.lastErr
}

// probePacket is a UE's canonical upstream web flow.
func probePacket(ue core.UE, sport uint16) *packet.Packet {
	return &packet.Packet{Src: ue.PermIP, Dst: packet.AddrFrom4(1, 1, 1, 1),
		SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP}
}

// warm attaches the population, sweeps every (station, clause) path so the
// controllers' tag state is fully admitted, pushes the first snapshot
// generation to every agent, and records each UE's baseline verdict plus
// one established microflow.
func (e *blackoutEngine) warm() {
	for i := 0; i < e.cfg.UEs; i++ {
		imsi := fmt.Sprintf("imsi-%03d", i)
		if err := e.Disp.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			e.fail(err)
			return
		}
		bs := e.Stations[e.rng.Intn(len(e.Stations))]
		ue, _, err := e.Disp.Attach(imsi, bs)
		if err != nil {
			e.fail(fmt.Errorf("blackout: seeding attach %s at bs%d: %w", imsi, bs, err))
			return
		}
		e.ues = append(e.ues, ue)
		e.trace("seed attach %s bs=%d loc=%s", imsi, bs, ue.LocIP)
	}
	if err := e.WarmPaths(); err != nil {
		e.fail(fmt.Errorf("blackout: %w", err))
		return
	}
	for _, bs := range e.Stations {
		ag := e.agents[bs]
		if _, err := e.push(bs, ag.Version()+1); err != nil {
			e.fail(fmt.Errorf("blackout: warm push bs%d: %w", bs, err))
			return
		}
		e.trace("warm push bs=%d v=%d ues=%d", bs, ag.Version(), ag.NumUEs())
	}
	for _, ue := range e.ues {
		ag := e.agents[ue.BS]
		allowed, err := ag.HandlePacketIn(probePacket(ue, 40000))
		if err != nil || !allowed {
			e.fail(fmt.Errorf("blackout: baseline flow for %s: allowed=%v err=%v", ue.IMSI, allowed, err))
			return
		}
		v := ag.Classify(probePacket(ue, 40000))
		if !v.Known || !v.Allowed || v.Tag == 0 {
			e.fail(fmt.Errorf("blackout: baseline verdict for %s: %+v", ue.IMSI, v))
			return
		}
		e.baseline[ue.PermIP] = v
		e.res.Admitted++
	}
	e.trace("warm done admitted=%d stations=%d", e.res.Admitted, e.res.Stations)
}

// blackout severs every control channel and drives OutageTicks of live
// traffic: continuity probes (classify + forward through the access
// switch against the baseline), new flows admitted purely from LKG state,
// and controller-side policy churn the agents cannot see.
func (e *blackoutEngine) blackout() {
	e.closeConns()
	e.obs.fault(kindBlackout, int64(e.cfg.OutageTicks))
	e.trace("blackout begin ticks=%d", e.cfg.OutageTicks)
	tickNo := 0
	_, err := e.k.Every(tick, func() bool {
		if e.err != nil {
			return false
		}
		tickNo++
		e.res.OutageTicks++
		if tickNo%e.cfg.ProbeEvery == 0 {
			e.probe(tickNo)
		}
		if tickNo%e.cfg.ChurnEvery == 0 {
			e.churn()
		}
		return e.err == nil && tickNo < e.cfg.OutageTicks
	})
	if err != nil {
		e.fail(err)
		return
	}
	e.k.Run()
	e.trace("blackout end probes=%d forwarded=%d newflows=%d flips=%d churns=%d",
		e.res.OutageProbes, e.res.OutageForward, e.res.OutageNewFlows,
		e.res.VerdictFlips, e.res.PolicyChurns)
}

// probe checks every admitted UE against its baseline: the verdict must
// not flip, and the established microflow must still rewrite and forward
// the packet in the access switch.
func (e *blackoutEngine) probe(tickNo int) {
	for _, ue := range e.ues {
		ag := e.agents[ue.BS]
		v := ag.Classify(probePacket(ue, 40000))
		e.res.OutageProbes++
		if base := e.baseline[ue.PermIP]; v != base {
			e.res.VerdictFlips++
			e.fail(fmt.Errorf("blackout: t=%d verdict flip for %s: %+v -> %+v",
				tickNo, ue.IMSI, base, v))
			return
		}
		q := probePacket(ue, 40000)
		sv := ag.Access.Process(q, switchsim.PortUE)
		if sv.Drop || q.Src != ue.LocIP {
			e.fail(fmt.Errorf("blackout: t=%d LKG microflow for %s stopped forwarding (drop=%v src=%s)",
				tickNo, ue.IMSI, sv.Drop, q.Src))
			return
		}
		e.res.OutageForward++
	}
	// One rotating UE also opens a brand-new flow, admitted purely from
	// the snapshot: the controller is unreachable, and it must not matter.
	ue := e.ues[(tickNo/e.cfg.ProbeEvery)%len(e.ues)]
	ag := e.agents[ue.BS]
	// Each sport gets its own server: a UE can hold only
	// 2^EphemeralBits-1 live flows to one (agent.ErrPortsExhausted).
	sport := uint16(42000 + tickNo%1024)
	p := probePacket(ue, sport)
	p.Dst = packet.AddrFrom4(1, 1, byte(sport>>8), byte(sport))
	allowed, err := ag.HandlePacketIn(p)
	if err != nil || !allowed {
		e.fail(fmt.Errorf("blackout: t=%d new flow for %s during outage: allowed=%v err=%v",
			tickNo, ue.IMSI, allowed, err))
		return
	}
	e.res.OutageNewFlows++
}

// churn mutates the controller mid-blackout: one allow clause's paths are
// withdrawn everywhere and immediately re-requested, allocating fresh
// tags. Agents keep forwarding on their (now stale) LKG tags — exactly the
// divergence reconciliation must repair on reconnect.
func (e *blackoutEngine) churn() {
	clause := e.Clauses[e.rng.Intn(len(e.Clauses))]
	for _, s := range e.Disp.Shards() {
		if s.Down() {
			continue
		}
		if err := s.Ctrl.RemovePolicyPaths(clause); err != nil {
			e.trace("churn clause=%d shard=%d err=%v", clause, s.ID, err)
		}
	}
	for _, bs := range e.Stations {
		if _, err := e.Disp.RequestPath(bs, clause); err != nil {
			e.fail(fmt.Errorf("blackout: churn repath bs%d clause %d: %w", bs, clause, err))
			return
		}
	}
	e.res.PolicyChurns++
	e.obs.fault(kindPolicyChurn, int64(clause))
	e.trace("churn clause=%d", clause)
}

// reconnectAndReconcile restores every control channel, pushes the fresh
// generation (collecting reconciliation reports), replays a stale version
// at every station (which must be refused), and verifies convergence: every
// admitted UE's verdict now matches the controller's current tag state.
func (e *blackoutEngine) reconnectAndReconcile() {
	e.connectAll()
	if e.err != nil {
		return
	}
	for _, bs := range e.Stations {
		ag := e.agents[bs]
		staleVer := ag.Version() // current LKG: anything <= this must be refused later
		rep, err := e.push(bs, staleVer+1)
		if err != nil {
			e.fail(fmt.Errorf("blackout: reconnect push bs%d: %w", bs, err))
			return
		}
		e.res.Kept += rep.Kept
		e.res.Replayed += rep.Replayed
		e.res.TornDown += rep.TornDown
		e.trace("reconcile bs=%d v=%d kept=%d replayed=%d torndown=%d",
			bs, ag.Version(), rep.Kept, rep.Replayed, rep.TornDown)

		// Out-of-order delivery: the wire replays the pre-outage version.
		// CAS-by-version must refuse it without touching state.
		before := ag.Stats().StaleDrops
		if _, err := e.push(bs, staleVer); !errors.Is(err, agent.ErrStaleSnapshot) {
			e.fail(fmt.Errorf("blackout: bs%d accepted stale v%d (err=%v)", bs, staleVer, err))
			return
		}
		if ag.Stats().StaleDrops != before+1 {
			e.fail(fmt.Errorf("blackout: bs%d stale drop not counted", bs))
			return
		}
		e.res.StaleRejected++
	}
	// Convergence: re-derive each station's view and check every admitted
	// UE classifies to the controller's current tag for its clause.
	for _, ue := range e.ues {
		ag := e.agents[ue.BS]
		view, err := e.Disp.AgentView(ue.BS)
		if err != nil {
			e.fail(err)
			return
		}
		want := agent.NewSnapshot(ag.Version(), view)
		v := ag.Classify(probePacket(ue, 40000))
		ref, ok := want.UE(ue.PermIP)
		if !ok || !v.Known || !v.Allowed || v.Tag == 0 {
			e.fail(fmt.Errorf("blackout: %s did not converge: verdict=%+v ref=%+v ok=%v",
				ue.IMSI, v, ref, ok))
			return
		}
		// The verdict the live agent gives must equal the verdict a fresh
		// snapshot of controller state gives: reconciliation converged.
		tmp := e.PushedAgent(ue.BS)
		if _, err := tmp.Publish(agent.NewSnapshot(1, view)); err != nil {
			e.fail(err)
			return
		}
		if ref := tmp.Classify(probePacket(ue, 40000)); ref != v {
			e.fail(fmt.Errorf("blackout: %s verdict %+v, controller state says %+v", ue.IMSI, v, ref))
			return
		}
	}
	e.res.Converged = true
	e.trace("converged kept=%d replayed=%d torndown=%d stale_rejected=%d",
		e.res.Kept, e.res.Replayed, e.res.TornDown, e.res.StaleRejected)
}

func (e *blackoutEngine) trace(format string, args ...any) {
	if e.cfg.Trace == nil {
		return
	}
	fmt.Fprintf(e.cfg.Trace, "t=%d ", int64(e.k.Now()))
	fmt.Fprintf(e.cfg.Trace, format, args...)
	fmt.Fprintln(e.cfg.Trace)
}

func (e *blackoutEngine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.trace("FATAL %v", err)
}
