// Package chaos is a deterministic fault-injection harness over the sharded
// SoftCell control plane (DESIGN.md §11). One seeded schedule interleaves
// live workload (attach/detach, handoffs, path and resolution requests —
// some in-process, some over a faulty ctrlproto link) with injected faults
// (switch fail/recover, shard kill + failover, agent restart, detach
// mid-handoff, policy churn, and dropped/duplicated/reordered control
// frames), running the cross-layer invariant checker after every fault and
// at quiescence. Two runs with the same Config produce byte-identical event
// traces and equal Results.
//
// Determinism over a real wire works as follows. The driver is single
// threaded (the sim kernel's event loop) and keeps at most one wire request
// outstanding. Only the client->server direction is faulted, only
// idempotent operations travel the wire (Hello, Echo, Resolve, RequestPath;
// attach/handoff/detach go in-process), and the fault verdict for a request
// id is made exactly once — retransmissions of an already-judged frame are
// always delivered, so the fault RNG's consumption order cannot depend on
// wall-clock retry timing. After every wire operation the driver sends a
// barrier Echo (never faulted); the server handles frames in order, so the
// barrier's reply proves every stray duplicate has been processed before
// the schedule advances.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/plant"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Mix weights the event categories of the schedule. Zero values fall back
// to the defaults (12/2/1/2/2/1).
type Mix struct {
	Workload         int // attach/detach, handoff, path/resolve/echo requests
	SwitchFault      int // fail or recover an aggregation/core switch
	ShardKill        int // kill a shard and fail its state over
	AgentRestart     int // drop the agent's control channel and reconnect
	DetachMidHandoff int // handoff immediately followed by detach
	PolicyChurn      int // withdraw one policy clause's paths everywhere
}

const (
	// retryTimeout is the client's retransmission timeout. It is
	// wall-clock: the sim kernel drives the schedule, but the wire
	// underneath is a real net.Pipe.
	retryTimeout = 50 * time.Millisecond
	// checkEvery runs the invariant checker every N events in addition to
	// the run after every injected fault.
	checkEvery = 40
)

// Config parameterises one chaos run. Only Seed has no default.
type Config struct {
	Seed   int64
	Events int // scheduled events (default 2000)

	Shards      int // control-plane shards (default 3)
	ClusterSize int // base stations per cluster; K=2, so stations = 2*ClusterSize (default 4)
	UEs         int // subscriber population (default 16)

	// WireFaultRate is the probability a first-sent control frame is
	// faulted (default 0.25; negative disables wire faults).
	WireFaultRate float64

	Mix Mix

	// Trace receives one line per event; two same-seed runs write identical
	// bytes. Nil discards.
	Trace io.Writer

	// Obs, when set, instruments the whole stack under test (core, shard,
	// wire, plus the harness's own fault/check telemetry). The harness
	// points the registry's clock at the sim kernel, so the registry's
	// trace dump is deterministic too: two same-seed runs emit
	// byte-identical TraceJSON. Counters are NOT covered by that
	// guarantee — wire retransmissions depend on wall-clock retry timing.
	Obs *obs.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.Events <= 0 {
		cfg.Events = 2000
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.ClusterSize <= 0 {
		cfg.ClusterSize = 4
	}
	if cfg.UEs <= 0 {
		cfg.UEs = 16
	}
	if cfg.WireFaultRate == 0 {
		cfg.WireFaultRate = 0.25
	} else if cfg.WireFaultRate < 0 {
		cfg.WireFaultRate = 0
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = Mix{Workload: 12, SwitchFault: 2, ShardKill: 1, AgentRestart: 2, DetachMidHandoff: 2, PolicyChurn: 1}
	}
	return cfg
}

// FaultCounts tallies every fault the schedule injected.
type FaultCounts struct {
	SwitchFail       int
	SwitchRecover    int
	ShardKill        int
	AgentRestart     int
	DetachMidHandoff int
	PolicyChurn      int
	WireFrames       int // first transmissions shown to the fault schedule
	WireFaulted      int // of those, dropped/duplicated/held
}

// Result summarises a run. It is comparable, so tests can assert two
// same-seed runs agree with ==.
type Result struct {
	Events   int // scheduled events executed
	Ops      int // workload operations attempted
	OpErrors int // operations that returned an error (expected under faults)
	Checks   int // invariant-checker passes
	Releases int // old-LocIP releases fired (two-phase handoff completions)
	Faults   FaultCounts
	Final    shard.InvariantReport // checker report at quiescence
	Mem      core.MemStats         // fleet memory accounting at quiescence
}

const (
	genK          = 2 // pod parameter of the synthetic topology
	retryAttempts = 10
	tick          = sim.Time(time.Millisecond)
	maxDownSw     = 2
)

type engine struct {
	cfg Config
	k   *sim.Kernel
	rng *rand.Rand // schedule decisions

	*plant.Plant // the system under test: topology, policy, dispatcher, wire
	cl           *ctrlproto.Client

	imsis  []string
	perms  map[string]packet.Addr
	swPool []topo.NodeID // fail candidates: aggregation + core switches
	downSw []topo.NodeID

	res Result
	obs chaosObs
	err error

	// Wire-fault state, shared with the connection's writer goroutine (the
	// decide callback); everything else belongs to the driver alone.
	wireMu  sync.Mutex
	wireRNG *rand.Rand      // guarded by wireMu
	seen    map[uint32]bool // guarded by wireMu
	barrier bool            // guarded by wireMu
}

// Run executes one seeded chaos schedule and returns its summary. A nil
// error means every workload consistency assertion and every invariant
// check passed; the first violation aborts the schedule and is returned.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	e := &engine{
		cfg:   cfg,
		k:     sim.NewKernel(cfg.Seed),
		perms: make(map[string]packet.Addr),
		seen:  make(map[uint32]bool),
	}
	e.rng = e.k.Fork("chaos-schedule")
	e.wireMu.Lock()
	e.wireRNG = e.k.Fork("chaos-wire")
	e.wireMu.Unlock()
	if cfg.Obs != nil {
		k := e.k
		cfg.Obs.SetClock(func() int64 { return int64(k.Now()) })
	}
	e.obs = newChaosObs(cfg.Obs)
	if err := e.setup(); err != nil {
		return e.res, err
	}
	defer e.Disp.Close()
	defer func() { _ = e.cl.Close() }()

	_, err := e.k.Every(tick, func() bool {
		if e.err != nil {
			return false
		}
		e.res.Events++
		e.step()
		return e.err == nil && e.res.Events < e.cfg.Events
	})
	if err != nil {
		return e.res, err
	}
	e.k.Run() // drains the schedule plus every pending old-LocIP release
	if e.err != nil {
		return e.res, e.err
	}
	e.finish()
	if e.err == nil {
		e.res.Mem = e.Disp.MemStats()
	}
	return e.res, e.err
}

func (e *engine) setup() error {
	p, err := plant.New(plant.Spec{
		Topo:   topo.GenParams{K: genK, ClusterSize: e.cfg.ClusterSize, MBTypes: 3, Seed: e.cfg.Seed},
		Shards: e.cfg.Shards,
		Obs:    e.cfg.Obs,
	})
	if err != nil {
		return err
	}
	e.Plant = p
	for _, pod := range p.Topo.PodSwitch {
		e.swPool = append(e.swPool, pod...)
	}
	e.swPool = append(e.swPool, p.Topo.CoreSwitch...)
	e.connect()

	for i := 0; i < e.cfg.UEs; i++ {
		imsi := fmt.Sprintf("imsi-%03d", i)
		e.imsis = append(e.imsis, imsi)
		if err := e.Disp.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
			return err
		}
		bs := e.Stations[e.rng.Intn(len(e.Stations))]
		ue, _, err := e.Disp.Attach(imsi, bs)
		if err != nil {
			return fmt.Errorf("chaos: seeding attach %s at bs %d: %w", imsi, bs, err)
		}
		e.sawPerm(imsi, ue.PermIP)
		e.trace("seed attach %s bs=%d loc=%s", imsi, bs, ue.LocIP)
	}
	e.check("setup")
	return e.err
}

// connect (re)builds the faulty control channel: a fresh connection to the
// plant's server, with the client side wrapped in the fault injector.
func (e *engine) connect() {
	e.wireMu.Lock()
	e.seen = make(map[uint32]bool) // request ids restart with the connection
	e.wireMu.Unlock()
	e.cl = e.Dial(func(c net.Conn) net.Conn { return ctrlproto.NewFaultyConn(c, e.decide) })
	e.cl.Timeout = retryTimeout
	e.cl.Attempts = retryAttempts
}

// decide is the wire fault schedule. It runs on the connection's writer
// goroutine, so everything it touches sits behind wireMu.
func (e *engine) decide(info ctrlproto.FrameInfo) ctrlproto.FaultAction {
	e.wireMu.Lock()
	defer e.wireMu.Unlock()
	if e.seen[info.ReqID] {
		return ctrlproto.FaultDeliver // retransmission: already judged
	}
	e.seen[info.ReqID] = true
	if e.barrier {
		return ctrlproto.FaultDeliver // barrier traffic is never faulted
	}
	e.res.Faults.WireFrames++
	if e.wireRNG.Float64() >= e.cfg.WireFaultRate {
		return ctrlproto.FaultDeliver
	}
	e.res.Faults.WireFaulted++
	switch e.wireRNG.Intn(3) {
	case 0:
		return ctrlproto.FaultDrop
	case 1:
		return ctrlproto.FaultDuplicate
	default:
		return ctrlproto.FaultHold
	}
}

func (e *engine) setBarrier(on bool) {
	e.wireMu.Lock()
	e.barrier = on
	e.wireMu.Unlock()
}

// drainWire sends a never-faulted Echo. The server answers frames in
// order, so the reply proves every earlier frame — including duplicates the
// injector manufactured — has been fully processed. Every wire operation
// ends with one, which is what keeps the schedule's view of controller
// state independent of retransmission timing.
func (e *engine) drainWire() {
	e.setBarrier(true)
	_, err := e.cl.Echo([]byte("barrier"))
	e.setBarrier(false)
	if err != nil {
		e.fail(fmt.Errorf("chaos: wire barrier: %w", err))
	}
}

func (e *engine) trace(format string, args ...any) {
	if e.cfg.Trace == nil {
		return
	}
	fmt.Fprintf(e.cfg.Trace, "t=%d ev=%d ", int64(e.k.Now()), e.res.Events)
	fmt.Fprintf(e.cfg.Trace, format, args...)
	fmt.Fprintln(e.cfg.Trace)
}

func (e *engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.trace("FATAL %v", err)
}

// sawPerm holds a subscriber to the permanent address it was first seen
// under: no detach, re-attach, migration or shard failure may change it.
func (e *engine) sawPerm(imsi string, perm packet.Addr) {
	if first, seen := e.perms[imsi]; seen && first != perm {
		e.fail(fmt.Errorf("chaos: %s was first seen under permanent address %s and is now under %s", imsi, first, perm))
		return
	}
	e.perms[imsi] = perm
}

// recordsAreAttached is the engine's own statement that a detached UE has
// no record anywhere: every record a live shard holds has a location.
func (e *engine) recordsAreAttached() error {
	for _, s := range e.Disp.Shards() {
		if s.Down() {
			continue
		}
		ues := s.Ctrl.UEs()
		attached := 0
		for _, ue := range ues {
			if ue.LocIP != 0 {
				attached++
			}
		}
		if attached != len(ues) {
			return fmt.Errorf("shard %d holds %d UE records for %d attached UEs", s.ID, len(ues), attached)
		}
	}
	return nil
}

// check runs the cross-layer invariant checker, then recordsAreAttached, and
// aborts the run on the first violation.
func (e *engine) check(label string) {
	rep, err := e.Disp.CheckInvariants()
	e.res.Checks++
	e.res.Final = rep
	if err == nil {
		err = e.recordsAreAttached()
	}
	if err != nil {
		e.fail(fmt.Errorf("chaos: invariants after %s: %w", label, err))
		return
	}
	e.obs.checks.Inc()
	e.trace("check %s shards=%d paths=%d rules=%d attached=%d resv=%d",
		label, rep.Shards, rep.Paths, rep.Rules, rep.Attached, rep.Reservations)
}

// step executes one scheduled event, weighted by the mix.
func (e *engine) step() {
	m := e.cfg.Mix
	weighted := []struct {
		w  int
		fn func()
	}{
		{m.Workload, e.workload},
		{m.SwitchFault, e.switchFault},
		{m.ShardKill, e.shardKill},
		{m.AgentRestart, e.agentRestart},
		{m.DetachMidHandoff, func() { e.handoff(true) }},
		{m.PolicyChurn, e.policyChurn},
	}
	total := 0
	for _, w := range weighted {
		total += w.w
	}
	r := e.rng.Intn(total)
	for _, w := range weighted {
		if r < w.w {
			w.fn()
			return
		}
		r -= w.w
	}
}

func (e *engine) workload() {
	e.res.Ops++
	switch e.rng.Intn(6) {
	case 0:
		e.attachToggle()
	case 1:
		e.handoff(false)
	case 2:
		e.wirePath()
	case 3:
		e.wireResolve()
	case 4:
		e.wireEcho()
	default:
		e.directPath()
	}
	if e.res.Events%checkEvery == 0 {
		e.check("periodic")
	}
}

// pickUE scans the population from a seeded offset for a UE in the wanted
// attachment state.
func (e *engine) pickUE(wantAttached bool) (string, core.UE, bool) {
	start := e.rng.Intn(len(e.imsis))
	for i := 0; i < len(e.imsis); i++ {
		imsi := e.imsis[(start+i)%len(e.imsis)]
		ue, ok := e.Disp.LookupUE(imsi)
		if (ok && ue.LocIP != 0) == wantAttached {
			return imsi, ue, true
		}
	}
	return "", core.UE{}, false
}

func (e *engine) attachToggle() {
	imsi := e.imsis[e.rng.Intn(len(e.imsis))]
	ue, ok := e.Disp.LookupUE(imsi)
	if ok && ue.LocIP != 0 {
		err := e.Disp.Detach(imsi)
		e.countErr(err)
		e.trace("detach %s err=%v", imsi, err)
		return
	}
	bs := e.Stations[e.rng.Intn(len(e.Stations))]
	got, _, err := e.Disp.Attach(imsi, bs)
	e.countErr(err)
	if err == nil {
		e.sawPerm(imsi, got.PermIP)
	}
	e.trace("attach %s bs=%d loc=%s err=%v", imsi, bs, got.LocIP, err)
}

// handoff moves an attached UE; when detach is set it detaches immediately
// afterwards, racing the scheduled old-LocIP release against teardown. The
// release is scheduled only for same-shard handoffs — a cross-shard move
// tears the old location down with the migration and leaves no reservation.
func (e *engine) handoff(detach bool) {
	if detach {
		e.res.Ops++
		e.res.Faults.DetachMidHandoff++
		e.obs.fault(kindDetachMidHandoff, -1)
	}
	imsi, ue, ok := e.pickUE(true)
	if !ok {
		e.trace("handoff skip: nothing attached")
		return
	}
	newBS := e.Stations[e.rng.Intn(len(e.Stations))]
	if newBS == ue.BS {
		newBS = e.Stations[(int(newBS)+1)%len(e.Stations)]
	}
	ring := e.Disp.Ring()
	oldOwner, _ := ring.Owner(ue.BS)
	newOwner, _ := ring.Owner(newBS)
	res, err := e.Disp.Handoff(imsi, newBS)
	e.countErr(err)
	if err == nil {
		e.sawPerm(imsi, res.UE.PermIP)
	}
	e.trace("handoff %s bs %d->%d sameShard=%v oldLoc=%s err=%v",
		imsi, ue.BS, newBS, oldOwner == newOwner, res.OldLocIP, err)
	if err == nil && oldOwner == newOwner && res.OldLocIP != 0 {
		s := e.Disp.Shard(newOwner)
		oldLoc, shortcuts := res.OldLocIP, res.Shortcuts
		delay := sim.Time(e.rng.Int63n(int64(40*tick))) + 1
		e.k.After(delay, func() {
			if s.Down() {
				e.trace("release %s skipped: shard %d down", oldLoc, s.ID)
				return
			}
			s.Ctrl.ReleaseOldLocIP(oldLoc, shortcuts)
			e.res.Releases++
			e.trace("release %s shard=%d", oldLoc, s.ID)
		})
	}
	if detach {
		derr := e.Disp.Detach(imsi)
		e.countErr(derr)
		e.trace("detach-mid-handoff %s err=%v", imsi, derr)
		e.check("detach-mid-handoff")
	}
}

func (e *engine) wirePath() {
	bs := e.Stations[e.rng.Intn(len(e.Stations))]
	clause := e.Clauses[e.rng.Intn(len(e.Clauses))]
	tag, err := e.cl.RequestPath(bs, clause)
	e.drainWire()
	e.countErr(err)
	e.trace("wire-path bs=%d clause=%d tag=%d err=%v", bs, clause, tag, err)
	if err != nil {
		return
	}
	if owner, ok := e.Disp.Ring().Owner(bs); ok && int(tag)%e.cfg.Shards != owner {
		e.fail(fmt.Errorf("chaos: station %d tag %d outside shard %d's residue class", bs, tag, owner))
	}
}

func (e *engine) wireResolve() {
	imsi := e.imsis[e.rng.Intn(len(e.imsis))]
	perm := e.perms[imsi]
	want, ok := e.Disp.LookupUE(imsi)
	loc, err := e.cl.ResolveLocIP(perm)
	e.drainWire()
	e.countErr(err)
	e.trace("wire-resolve %s perm=%s loc=%s err=%v", imsi, perm, loc, err)
	if err == nil && ok && want.PermIP == perm && want.LocIP != 0 && loc != want.LocIP {
		e.fail(fmt.Errorf("chaos: resolve %s returned %s, controller holds %s", perm, loc, want.LocIP))
	}
}

func (e *engine) wireEcho() {
	payload := fmt.Sprintf("probe-%d", e.rng.Int63())
	got, err := e.cl.Echo([]byte(payload))
	e.drainWire()
	e.countErr(err)
	if err == nil && string(got) != payload {
		e.fail(fmt.Errorf("chaos: echo answered %q to %q", got, payload))
	}
	e.trace("wire-echo err=%v", err)
}

func (e *engine) directPath() {
	bs := e.Stations[e.rng.Intn(len(e.Stations))]
	clause := e.Clauses[e.rng.Intn(len(e.Clauses))]
	tag, err := e.Disp.RequestPath(bs, clause)
	e.countErr(err)
	e.trace("path bs=%d clause=%d tag=%d err=%v", bs, clause, tag, err)
	if err == nil {
		if owner, ok := e.Disp.Ring().Owner(bs); ok && int(tag)%e.cfg.Shards != owner {
			e.fail(fmt.Errorf("chaos: station %d tag %d outside shard %d's residue class", bs, tag, owner))
		}
	}
}

// switchFault fails a random aggregation/core switch, or recovers one when
// the budget of concurrently-down switches is spent (or a coin says so).
// Every live shard replans: the topology is shared, the forwarding state is
// not.
func (e *engine) switchFault() {
	if len(e.downSw) > 0 && (len(e.downSw) >= maxDownSw || e.rng.Intn(2) == 0) {
		i := e.rng.Intn(len(e.downSw))
		n := e.downSw[i]
		e.downSw = append(e.downSw[:i], e.downSw[i+1:]...)
		e.recoverSwitch(n)
		e.check("switch-recover")
		return
	}
	candidates := make([]topo.NodeID, 0, len(e.swPool))
	for _, n := range e.swPool {
		if !e.Topo.Down(n) {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		e.trace("switch-fail skip: pool exhausted")
		return
	}
	n := candidates[e.rng.Intn(len(candidates))]
	e.downSw = append(e.downSw, n)
	e.res.Faults.SwitchFail++
	e.obs.fault(kindSwitchFail, int64(n))
	for _, s := range e.Disp.Shards() {
		if s.Down() {
			continue
		}
		rep, err := s.Ctrl.FailSwitch(n)
		// "installed no paths" just means every path this shard had ran
		// through the dead switch and nothing was replannable; state stays
		// consistent and paths reinstall on demand.
		e.trace("switch-fail sw=%d shard=%d recomputed=%d unreachable=%d err=%v",
			n, s.ID, rep.Recomputed, rep.Unreachable, err)
	}
	e.check("switch-fail")
}

func (e *engine) recoverSwitch(n topo.NodeID) {
	e.res.Faults.SwitchRecover++
	e.obs.fault(kindSwitchRecover, int64(n))
	for _, s := range e.Disp.Shards() {
		if s.Down() {
			continue
		}
		rep, err := s.Ctrl.RecoverSwitch(n)
		e.trace("switch-recover sw=%d shard=%d recomputed=%d err=%v", n, s.ID, rep.Recomputed, err)
	}
}

// shardKill picks a victim shard and fails it over. Agent reports, the one
// §5.2 recovery source, cover a seeded ~70% of the victim's attached UEs;
// the rest model agents that did not answer, and must come back lost —
// detached, found nowhere, their addresses kept for the next attach (which
// sawPerm checks).
func (e *engine) shardKill() {
	var live []*shard.Shard
	for _, s := range e.Disp.Shards() {
		if !s.Down() {
			live = append(live, s)
		}
	}
	if len(live) < 2 {
		e.trace("shard-kill skip: %d live", len(live))
		e.workload() // keep the schedule length useful
		return
	}
	victim := live[e.rng.Intn(len(live))]
	byBS := make(map[packet.BSID][]core.UE)
	var silent []string
	for _, ue := range victim.Ctrl.UEs() { // sorted by IMSI: stable RNG use
		if e.rng.Float64() < 0.7 {
			byBS[ue.BS] = append(byBS[ue.BS], ue)
		} else {
			silent = append(silent, ue.IMSI)
		}
	}
	stations := make([]int, 0, len(byBS))
	for bs := range byBS {
		stations = append(stations, int(bs))
	}
	sort.Ints(stations)
	reports := make([]core.AgentLocationReport, 0, len(stations))
	for _, bs := range stations {
		reports = append(reports, core.AgentLocationReport{BS: packet.BSID(bs), UEs: byBS[packet.BSID(bs)]})
	}
	rep, err := e.Disp.FailShard(victim.ID, reports)
	if err != nil {
		e.fail(fmt.Errorf("chaos: failing shard %d: %w", victim.ID, err))
		return
	}
	e.res.Faults.ShardKill++
	e.obs.fault(kindShardKill, int64(victim.ID))
	e.trace("shard-kill id=%d reports=%d %s", victim.ID, len(reports), rep)
	if rep.Lost != len(silent) {
		e.fail(fmt.Errorf("chaos: shard %d's failover lost %d UEs; %d went unreported", victim.ID, rep.Lost, len(silent)))
		return
	}
	for _, imsi := range silent {
		if ue, ok := e.Disp.LookupUE(imsi); ok {
			e.fail(fmt.Errorf("chaos: %s went unreported when shard %d failed, yet is found at station %d", imsi, victim.ID, ue.BS))
			return
		}
	}
	e.check("shard-kill")
}

// agentRestart tears down the control channel (dropping any held frames)
// and reconnects, re-announcing a base station like a rebooted local agent.
func (e *engine) agentRestart() {
	_ = e.cl.Close()
	e.connect()
	bs := e.Stations[e.rng.Intn(len(e.Stations))]
	e.setBarrier(true)
	err := e.cl.Hello(bs)
	e.setBarrier(false)
	if err != nil {
		e.fail(fmt.Errorf("chaos: hello after agent restart: %w", err))
		return
	}
	e.res.Faults.AgentRestart++
	e.obs.fault(kindAgentRestart, int64(bs))
	e.trace("agent-restart hello bs=%d", bs)
	e.check("agent-restart")
}

// policyChurn withdraws one allow clause's paths on every live shard; later
// path requests reinstall them.
func (e *engine) policyChurn() {
	clause := e.Clauses[e.rng.Intn(len(e.Clauses))]
	for _, s := range e.Disp.Shards() {
		if s.Down() {
			continue
		}
		err := s.Ctrl.RemovePolicyPaths(clause)
		e.trace("policy-churn clause=%d shard=%d err=%v", clause, s.ID, err)
	}
	e.res.Faults.PolicyChurn++
	e.obs.fault(kindPolicyChurn, int64(clause))
	e.check("policy-churn")
}

// finish recovers every switch, sweeps a path request over every (station,
// clause) pair, and runs the checker twice: once to prove the system
// converged (no reservation survives its release), once after the sweep to
// prove full reinstallation stays consistent.
func (e *engine) finish() {
	for _, n := range e.downSw {
		e.recoverSwitch(n)
	}
	e.downSw = nil
	e.check("final-recovery")
	if e.err != nil {
		return
	}
	if e.res.Final.Reservations != 0 {
		e.fail(fmt.Errorf("chaos: %d reservations survived quiescence", e.res.Final.Reservations))
		return
	}
	for _, bs := range e.Stations {
		for _, clause := range e.Clauses {
			tag, err := e.Disp.RequestPath(bs, clause)
			if err != nil {
				e.fail(fmt.Errorf("chaos: final sweep bs=%d clause=%d: %w", bs, clause, err))
				return
			}
			if owner, ok := e.Disp.Ring().Owner(bs); ok && int(tag)%e.cfg.Shards != owner {
				e.fail(fmt.Errorf("chaos: final sweep bs=%d tag %d outside shard %d's residue class", bs, tag, owner))
				return
			}
		}
	}
	e.check("final-sweep")
}

func (e *engine) countErr(err error) {
	if err != nil {
		e.res.OpErrors++
	}
}
