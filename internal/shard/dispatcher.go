package shard

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/topo"
)

// Config parameterises New. Topology, Gateway and Policy are required.
type Config struct {
	Topology *topo.Topology
	Gateway  topo.NodeID
	Policy   *policy.Policy
	MBTypes  map[string]topo.MBType

	// Shards is the partition width (default 1).
	Shards int
	// QueueLen bounds the operations inside each shard at once (default
	// 1024): admission sheds against this occupancy, and at the bound a
	// caller blocks until another finishes instead of piling on.
	QueueLen int

	// Plan defaults to packet.DefaultPlan. PermPool (default
	// 100.64.0.0/10) is carved into one disjoint sub-block per shard.
	Plan     packet.Plan
	PermPool packet.Prefix
	// Replicas per store, shard or subscriber table (default 2, so a
	// replica survives the shard process and failover can rebuild from it).
	Replicas int
	// Install passes installer options through; each shard's TagOffset and
	// TagStride are overwritten with its partition coordinates.
	Install core.InstallerOptions

	// Admission configures per-shard overload protection (class-based load
	// shedding, per-station token buckets, circuit breakers). The zero
	// value disables all of it.
	Admission Admission

	// Obs, when non-nil, registers dispatcher-wide telemetry (cross-shard
	// handoff latency, failover events) plus per-shard occupancy metrics and
	// controller instrumentation under "shard.<id>" sub-views. nil runs
	// uninstrumented.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.PermPool == (packet.Prefix{}) {
		c.PermPool = packet.NewPrefix(packet.AddrFrom4(100, 64, 0, 0), 10)
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	return c
}

// subPool carves the i-th of n disjoint sub-blocks out of pool.
func subPool(pool packet.Prefix, i, n int) (packet.Prefix, error) {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if pool.Len+bits > 30 {
		return packet.Prefix{}, fmt.Errorf("shard: permanent pool %s too small for %d shards", pool, n)
	}
	addr := pool.Addr | packet.Addr(uint32(i)<<(32-pool.Len-bits))
	return packet.NewPrefix(addr, pool.Len+bits), nil
}

// ueEntry tracks which shard currently holds one UE's record. Its mutex
// serialises every UE-keyed operation (attach, handoff, detach), and
// doubles as the forwarding stub during a cross-shard migration: a request
// arriving mid-migration blocks on the entry until the move commits, then
// follows the updated pointer to the target shard.
type ueEntry struct {
	mu    sync.Mutex
	shard *Shard // guarded by mu
}

// Dispatcher fronts a set of controller shards: it routes base-station-
// keyed requests through the consistent-hash ring and UE-keyed requests
// through its UE directory, and owns the cross-shard handoff and failover
// protocols. Every shard admits from its one subscriber table, which
// outlives any shard: failover has no subscribers to salvage. Every
// operation runs on the caller's goroutine, from here through the owning
// Shard into its core.Controller. The hot path (RequestPath) touches no
// dispatcher-wide lock — only an atomic ring snapshot and the owning
// shard's slot semaphore.
//
// lock ordering: failMu, mu — and, because one goroutine carries an
// operation all the way down, across types: ueEntry.mu is held over
// Dispatcher.mu (setPerm) and over the owning controller's
// ueMu → allocMu → ruleMu → core.Subscribers.mu; failMu is held over all
// of them. Nothing below ever reaches back up for a dispatcher lock.
type Dispatcher struct {
	cfg    Config
	shards []*Shard          // indexed by shard id; entries outlive failure
	subs   *core.Subscribers // the one subscriber table, shared by every shard
	ring   atomic.Value      // *Ring

	mu     sync.RWMutex
	ues    map[string]*ueEntry    // guarded by mu
	byPerm map[packet.Addr]string // guarded by mu

	failMu sync.Mutex // serialises failovers

	obs dispObs
}

// New builds the ring, partitions the topology's stations, and builds one
// restricted controller per shard.
func New(cfg Config) (*Dispatcher, error) {
	cfg = cfg.withDefaults()
	if cfg.Topology == nil {
		return nil, fmt.Errorf("shard: Config.Topology is required")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("shard: Config.Policy is required")
	}
	ids := make([]int, cfg.Shards)
	for i := range ids {
		ids[i] = i
	}
	ring := NewRing(DefaultVNodes, ids...)
	stations := make([]packet.BSID, 0, len(cfg.Topology.Stations))
	for _, st := range cfg.Topology.Stations {
		stations = append(stations, st.ID)
	}
	part, err := ring.Partition(stations)
	if err != nil {
		return nil, err
	}
	d := &Dispatcher{
		cfg:    cfg,
		shards: make([]*Shard, cfg.Shards),
		subs:   core.NewSubscribers(store.New(cfg.Replicas)),
		ues:    make(map[string]*ueEntry),
		byPerm: make(map[packet.Addr]string),
		obs:    newDispObs(cfg.Obs),
	}
	d.ring.Store(ring)
	for _, id := range ids {
		pool, err := subPool(cfg.PermPool, id, cfg.Shards)
		if err != nil {
			return nil, err
		}
		install := cfg.Install
		install.TagOffset, install.TagStride = id, cfg.Shards
		owned := part[id]
		if owned == nil {
			owned = []packet.BSID{} // non-nil: restricted to nothing rather than everything
		}
		var sub *obs.Registry
		if cfg.Obs != nil {
			sub = cfg.Obs.Sub("shard." + strconv.Itoa(id))
		}
		ctrl, err := core.NewController(cfg.Topology, core.ControllerConfig{
			Plan:        cfg.Plan,
			Gateway:     cfg.Gateway,
			Policy:      cfg.Policy,
			MBTypes:     cfg.MBTypes,
			Replicas:    cfg.Replicas,
			PermPool:    pool,
			Stations:    owned,
			Install:     install,
			Subscribers: d.subs,
			Obs:         sub,
		})
		if err != nil {
			return nil, err
		}
		adm := newAdmission(cfg.Admission, newAdmObs(cfg.Obs, id))
		d.shards[id] = newShard(id, ctrl, owned, cfg.QueueLen, newShardObs(cfg.Obs, id), adm)
	}
	return d, nil
}

// Ring returns the current ring snapshot.
func (d *Dispatcher) Ring() *Ring { return d.ring.Load().(*Ring) }

// Shards returns every shard ever started, including failed ones (check
// Down); index equals shard id.
func (d *Dispatcher) Shards() []*Shard { return d.shards }

// Shard returns the shard with the given id.
func (d *Dispatcher) Shard(id int) *Shard { return d.shards[id] }

// ShardOf resolves the shard currently owning a base station.
func (d *Dispatcher) ShardOf(bs packet.BSID) (*Shard, error) {
	id, ok := d.Ring().Owner(bs)
	if !ok {
		return nil, fmt.Errorf("shard: no live shards")
	}
	return d.shards[id], nil
}

// MemStats aggregates the subscriber table's and every live shard's
// controller memory accounting into one fleet-wide snapshot
// (core.MemStats.Add). Down shards are skipped: their slabs are
// unreachable and awaiting collection, not part of the serving footprint.
// Each per-shard snapshot also refreshes that shard's core.mem.* gauges.
func (d *Dispatcher) MemStats() core.MemStats {
	ms := d.subs.MemStats()
	for _, s := range d.shards {
		if s.Down() {
			continue
		}
		ms.Add(s.Ctrl.MemStats())
	}
	return ms
}

// Served reports per-shard completed-request counts, indexed by shard id.
func (d *Dispatcher) Served() []uint64 {
	out := make([]uint64, len(d.shards))
	for i, s := range d.shards {
		out[i] = s.Served()
	}
	return out
}

// RegisterSubscriber loads one subscriber record into the shared table.
func (d *Dispatcher) RegisterSubscriber(imsi string, attr policy.Attributes) error {
	return d.subs.Register(imsi, attr)
}

// RequestPath resolves a policy path on the owning shard, in the caller's
// goroutine — the sharded hot path: ring lookup, admission, a slot, then
// core.Controller.RequestPathCtx (a lock-free tag-cache read when the
// path is already installed). As an in-process entry point it makes the
// trace root-sampling decision (one request in every
// Registry.SetSpanSampling period); wire-originated requests come through
// RequestPathCtx instead and join their frame's trace.
func (d *Dispatcher) RequestPath(bs packet.BSID, clause int) (packet.Tag, error) {
	sp := d.obs.spPath.Root()
	tag, err := d.requestPath(sp.Context(), bs, clause)
	sp.End()
	return tag, err
}

// RequestPathCtx is RequestPath continuing the caller's trace (it makes
// no sampling decision of its own). With the zero context it behaves
// exactly like an unsampled RequestPath.
func (d *Dispatcher) RequestPathCtx(sc obs.SpanContext, bs packet.BSID, clause int) (packet.Tag, error) {
	sp := d.obs.spPath.Start(sc)
	tag, err := d.requestPath(sp.Context(), bs, clause)
	sp.End()
	return tag, err
}

// requestPath routes one path request, retrying once when it was caught
// by a concurrent failover (a dead shard, or its tripped breaker failing
// fast) against the fresh ring.
func (d *Dispatcher) requestPath(sc obs.SpanContext, bs packet.BSID, clause int) (packet.Tag, error) {
	for attempt := 0; ; attempt++ {
		s, err := d.ShardOf(bs)
		if err != nil {
			return 0, err
		}
		tag, err := s.requestPath(sc, bs, clause)
		if attempt == 0 && (errors.Is(err, ErrShardDown) || errors.Is(err, ErrCircuitOpen)) {
			continue
		}
		return tag, err
	}
}

// AgentView exports the owning shard's snapshot of one base station's
// agent state (core.Controller.AgentView, which takes the controller's
// locks, so the export is consistent with the mutations it snapshots). It
// is the source of the versioned LKG snapshots pushed to agents; as
// protocol-internal work it bypasses admission control.
func (d *Dispatcher) AgentView(bs packet.BSID) (core.AgentView, error) {
	for attempt := 0; ; attempt++ {
		s, err := d.ShardOf(bs)
		if err != nil {
			return core.AgentView{}, err
		}
		view, err := s.agentView(bs)
		if attempt == 0 && errors.Is(err, ErrShardDown) {
			continue
		}
		return view, err
	}
}

// entry returns (creating if needed) the directory entry for a UE.
func (d *Dispatcher) entry(imsi string) *ueEntry {
	d.mu.RLock()
	e := d.ues[imsi]
	d.mu.RUnlock()
	if e != nil {
		return e
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e = d.ues[imsi]; e == nil {
		e = &ueEntry{}
		d.ues[imsi] = e
	}
	return e
}

func (d *Dispatcher) lookupEntry(imsi string) (*ueEntry, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.ues[imsi]
	return e, ok
}

func (d *Dispatcher) setPerm(perm packet.Addr, imsi string) {
	d.mu.Lock()
	d.byPerm[perm] = imsi
	d.mu.Unlock()
}

// Attach admits a UE at a base station, routing to the station's owner.
// When the UE's record lives on a different shard (a previous attach or a
// detached record), it is migrated first so the permanent IP survives.
// Like RequestPath, the in-process entry point makes the root-sampling
// decision; AttachCtx joins an existing trace.
func (d *Dispatcher) Attach(imsi string, bs packet.BSID) (core.UE, []core.Classifier, error) {
	sp := d.obs.spAttach.Root()
	ue, cls, err := d.attach(sp.Context(), imsi, bs)
	sp.End()
	return ue, cls, err
}

// AttachCtx is Attach continuing the caller's trace.
func (d *Dispatcher) AttachCtx(sc obs.SpanContext, imsi string, bs packet.BSID) (core.UE, []core.Classifier, error) {
	sp := d.obs.spAttach.Start(sc)
	ue, cls, err := d.attach(sp.Context(), imsi, bs)
	sp.End()
	return ue, cls, err
}

func (d *Dispatcher) attach(sc obs.SpanContext, imsi string, bs packet.BSID) (core.UE, []core.Classifier, error) {
	target, err := d.ShardOf(bs)
	if err != nil {
		return core.UE{}, nil, err
	}
	e := d.entry(imsi)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.shard != nil && e.shard != target && !e.shard.Down() {
		mig, err := e.shard.extract(sc, imsi)
		if err != nil {
			return core.UE{}, nil, err
		}
		ue, cls, err := d.adopt(sc, target, mig, bs)
		if err != nil {
			return core.UE{}, nil, err
		}
		e.shard = target
		return ue, cls, nil
	}
	ue, cls, err := target.attach(sc, imsi, bs)
	if err != nil {
		return core.UE{}, nil, err
	}
	e.shard = target
	d.setPerm(ue.PermIP, imsi)
	return ue, cls, nil
}

// Detach releases a UE's location state on its current shard (the record
// and its permanent IP stay there, as in the single-controller core).
func (d *Dispatcher) Detach(imsi string) error {
	e, ok := d.lookupEntry(imsi)
	if !ok {
		return fmt.Errorf("shard: unknown UE %q", imsi)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.shard == nil {
		return fmt.Errorf("shard: UE %q has no shard", imsi)
	}
	return e.shard.detach(imsi)
}

// LookupUE resolves a UE's record from whichever live shard holds it (a
// detached record stranded on a failed shard is gone, not stale).
func (d *Dispatcher) LookupUE(imsi string) (core.UE, bool) {
	e, ok := d.lookupEntry(imsi)
	if !ok {
		return core.UE{}, false
	}
	e.mu.Lock()
	s := e.shard
	e.mu.Unlock()
	if s == nil || s.Down() {
		return core.UE{}, false
	}
	return s.Ctrl.LookupUE(imsi)
}

// ResolveLocIP translates a permanent address to the UE's current LocIP.
func (d *Dispatcher) ResolveLocIP(perm packet.Addr) (packet.Addr, error) {
	d.mu.RLock()
	imsi, ok := d.byPerm[perm]
	var e *ueEntry
	if ok {
		e = d.ues[imsi]
	}
	d.mu.RUnlock()
	if !ok || e == nil {
		return 0, fmt.Errorf("shard: no UE with permanent address %s", perm)
	}
	e.mu.Lock()
	s := e.shard
	e.mu.Unlock()
	if s == nil {
		return 0, fmt.Errorf("shard: UE %q has no shard", imsi)
	}
	return s.resolveLocIP(perm)
}

// RecoverLocations rebuilds UE-location state across the shards from live
// agents' reports (§5.2), routing each station's report to its owner.
func (d *Dispatcher) RecoverLocations(reports []core.AgentLocationReport) error {
	byShard := make(map[*Shard][]core.AgentLocationReport)
	for _, rep := range reports {
		s, err := d.ShardOf(rep.BS)
		if err != nil {
			return err
		}
		byShard[s] = append(byShard[s], rep)
	}
	for s, reps := range byShard {
		if err := s.recoverLocations(reps); err != nil {
			return err
		}
		for _, rep := range reps {
			for _, u := range rep.UEs {
				e := d.entry(u.IMSI)
				e.mu.Lock()
				e.shard = s
				e.mu.Unlock()
				d.setPerm(u.PermIP, u.IMSI)
			}
		}
	}
	return nil
}

// adopt runs phase two of a migration on the target shard and indexes the
// UE's permanent address.
func (d *Dispatcher) adopt(sc obs.SpanContext, s *Shard, mig core.MigratedUE, bs packet.BSID) (core.UE, []core.Classifier, error) {
	ue, cls, err := s.adopt(sc, mig, bs)
	if err == nil {
		d.setPerm(ue.PermIP, mig.IMSI)
	}
	return ue, cls, err
}

// Close stops every shard: it waits for the operations still inside and
// refuses later ones with ErrShardDown.
func (d *Dispatcher) Close() {
	for _, s := range d.shards {
		s.close()
	}
}
