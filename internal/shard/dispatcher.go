package shard

import (
	"errors"
	"fmt"
	"hash/maphash"
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
	// 100.64.0.0/10) is the one block the subscriber table binds permanent
	// addresses from, whichever shard serves the attach.
	Plan     packet.Plan
	PermPool packet.Prefix
	// Replicas per store, shard or subscriber table (default 2).
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
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	return c
}

// ueStripes is how many locks serialise UE-keyed operations; an IMSI always
// hashes to the same one.
const ueStripes = 1024

// ueStripe is one of them. Holding it serialises every UE-keyed operation
// (attach, handoff, detach) on the IMSIs that hash to it, and makes it the
// forwarding stub during a cross-shard migration: a request arriving
// mid-migration blocks on the stripe until the move commits, then reads the
// subscriber table's updated holder and goes to the target shard.
type ueStripe struct {
	mu sync.Mutex
}

var stripeSeed = maphash.MakeSeed()

// Dispatcher fronts a set of controller shards: it routes base-station-
// keyed requests through the consistent-hash ring and UE-keyed requests to
// the holder the subscriber table names, and owns the cross-shard handoff
// and failover protocols. Every shard admits from its one subscriber table,
// which outlives any shard: failover rebuilds locations from agents and has
// no subscribers to salvage, and a permanent address outlives the shard that
// served it. Every operation runs
// on the caller's goroutine, from here through the owning Shard into its
// core.Controller. The hot path (RequestPath) touches no dispatcher-wide
// lock — only an atomic ring snapshot and the owning shard's slot semaphore.
//
// Lock order, across types because one goroutine carries an operation all
// the way down: a UE-keyed operation holds its ueStripe.mu over the owning
// controller's ueMu → ruleMu → core.Subscribers.mu; a failover
// holds failMu over the same controller chain. A stripe and failMu are never
// held together, no operation holds two stripes, and nothing below ever
// reaches back up for a dispatcher lock.
type Dispatcher struct {
	cfg    Config
	shards []*Shard          // indexed by shard id; entries outlive failure
	subs   *core.Subscribers // the one subscriber table, shared by every shard
	ring   atomic.Value      // *Ring

	stripes [ueStripes]ueStripe
	failMu  sync.Mutex // serialises failovers

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
		subs:   core.NewSubscribers(store.New(cfg.Replicas), cfg.PermPool),
		obs:    newDispObs(cfg.Obs),
	}
	d.ring.Store(ring)
	for _, id := range ids {
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
			Stations:    owned,
			Install:     install,
			Subscribers: d.subs,
			Obs:         sub,
		})
		if err != nil {
			return nil, err
		}
		if ctrl.Instance() != id+1 {
			return nil, fmt.Errorf("shard: shard %d's controller joined the subscriber table as instance %d", id, ctrl.Instance())
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

// stripe returns the lock that serialises UE-keyed operations on imsi.
func (d *Dispatcher) stripe(imsi string) *ueStripe {
	return &d.stripes[maphash.String(stripeSeed, imsi)%ueStripes]
}

// holder resolves the shard holding a UE's location record, from the
// subscriber table's holder mark (shard id + 1, the order New built the
// controllers in); nil when the UE is detached. Only a failover in progress
// leaves a mark naming a dead shard, whose operations refuse with
// ErrShardDown. A caller about to act on the answer holds the UE's stripe.
func (d *Dispatcher) holder(imsi string) *Shard {
	if h := d.subs.Holder(imsi); h != 0 {
		return d.shards[h-1]
	}
	return nil
}

// Attach admits a UE at a base station, routing to the station's owner. A
// UE still attached through a different shard is migrated from it; a
// detached one has no record anywhere and attaches like a new one, under
// the permanent IP the subscriber table keeps for it.
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
	st := d.stripe(imsi)
	st.mu.Lock()
	defer st.mu.Unlock()
	if src := d.holder(imsi); src != nil && src != target {
		mig, err := src.extract(sc, imsi)
		if err != nil {
			return core.UE{}, nil, err
		}
		return target.adopt(sc, mig, bs)
	}
	return target.attach(sc, imsi, bs)
}

// Detach removes a UE's location record from the shard holding it; its
// permanent IP stays bound in the subscriber table.
func (d *Dispatcher) Detach(imsi string) error {
	st := d.stripe(imsi)
	st.mu.Lock()
	defer st.mu.Unlock()
	s := d.holder(imsi)
	if s == nil {
		return fmt.Errorf("shard: UE %q is %w", imsi, core.ErrNotAttached)
	}
	return s.detach(imsi)
}

// committedHolder reads a UE's holder once any migration of it in flight
// has committed.
func (d *Dispatcher) committedHolder(imsi string) *Shard {
	st := d.stripe(imsi)
	st.mu.Lock()
	defer st.mu.Unlock()
	return d.holder(imsi)
}

// LookupUE resolves an attached UE's record from the live shard holding it
// (a dead holder's record is being rebuilt elsewhere or lost).
func (d *Dispatcher) LookupUE(imsi string) (core.UE, bool) {
	s := d.committedHolder(imsi)
	if s == nil || s.Down() {
		return core.UE{}, false
	}
	return s.Ctrl.LookupUE(imsi)
}

// ResolveLocIP translates a permanent address to the UE's current LocIP.
func (d *Dispatcher) ResolveLocIP(perm packet.Addr) (packet.Addr, error) {
	imsi, ok := d.subs.ByPerm(perm)
	if !ok {
		return 0, fmt.Errorf("shard: no UE with permanent address %s", perm)
	}
	s := d.committedHolder(imsi)
	if s == nil {
		return 0, fmt.Errorf("shard: UE %q is %w", imsi, core.ErrNotAttached)
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
	}
	return nil
}

// Close stops every shard: it waits for the operations still inside and
// refuses later ones with ErrShardDown.
func (d *Dispatcher) Close() {
	for _, s := range d.shards {
		s.close()
	}
}
