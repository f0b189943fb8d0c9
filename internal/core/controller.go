package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/routing"
	"repro/internal/store"
	"repro/internal/topo"
)

// UE is the controller's view of one attached device.
type UE struct {
	IMSI   string
	Attr   policy.Attributes
	PermIP packet.Addr // permanent address (bound at first attach, never changes)
	BS     packet.BSID // current base station
	UEID   packet.UEID // local ID at the current base station
	LocIP  packet.Addr // location-dependent address (changes on handoff)
}

// ErrNotAttached marks an operation on a UE that has no location record: it
// detached, never attached, or was lost with a failed shard whose agents did
// not report it. Its permanent address stays bound; the next Attach restores
// a record.
var ErrNotAttached = errors.New("not attached")

// Classifier is one per-UE packet classifier the controller ships to a local
// agent (§4.2): flows of App fall under Clause. Tag is the station's grant
// for Clause when the message was cut, and the agent keeps it once per
// station, not per UE; Tag 0 means no policy path exists yet and the agent
// must come back (the "send-to-controller" action).
type Classifier struct {
	App    policy.AppType
	Clause int
	Tag    packet.Tag
	Allow  bool
	QoS    policy.QoS
}

// pathKey names a policy path by (origin, clause).
type pathKey struct {
	bs     packet.BSID
	clause int
}

// ControllerConfig parameterises NewController.
type ControllerConfig struct {
	Plan     packet.Plan // zero value = packet.DefaultPlan
	Gateway  topo.NodeID
	Policy   *policy.Policy
	MBTypes  map[string]topo.MBType // middlebox function name -> topology type
	Replicas int                    // control-store replicas (§5.2); default 1
	// PermPool is the block the controller's own subscriber table draws
	// permanent UE addresses from; it must not overlap the carrier's LocIP
	// block. Zero value = 100.64.0.0/10. A table passed in Subscribers
	// brings its own pool.
	PermPool packet.Prefix
	// Stations restricts the controller to a subset of base stations: any
	// Attach/Handoff/RequestPath naming a station outside the subset fails
	// with ErrNotOwned. nil (the default) means every station in the
	// topology. The shard runtime uses this to give each shard a disjoint
	// slice of the access network — and with it a disjoint LocIP sub-pool,
	// since LocIPs embed the base-station ID.
	Stations []packet.BSID
	// Installer options (ablations, candidate bounds, tag-space partition)
	// pass through.
	Install InstallerOptions
	// Subscribers is the table Attach admits from: nil builds one over the
	// controller's own store; shard.New passes every shard the same one.
	Subscribers *Subscribers
	// Obs, when non-nil, registers runtime telemetry (tag-cache hit/miss,
	// rules added/saved by aggregation, sampled lock waits) and trace
	// events on the registry. nil runs uninstrumented at zero cost.
	Obs *obs.Registry
}

// Controller is the SoftCell central controller: it owns UE state,
// policy-path installation and the replicated control store, and admits
// UEs from a subscriber table it may share. It is safe for concurrent use.
//
// State is split into two lock domains so readers and independent writers
// do not contend (the throughput benchmarks measure exactly this):
//
//   - ueMu guards the UE table and the station table, which is both the
//     LocIP index and the UE ID allocator; lookups take only the read lock.
//   - ruleMu guards the rule tables: Planner, Installer, writes to the
//     installed-path table, and topology up/down flags — everything
//     Algorithm 1 and prefix aggregation touch. The Installer itself is
//     not safe for concurrent use; every controller code path that mutates
//     or reads it holds ruleMu. External read-only access (dataplane
//     assembly, examples, trace dumps) happens in single-threaded contexts
//     by design.
//
// lock ordering: ueMu, ruleMu — ruleMu may be acquired while holding ueMu,
// never the reverse; Subscribers.mu is a leaf below both (a record is
// created and removed together with its holder mark and slot in the table,
// under ueMu, and every IMSI lookup reads them there). The fastest path of
// all, a repeat RequestPath, takes no lock: it reads the station's row of
// the path table.
type Controller struct {
	ueMu   sync.RWMutex // UE table, station table (LocIPs, UE IDs, ownership)
	ruleMu sync.Mutex   // rule tables: Planner, Installer, paths

	T         *topo.Topology
	Planner   *routing.Planner
	Installer *Installer
	Policy    *policy.Policy
	Store     *store.Store

	plan    packet.Plan
	gateway topo.NodeID
	mbTypes map[string]topo.MBType

	// ues is the struct-of-arrays UE directory (DESIGN.md §14): one
	// fixed-size slab record per attached UE. An IMSI reaches its record
	// through the subscriber table (ues.subs, which locks itself and also
	// keeps registrations and permanent addresses): it names the holder —
	// ues.inst, this controller's number among those admitting from it —
	// and the slot. A LocIP reaches it through stations, which also hands
	// out UE IDs and says which stations are owned. sets holds, by the
	// subscriber table's set index a record keeps, the attribute sets this
	// controller has admitted UEs under, each compiled once.
	ues      ueTable      // guarded by ueMu; ues.subs and ues.inst are fixed
	stations stationTable // guarded by ueMu
	sets     []attrSet    // guarded by ueMu
	// reservations holds, per still-reserved old LocIP, the live shortcut
	// state for in-flight flows of a moved UE (§5.1); retargeted on every
	// subsequent handoff, removed by ReleaseOldLocIP's soft timeout.
	reservations map[packet.Addr]*reservation // guarded by ueMu
	// rsvFree recycles reservation records a release retired.
	rsvFree []*reservation // guarded by ueMu
	// paths is the one record of the installed policy paths: writers hold
	// ruleMu, readers of one station's row need no lock (pathtable.go).
	paths pathTable

	// epoch counts tag-plan mutations (an install, a rebuild). AgentView
	// stamps exports with it so agents can tell two snapshots cut from the
	// same plan apart from a real change.
	epoch atomic.Uint64

	// Stats counters; snapshot through Stats().
	attaches atomic.Uint64
	handoffs atomic.Uint64
	pathAsks atomic.Uint64
	pathMiss atomic.Uint64 // asks that had to install a new path

	// Runtime telemetry handles (nil-safe no-ops when unconfigured) and
	// the slow-path sequence used to sample ruleMu waits.
	obs     coreObs
	slowSeq atomic.Uint64

	// hs holds the buffers a handoff reuses. It sits last so the fields
	// every RequestPath touches keep their cache lines: the path table,
	// read by each request, stays off the line of pathAsks, written by each.
	hs handoffScratch // guarded by ruleMu
}

// ControllerStats is a point-in-time snapshot of the controller's counters.
type ControllerStats struct {
	Attaches uint64
	Handoffs uint64
	PathAsks uint64
	PathMiss uint64
}

// Stats snapshots the controller's counters (each is independently atomic;
// no lock is taken).
func (c *Controller) Stats() ControllerStats {
	return ControllerStats{Attaches: c.attaches.Load(), Handoffs: c.handoffs.Load(),
		PathAsks: c.pathAsks.Load(), PathMiss: c.pathMiss.Load()}
}

// NewController wires a controller over the topology.
func NewController(t *topo.Topology, cfg ControllerConfig) (*Controller, error) {
	if cfg.Plan == (packet.Plan{}) {
		cfg.Plan = packet.DefaultPlan
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("core: controller needs a service policy")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	st := store.New(cfg.Replicas)
	subs := cfg.Subscribers
	if subs == nil {
		subs = NewSubscribers(st, cfg.PermPool)
	}
	if subs.Pool.Overlaps(cfg.Plan.Carrier) {
		return nil, fmt.Errorf("core: permanent pool %s overlaps carrier block %s", subs.Pool, cfg.Plan.Carrier)
	}
	opts := cfg.Install
	opts.Plan = cfg.Plan
	inst, err := NewInstaller(t, opts)
	if err != nil {
		return nil, err
	}
	// Location routing is base infrastructure (Fig. 3(a)): build it now so
	// location-routed traffic works before the first policy path.
	inst.EnableLocationRouting(cfg.Gateway)
	stations, err := newStationTable(t, cfg.Stations)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		T:            t,
		Planner:      routing.NewPlanner(t),
		Installer:    inst,
		Policy:       cfg.Policy,
		Store:        st,
		plan:         cfg.Plan,
		gateway:      cfg.Gateway,
		mbTypes:      cfg.MBTypes,
		ues:          newUETable(subs),
		stations:     stations,
		reservations: make(map[packet.Addr]*reservation),
		paths:        newPathTable(t),
		obs:          newCoreObs(cfg.Obs),
	}
	return c, nil
}

// Plan exposes the controller's address plan.
func (c *Controller) Plan() packet.Plan { return c.plan }

// Gateway exposes the controller's gateway switch.
func (c *Controller) Gateway() topo.NodeID { return c.gateway }

// PermPool exposes the permanent-address block.
func (c *Controller) PermPool() packet.Prefix {
	c.ueMu.RLock()
	defer c.ueMu.RUnlock()
	return c.ues.subs.Pool
}

// Instance is the controller's number (from 1) among those admitting from
// its subscriber table: Subscribers.Holder of the UEs whose records it holds.
func (c *Controller) Instance() int {
	c.ueMu.RLock()
	defer c.ueMu.RUnlock()
	return int(c.ues.inst)
}

// ueViewLocked materialises the public UE view of one slab record.
//
// caller holds ueMu
func (c *Controller) ueViewLocked(r *ueRecord) UE {
	return UE{IMSI: r.imsi, Attr: c.sets[r.set].attr, PermIP: r.permIP,
		BS: r.bs, UEID: r.ueid, LocIP: r.locIP}
}

// RegisterSubscriber loads one subscriber record (the HSS equivalent).
// Re-registering replaces the subscriber's attributes; an attached UE keeps
// the ones it was admitted under until it next attaches from detached.
func (c *Controller) RegisterSubscriber(imsi string, attr policy.Attributes) error {
	c.ueMu.RLock()
	defer c.ueMu.RUnlock()
	return c.ues.subs.Register(imsi, attr)
}

// allocLocIPLocked hands bs's next UE ID — the top of its free stack, else
// the one above its mark — to the record at slot and returns it with the
// LocIP it makes. bs is an owned station.
//
// caller holds ueMu
func (c *Controller) allocLocIPLocked(bs packet.BSID, slot uint32) (packet.UEID, packet.Addr, error) {
	row := &c.stations[bs]
	var id packet.UEID
	if n := len(row.free); n > 0 {
		id, row.free = row.free[n-1], row.free[:n-1]
	} else if id = packet.UEID(len(row.ids)) + 1; id <= c.plan.MaxUE() {
		row.ids = append(row.ids, 0)
	} else {
		return 0, 0, fmt.Errorf("core: base station %d out of UE IDs", bs)
	}
	loc, err := c.plan.LocIP(bs, id)
	if err != nil {
		c.stations.release(bs, id)
		return 0, 0, err
	}
	row.ids[id-1] = slot + 1
	return id, loc, nil
}

// AttachCtx is Attach carrying span context: a sampled trace records the
// whole ueMu-held admission as one core.attach section (attach is rare
// enough that its internal lock domains are not broken out the way
// handoff's are).
func (c *Controller) AttachCtx(sc obs.SpanContext, imsi string, bs packet.BSID) (UE, []Classifier, error) {
	sp := c.obs.spAttach.Start(sc)
	ue, cls, err := c.Attach(imsi, bs)
	sp.End()
	return ue, cls, err
}

// Attach admits a UE at a base station: the subscriber table binds a
// permanent IP on first attach, the controller allocates a
// location-dependent address and compiles the per-UE packet classifiers for
// the local agent.
func (c *Controller) Attach(imsi string, bs packet.BSID) (UE, []Classifier, error) {
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	if _, ok := c.T.Station(bs); !ok {
		return UE{}, nil, fmt.Errorf("core: unknown base station %d", bs)
	}
	if !c.ownsLocked(bs) {
		return UE{}, nil, fmt.Errorf("core: attach at base station %d: %w", bs, ErrNotOwned)
	}
	r, slot, known := c.ues.get(imsi)
	if known && r.bs == bs {
		// Re-attach at the same station keeps the allocation.
		return c.ueViewLocked(r), c.classifiersLocked(r), nil
	}
	if known {
		id, loc, err := c.allocLocIPLocked(bs, slot)
		if err != nil {
			return UE{}, nil, err
		}
		c.stations.release(r.bs, r.ueid)
		r.bs, r.ueid, r.locIP = bs, id, loc
	} else {
		set, perm, err := c.ues.subs.admit(imsi, c.ues.inst, c.ues.nextSlot())
		if err != nil {
			return UE{}, nil, err
		}
		if r, err = c.newRecordLocked(imsi, set, perm, bs); err != nil {
			c.ues.subs.release(imsi, c.ues.inst)
			return UE{}, nil, err
		}
	}
	c.attaches.Add(1)
	return c.ueViewLocked(r), c.classifiersLocked(r), nil
}

// newRecordLocked allocates a LocIP at bs and, once that succeeded, the
// record of a UE admitted under attribute set set whose holder mark the
// caller has already set, naming ues.nextSlot().
//
// caller holds ueMu
func (c *Controller) newRecordLocked(imsi string, set uint16, perm packet.Addr, bs packet.BSID) (*ueRecord, error) {
	id, loc, err := c.allocLocIPLocked(bs, c.ues.nextSlot())
	if err != nil {
		return nil, err
	}
	r := c.allocRecordLocked(imsi, set, perm)
	r.bs, r.ueid, r.locIP = bs, id, loc
	return r, nil
}

// attrSet is one subscriber attribute set a record here was admitted under,
// with its classifier template: policy.Compile is a pure function of the
// attributes, so it runs once per set rather than once per attach.
type attrSet struct {
	attr     policy.Attributes
	compiled []policy.ClassifierEntry
	ok       bool // filled; the entry of a set no record here used is zero
}

// allocRecordLocked takes the next slot for a UE admitted under set,
// compiling the set the first time this controller admits a UE under it.
//
// caller holds ueMu
func (c *Controller) allocRecordLocked(imsi string, set uint16, perm packet.Addr) *ueRecord {
	if n := int(set) + 1; n > len(c.sets) {
		c.sets = append(c.sets, make([]attrSet, n-len(c.sets))...)
	}
	if e := &c.sets[set]; !e.ok {
		e.attr, _ = c.ues.subs.attrsOf(set)
		e.compiled, e.ok = c.Policy.Compile(e.attr), true
	}
	r, _ := c.ues.alloc(imsi, set, perm)
	return r
}

// classifiersLocked assembles the service policy for one UE from its
// attribute set's classifier template, resolving tags for clauses whose
// policy paths already exist at the UE's base station (read from the
// station's row of the path table — no rule-table lock needed).
//
// caller holds ueMu
func (c *Controller) classifiersLocked(r *ueRecord) []Classifier {
	entries := c.sets[r.set].compiled
	row := c.paths.station(r.bs)
	out := make([]Classifier, 0, len(entries))
	for _, e := range entries {
		cl := Classifier{App: e.App, Clause: e.Clause, Allow: e.Action.Allow, QoS: e.Action.QoS}
		// Tag 0 = "send to controller": the agent asks for the path on
		// first use (§4.2's second classifier example).
		if rec := row.at(e.Clause); e.Action.Allow && rec != nil {
			cl.Tag = rec.AccessTag()
		}
		out = append(out, cl)
	}
	return out
}

// RequestPath resolves (installing if needed) the policy path for a clause
// from a base station, returning the access-side tag the agent embeds.
// This is the controller's hot path: the micro-benchmarks drive it. The
// steady state — the path already installed — reads the station's row of
// the path table with no lock and no allocation.
//
// hotpath: no alloc, no lock
func (c *Controller) RequestPath(bs packet.BSID, clause int) (packet.Tag, error) {
	c.pathAsks.Add(1)
	if rec := c.paths.get(pathKey{bs, clause}); rec != nil {
		c.obs.cacheHit.Inc()
		return rec.AccessTag(), nil
	}
	c.obs.cacheMiss.Inc()
	return c.requestPathSlow(obs.SpanContext{}, bs, clause)
}

// RequestPathCtx is RequestPath carrying span context. A sampled request
// records the whole resolution as a core.path section — still allocation
// free on the cache-hit path (Span is a value type and the ring write is
// lock-free) — and threads the context into the slow path so the ruleMu
// domain shows up as its own child section in the waterfall.
//
// hotpath: no alloc, no lock
func (c *Controller) RequestPathCtx(sc obs.SpanContext, bs packet.BSID, clause int) (packet.Tag, error) {
	sp := c.obs.spPath.Start(sc)
	c.pathAsks.Add(1)
	if rec := c.paths.get(pathKey{bs, clause}); rec != nil {
		c.obs.cacheHit.Inc()
		sp.End()
		return rec.AccessTag(), nil
	}
	c.obs.cacheMiss.Inc()
	tag, err := c.requestPathSlow(sp.Context(), bs, clause)
	sp.End()
	return tag, err
}

// requestPathSlow is the miss path: it checks station ownership under the
// UE read lock, then installs (or discovers, if another goroutine raced the
// install) the path under the rule-table lock.
//
// hotpath: cold
func (c *Controller) requestPathSlow(sc obs.SpanContext, bs packet.BSID, clause int) (packet.Tag, error) {
	c.ueMu.RLock()
	owns := c.ownsLocked(bs)
	c.ueMu.RUnlock()
	if !owns {
		return 0, fmt.Errorf("core: path request from base station %d: %w", bs, ErrNotOwned)
	}
	// The core.lock.rule section covers ruleMu wait plus hold; its End is
	// deferred first so it fires after the unlock.
	spr := c.obs.spPathRule.Start(sc)
	defer spr.End()
	// Sampled lock-domain contention: every Nth slow request times its
	// ruleMu acquisition against the injected obs clock (virtual clocks
	// observe 0, keeping deterministic harnesses deterministic).
	if c.obs.ruleWait != nil && c.slowSeq.Add(1)%ruleWaitSampleEvery == 0 {
		t0 := c.obs.reg.Now()
		c.ruleMu.Lock()
		c.obs.ruleWait.Observe(c.obs.reg.Now() - t0)
	} else {
		c.ruleMu.Lock()
	}
	defer c.ruleMu.Unlock()
	return c.resolvePathLocked(bs, clause)
}

// resolvePathLocked returns the installed path's tag for (bs, clause),
// running plan + Algorithm 1 and filing the path in the table when it does
// not exist yet. Ownership of bs has already been checked.
//
// caller holds ruleMu
func (c *Controller) resolvePathLocked(bs packet.BSID, clause int) (packet.Tag, error) {
	key := pathKey{bs, clause}
	if rec := c.paths.get(key); rec != nil {
		return rec.AccessTag(), nil // another goroutine raced the install
	}
	route, err := c.planLocked(key)
	if err != nil {
		return 0, err
	}
	rulesBefore := c.Installer.Stats().Rules
	rec, err := c.Installer.InstallPath(route)
	if err != nil {
		return 0, err
	}
	// Rule accounting: entries this install actually placed vs the naive
	// two-per-hop (up + down) placement aggregation starts from.
	added := c.Installer.Stats().Rules - rulesBefore
	if added > 0 {
		c.obs.rulesAdded.Add(uint64(added))
	}
	if saved := 2*route.Len() - added; saved > 0 {
		c.obs.rulesSaved.Add(uint64(saved))
	}
	c.paths.put(key, rec)
	c.epoch.Add(1)
	c.obs.evTagPub.Emit(int64(bs), int64(clause), int64(rec.AccessTag()))
	c.obs.evInstall.Emit(int64(bs), int64(clause), int64(rec.AccessTag()), int64(added))
	c.pathMiss.Add(1)
	if err := c.putPathDoc(key, rec.ID); err != nil {
		return 0, err
	}
	return rec.AccessTag(), nil
}

// planLocked plans the route of the path filed under key over the current
// topology: the clause must allow traffic and name only mapped middlebox
// functions.
//
// caller holds ruleMu
func (c *Controller) planLocked(key pathKey) (*routing.Path, error) {
	if !c.paths.covers(key.bs) {
		return nil, fmt.Errorf("core: base station %d joined the topology after the controller", key.bs)
	}
	cl, ok := c.Policy.Clause(key.clause)
	if !ok {
		return nil, fmt.Errorf("core: unknown policy clause %d", key.clause)
	}
	if !cl.Action.Allow {
		return nil, fmt.Errorf("core: clause %d denies traffic", key.clause)
	}
	chain := make([]topo.MBType, 0, len(cl.Action.Chain))
	for _, fn := range cl.Action.Chain {
		typ, ok := c.mbTypes[fn]
		if !ok {
			return nil, fmt.Errorf("core: no middlebox type mapped for function %q", fn)
		}
		chain = append(chain, typ)
	}
	return c.Planner.Plan(key.bs, chain, c.gateway)
}

// pathDoc is the store key of an installed path's document, whose value is
// the path's PathID as 8 big-endian bytes.
func pathDoc(key pathKey) string { return fmt.Sprintf("path/%d/%d", key.bs, key.clause) }

// putPathDoc writes the document of the path installed under key.
func (c *Controller) putPathDoc(key pathKey, id PathID) error {
	_, err := c.Store.Put(pathDoc(key), binary.BigEndian.AppendUint64(nil, uint64(id)))
	return err
}

// LookupUE resolves a UE by IMSI.
func (c *Controller) LookupUE(imsi string) (UE, bool) {
	c.ueMu.RLock()
	defer c.ueMu.RUnlock()
	r, _, ok := c.ues.get(imsi)
	if !ok {
		return UE{}, false
	}
	return c.ueViewLocked(r), true
}

// ResolveLocIP translates a UE's permanent address to its current
// location-dependent address — what an access agent needs to set up a
// mobile-to-mobile flow (§7: "SoftCell establishes a direct path between
// them without detouring via a gateway").
func (c *Controller) ResolveLocIP(perm packet.Addr) (packet.Addr, error) {
	c.ueMu.RLock()
	defer c.ueMu.RUnlock()
	imsi, ok := c.ues.subs.ByPerm(perm)
	if !ok {
		return 0, fmt.Errorf("core: no UE with permanent address %s", perm)
	}
	r, _, ok := c.ues.get(imsi)
	if !ok {
		return 0, fmt.Errorf("core: UE %q is %w", imsi, ErrNotAttached)
	}
	return r.locIP, nil
}

// LookupByLocIP resolves a UE by its current location-dependent address
// (or by a still-reserved old one — the UE's current record is returned
// either way).
func (c *Controller) LookupByLocIP(loc packet.Addr) (UE, bool) {
	c.ueMu.RLock()
	defer c.ueMu.RUnlock()
	bs, id, _ := c.plan.Split(loc)
	slot, ok := c.stations.slot(bs, id)
	if !ok {
		return UE{}, false
	}
	return c.ueViewLocked(c.ues.rec(slot)), true
}

// Detach removes a UE's location record; its permanent IP stays bound to
// the IMSI in the subscriber table, as in real cores. Reserved old LocIPs
// from unfinished handoffs stay out of the allocator until their soft
// timeout (ReleaseOldLocIP), but their shortcuts come down now: the
// shortcuts exist to steer the UE's old flows to its current station, and a
// detached UE has neither flows nor delivery microflows anywhere — a
// shortcut pointing into a station with no microflows can combine with
// location rules into a forwarding loop for the dead address.
func (c *Controller) Detach(imsi string) error {
	_, err := c.removeUE(imsi)
	return err
}

// removeUE is the one way a UE's record leaves the controller (Detach, and
// ExtractUE for a migration); it returns the frozen record.
func (c *Controller) removeUE(imsi string) (MigratedUE, error) {
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	c.ruleMu.Lock()
	defer c.ruleMu.Unlock()
	r, slot, ok := c.ues.get(imsi)
	if !ok {
		return MigratedUE{}, fmt.Errorf("core: UE %q is %w", imsi, ErrNotAttached)
	}
	return c.removeUELocked(r, slot), nil
}

// removeUELocked frees a record: its LocIP and UE ID return to the
// allocator, its slot to the free list, its holder mark goes, and its
// reserved old LocIPs are parked: their shortcuts come down, and each
// address, owned by no UE, waits for its own ReleaseOldLocIP.
//
// caller holds ueMu; caller holds ruleMu
func (c *Controller) removeUELocked(r *ueRecord, slot uint32) MigratedUE {
	m := MigratedUE{IMSI: r.imsi, Attr: c.sets[r.set].attr, PermIP: r.permIP, OldBS: r.bs, OldLocIP: r.locIP}
	c.stations.release(r.bs, r.ueid)
	for loc := r.rsv; loc != 0; {
		rsv := c.reservations[loc]
		for i := range rsv.shortcuts {
			c.Installer.RemoveShortcut(&rsv.shortcuts[i])
		}
		// Handoff left the reserved address's UE ID naming this UE's slot;
		// the entry would dangle once the record below is cleared.
		bs, id, _ := c.plan.Split(loc)
		c.stations[bs].ids[id-1] = idParked
		loc, *rsv = rsv.next, reservation{}
	}
	c.ues.subs.release(m.IMSI, c.ues.inst)
	c.ues.freeRec(slot)
	return m
}

// AgentLocationReport is what a local agent answers during failover
// recovery: the UEs currently attached at its base station.
type AgentLocationReport struct {
	BS  packet.BSID
	UEs []UE
}

// RecoverLocations rebuilds the UE-location state from live agents' reports
// (§5.2: "a replica can correctly rebuild the UE location state by querying
// local agents"). The reports for owned stations are checked first
// (checkReportsLocked), and one the controller cannot file verbatim refuses
// the call with the state unchanged. Otherwise existing location state is
// discarded and the reported UEs imported.
func (c *Controller) RecoverLocations(reports []AgentLocationReport) error {
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	// Another shard's stations are for their owner to rebuild.
	reports = slices.DeleteFunc(slices.Clone(reports), func(r AgentLocationReport) bool { return !c.ownsLocked(r.BS) })
	if err := c.checkReportsLocked(reports); err != nil {
		return err
	}
	c.ruleMu.Lock()
	c.ues.forEach(func(slot uint32, r *ueRecord) bool {
		c.removeUELocked(r, slot)
		return true
	})
	clear(c.reservations) // every one is parked now: no shortcuts, no list
	c.ruleMu.Unlock()
	for i := range c.stations {
		c.stations[i].ids, c.stations[i].free = c.stations[i].ids[:0], c.stations[i].free[:0]
	}
	return c.importLocked(reports)
}

// checkReportsLocked refuses reports an import could not file verbatim: a
// UE whose LocIP is not the one its station and UE ID make (so the UE ID,
// which indexes the station table, is in 1..MaxUE), an IMSI, LocIP or
// permanent address named twice, or a permanent address the subscriber
// table would not bind to its IMSI.
//
// caller holds ueMu
func (c *Controller) checkReportsLocked(reports []AgentLocationReport) error {
	imsis, locs, perms := make(map[string]bool), make(map[packet.Addr]bool), make(map[packet.Addr]bool)
	for _, rep := range reports {
		for _, u := range rep.UEs {
			if loc, err := c.plan.LocIP(rep.BS, u.UEID); err != nil || loc != u.LocIP {
				return fmt.Errorf("core: report for station %d: UE %q at %s, which is not UE ID %d's LocIP there", rep.BS, u.IMSI, u.LocIP, u.UEID)
			}
			if imsis[u.IMSI] || locs[u.LocIP] || perms[u.PermIP] {
				return fmt.Errorf("core: reports name UE %q, its LocIP %s or its permanent address %s twice", u.IMSI, u.LocIP, u.PermIP)
			}
			imsis[u.IMSI], locs[u.LocIP], perms[u.PermIP] = true, true, true
			if err := c.ues.subs.checkBind(u.IMSI, u.PermIP); err != nil {
				return err
			}
		}
	}
	return nil
}

// importLocked files every UE of checked reports, each above its station's
// mark, verbatim: a new record keeping its UE ID, LocIP and permanent IP
// (which the subscriber table binds, or confirms). The IDs it skips as it
// raises a mark are stacked, highest first, so the lowest goes out next.
//
// caller holds ueMu
func (c *Controller) importLocked(reports []AgentLocationReport) error {
	marks := make([]int, len(c.stations))
	for i, r := range c.stations {
		marks[i] = len(r.ids)
	}
	for _, rep := range reports {
		for _, u := range rep.UEs {
			slot := c.ues.nextSlot()
			set, err := c.ues.subs.bind(u.IMSI, u.PermIP, u.Attr, c.ues.inst, slot)
			if err != nil {
				return err
			}
			r := c.allocRecordLocked(u.IMSI, set, u.PermIP)
			r.bs, r.ueid, r.locIP = rep.BS, u.UEID, u.LocIP
			row := &c.stations[rep.BS]
			if int(u.UEID) > len(row.ids) {
				row.ids = append(row.ids, make([]uint32, int(u.UEID)-len(row.ids))...)
			}
			row.ids[u.UEID-1] = slot + 1
		}
	}
	for i, mark := range marks {
		r := &c.stations[i]
		for id := len(r.ids); id > mark; id-- {
			if r.ids[id-1] == 0 {
				r.free = append(r.free, packet.UEID(id))
			}
		}
	}
	return nil
}

// RemovePolicyPaths withdraws every installed path of one policy clause
// (policy change or middlebox rebalancing) and rebuilds the forwarding
// state from the remaining paths, reinstalled in the order they were first
// installed — removal by recomputation, per the paper's offline-algorithm
// discussion. Classifier caches at agents go stale: a removed tag is never
// issued again, so it cannot alias a new path, but packets still carrying
// it are not dropped yet — rules that ignore the tag carry them on, past
// their middleboxes (ROADMAP item 1).
func (c *Controller) RemovePolicyPaths(clause int) error {
	c.ruleMu.Lock()
	defer c.ruleMu.Unlock()
	keep := slices.DeleteFunc(c.paths.all(), func(e pathEntry) bool { return e.key.clause == clause })
	if len(keep) == c.paths.len() {
		return nil
	}
	slices.SortFunc(keep, func(a, b pathEntry) int { return cmp.Compare(a.rec.ID, b.rec.ID) })
	routes := make([]plannedPath, len(keep))
	for i, e := range keep {
		routes[i] = plannedPath{e.key, e.rec.Route}
	}
	failed, err := c.reinstallLocked(routes)
	if err == nil && failed > 0 {
		err = fmt.Errorf("core: %d surviving paths could not be reinstalled and were withdrawn", failed)
	}
	return err
}
