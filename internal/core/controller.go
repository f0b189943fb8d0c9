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
// agent (§4.2): flows of App get Tag; Tag 0 means no policy path exists yet
// and the agent must come back (the "send-to-controller" action).
type Classifier struct {
	App    policy.AppType
	Clause int
	Tag    packet.Tag // the access-side tag to embed; 0 = ask the controller
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
//   - ueMu guards the UE/location tables and the UE ID allocators; lookups
//     take only the read lock.
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
// created and removed together with its holder mark in the table, under
// ueMu). The fastest path of all, a repeat RequestPath, takes no lock: it
// reads the station's row of the path table.
type Controller struct {
	ueMu   sync.RWMutex // UE/location state and UE ID allocation
	ruleMu sync.Mutex   // rule tables: Planner, Installer, paths

	T         *topo.Topology
	Planner   *routing.Planner
	Installer *Installer
	Policy    *policy.Policy
	Store     *store.Store

	plan    packet.Plan
	gateway topo.NodeID
	mbTypes map[string]topo.MBType
	owned   map[packet.BSID]bool // guarded by ueMu; nil = unrestricted

	// subs is where registrations and permanent addresses live (it locks
	// itself); inst is this controller's number among those admitting from
	// it, the holder mark of every record in ues.
	subs *Subscribers
	inst uint16
	// ues is the struct-of-arrays UE directory (DESIGN.md §14): one
	// fixed-size slab record per attached UE, reached through open-addressed
	// IMSI and LocIP indices. attrs interns the attribute sets (and their
	// compiled classifier templates) the records reference by handle.
	ues   ueTable  // guarded by ueMu
	attrs attrPool // guarded by ueMu
	// reservations holds, per still-reserved old LocIP, the live shortcut
	// state for in-flight flows of a moved UE (§5.1); retargeted on every
	// subsequent handoff, removed by ReleaseOldLocIP's soft timeout.
	reservations map[packet.Addr]*reservation // guarded by ueMu
	// Per-station UE ID allocators, indexed by BSID and grown on demand
	// (ensureBSLocked) — dense arrays, not maps: station IDs are small.
	nextUEID  []packet.UEID   // guarded by ueMu
	freeUEIDs [][]packet.UEID // guarded by ueMu
	// rsvFree recycles reservation records a release or removal retired.
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
	var owned map[packet.BSID]bool
	if cfg.Stations != nil {
		owned = make(map[packet.BSID]bool, len(cfg.Stations))
		for _, bs := range cfg.Stations {
			if _, ok := t.Station(bs); !ok {
				return nil, fmt.Errorf("core: restricted to unknown base station %d", bs)
			}
			owned[bs] = true
		}
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
		owned:        owned,
		subs:         subs,
		inst:         subs.join(),
		attrs:        newAttrPool(),
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
func (c *Controller) PermPool() packet.Prefix { return c.subs.Pool }

// Instance is the controller's number (from 1) among those admitting from
// its subscriber table: Subscribers.Holder of the UEs whose records it holds.
func (c *Controller) Instance() int { return int(c.inst) }

// ueViewLocked materialises the public UE view of one slab record.
//
// caller holds ueMu
func (c *Controller) ueViewLocked(r *ueRecord) UE {
	return UE{IMSI: r.imsi, Attr: c.attrs.attrOf(r.attr), PermIP: r.permIP,
		BS: r.bs, UEID: r.ueid, LocIP: r.locIP}
}

// RegisterSubscriber loads one subscriber record (the HSS equivalent).
// Re-registering replaces the subscriber's attributes; an attached UE keeps
// the ones it was admitted under until it next attaches from detached.
func (c *Controller) RegisterSubscriber(imsi string, attr policy.Attributes) error {
	return c.subs.Register(imsi, attr)
}

// ensureBSLocked grows the per-station allocator arrays to cover bs.
//
// caller holds ueMu
func (c *Controller) ensureBSLocked(bs packet.BSID) {
	if int(bs) < len(c.nextUEID) {
		return
	}
	n := len(c.nextUEID) * 2
	if n <= int(bs) {
		n = int(bs) + 1
	}
	next := make([]packet.UEID, n)
	copy(next, c.nextUEID)
	c.nextUEID = next
	free := make([][]packet.UEID, n)
	copy(free, c.freeUEIDs)
	c.freeUEIDs = free
}

// freeUEIDLocked returns one (station, UE ID) to the free list.
//
// caller holds ueMu
func (c *Controller) freeUEIDLocked(bs packet.BSID, id packet.UEID) {
	c.ensureBSLocked(bs)
	c.freeUEIDs[bs] = append(c.freeUEIDs[bs], id)
}

// allocLocIP assigns a fresh (UEID, LocIP) at a base station.
//
// caller holds ueMu
func (c *Controller) allocLocIP(bs packet.BSID) (packet.UEID, packet.Addr, error) {
	c.ensureBSLocked(bs)
	var id packet.UEID
	if free := c.freeUEIDs[bs]; len(free) > 0 {
		id = free[len(free)-1]
		c.freeUEIDs[bs] = free[:len(free)-1]
	} else {
		id = c.nextUEID[bs] + 1
		if id > c.plan.MaxUE() {
			return 0, 0, fmt.Errorf("core: base station %d out of UE IDs", bs)
		}
		c.nextUEID[bs] = id
	}
	loc, err := c.plan.LocIP(bs, id)
	if err != nil {
		return 0, 0, err
	}
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
		id, loc, err := c.allocLocIP(bs)
		if err != nil {
			return UE{}, nil, err
		}
		c.ues.locIdx.delete(r.locIP)
		c.freeUEIDLocked(r.bs, r.ueid)
		r.bs, r.ueid, r.locIP = bs, id, loc
		c.ues.locIdx.insert(loc, slot)
	} else {
		attr, perm, err := c.subs.admit(imsi, c.inst)
		if err != nil {
			return UE{}, nil, err
		}
		if r, err = c.newRecordLocked(imsi, attr, perm, bs); err != nil {
			c.subs.release(imsi, c.inst)
			return UE{}, nil, err
		}
	}
	c.attaches.Add(1)
	return c.ueViewLocked(r), c.classifiersLocked(r), nil
}

// newRecordLocked allocates a LocIP at bs and, once that succeeded, the
// record of a UE whose holder mark the caller has already set.
//
// caller holds ueMu
func (c *Controller) newRecordLocked(imsi string, attr policy.Attributes, perm packet.Addr, bs packet.BSID) (*ueRecord, error) {
	id, loc, err := c.allocLocIP(bs)
	if err != nil {
		return nil, err
	}
	r, slot := c.ues.alloc(imsi, c.attrs.acquire(attr, c.Policy), perm)
	r.bs, r.ueid, r.locIP = bs, id, loc
	c.ues.locIdx.insert(loc, slot)
	return r, nil
}

// classifiersLocked assembles the service policy for one UE from its
// interned classifier template (compiled once per distinct attribute set,
// not once per attach), resolving tags for clauses whose policy paths
// already exist at the UE's base station (read from the station's row of
// the path table — no rule-table lock needed).
//
// caller holds ueMu
func (c *Controller) classifiersLocked(r *ueRecord) []Classifier {
	entries := c.attrs.compiled(r.attr)
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
	imsi, ok := c.subs.ByPerm(perm)
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
	slot, ok := c.ues.locIdx.lookup(loc)
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
	_, err := c.removeUE(imsi, true)
	return err
}

// removeUE is the one way a UE's record leaves the controller (Detach, and
// ExtractUE for a migration); it returns the frozen record.
func (c *Controller) removeUE(imsi string, park bool) (MigratedUE, error) {
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	c.ruleMu.Lock()
	defer c.ruleMu.Unlock()
	r, slot, ok := c.ues.get(imsi)
	if !ok {
		return MigratedUE{}, fmt.Errorf("core: UE %q is %w", imsi, ErrNotAttached)
	}
	return c.removeUELocked(r, slot, park), nil
}

// removeUELocked frees a record: its LocIP and UE ID return to the
// allocator, its slot to the free list, its holder mark and attribute
// reference go, and the shortcuts of its reserved old LocIPs come down. With
// park the reserved addresses wait, owned by no UE, for their
// ReleaseOldLocIP; without, they are freed here, in ascending order, and a
// later release finds nothing.
//
// caller holds ueMu; caller holds ruleMu
func (c *Controller) removeUELocked(r *ueRecord, slot uint32, park bool) MigratedUE {
	m := MigratedUE{IMSI: r.imsi, Attr: c.attrs.attrOf(r.attr), PermIP: r.permIP, OldBS: r.bs, OldLocIP: r.locIP}
	c.ues.locIdx.delete(r.locIP)
	c.freeUEIDLocked(r.bs, r.ueid)
	for loc := r.rsv; loc != 0; {
		rsv := c.reservations[loc]
		next := rsv.next
		for i := range rsv.shortcuts {
			c.Installer.RemoveShortcut(&rsv.shortcuts[i])
		}
		// Handoff left the reserved address indexed to this UE's slot; the
		// entry would dangle once the record below is cleared.
		c.ues.locIdx.delete(loc)
		if park {
			rsv.imsi, rsv.shortcuts, rsv.next = "", nil, 0
		} else {
			c.retireLocked(loc, rsv)
			if bs, id, ok := c.plan.Split(loc); ok {
				c.freeUEIDLocked(bs, id)
			}
		}
		loc = next
	}
	c.subs.release(m.IMSI, c.inst)
	c.attrs.release(r.attr)
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
// local agents"). Existing location state is discarded first.
func (c *Controller) RecoverLocations(reports []AgentLocationReport) error {
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	c.ruleMu.Lock()
	c.ues.forEach(func(slot uint32, r *ueRecord) bool {
		c.removeUELocked(r, slot, false)
		return true
	})
	clear(c.reservations) // what is left was parked: no shortcuts, no index entries
	c.ruleMu.Unlock()
	for i := range c.nextUEID {
		c.nextUEID[i] = 0
	}
	for i := range c.freeUEIDs {
		c.freeUEIDs[i] = c.freeUEIDs[i][:0]
	}
	for _, rep := range reports {
		if !c.ownsLocked(rep.BS) {
			continue // another shard's station; its owner rebuilds it
		}
		for _, u := range rep.UEs {
			if err := c.importUELocked(rep.BS, u); err != nil {
				return err
			}
		}
	}
	return nil
}

// importUELocked installs one reported UE at bs verbatim, keeping its UEID,
// LocIP and permanent IP (which the subscriber table binds, or confirms).
//
// caller holds ueMu
func (c *Controller) importUELocked(bs packet.BSID, u UE) error {
	if err := c.subs.bind(u.IMSI, u.PermIP, c.inst); err != nil {
		return err
	}
	r, slot, ok := c.ues.get(u.IMSI)
	if !ok {
		r, slot = c.ues.alloc(u.IMSI, c.attrs.acquire(u.Attr, c.Policy), u.PermIP)
	}
	r.bs, r.ueid, r.locIP = bs, u.UEID, u.LocIP
	c.ues.locIdx.insert(u.LocIP, slot)
	c.ensureBSLocked(bs)
	if u.UEID > c.nextUEID[bs] {
		c.nextUEID[bs] = u.UEID
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
