package core

// This file surfaces the compacted memory layout (DESIGN.md §14) as a
// first-class measured quantity: MemStats walks the UE table and the
// attribute pool under the usual lock order and reports counts and byte
// footprints. The bench CLI embeds a MemStats snapshot in every BENCH_*.json
// report; with an obs registry configured, each snapshot also updates the
// core.mem.* gauges so live introspection sees the same numbers.

// MemStats is a point-in-time snapshot of the controller's state-layer
// memory accounting.
type MemStats struct {
	// UE table.
	Subscribers    int    `json:"subscribers"`     // registrations in the subscriber table
	Attached       int    `json:"attached"`        // UE records (a record exists while its UE is attached)
	SlotsAllocated int    `json:"slots_allocated"` // slab high-water mark
	FreeSlots      int    `json:"free_slots"`      // slab free-list depth
	SlabBytes      uint64 `json:"slab_bytes"`      // record-slab footprint
	IndexBytes     uint64 `json:"index_bytes"`     // IMSI/LocIP open-addressed indices, subscriber-table maps
	IMSIBytes      uint64 `json:"imsi_bytes"`      // retained IMSI string bytes
	FreeUEIDs      int    `json:"free_ueids"`      // per-station UE ID free-list depth (all stations)
	Reservations   int    `json:"reservations"`    // still-reserved old LocIPs
	// Attribute intern pool.
	InternedAttrs int    `json:"interned_attrs"` // distinct attribute sets
	AttrRefs      uint64 `json:"attr_refs"`      // live references from records
	AttrHits      uint64 `json:"attr_hits"`      // acquire() intern hits
	AttrMisses    uint64 `json:"attr_misses"`    // acquire() compiles (distinct sets seen)
	// Installer.
	Paths int `json:"paths"` // retained installed paths
}

// Add accumulates another snapshot into m (used by the shard dispatcher
// to aggregate per-shard controllers into one fleet-wide view).
func (m *MemStats) Add(o MemStats) {
	m.Subscribers += o.Subscribers
	m.Attached += o.Attached
	m.SlotsAllocated += o.SlotsAllocated
	m.FreeSlots += o.FreeSlots
	m.SlabBytes += o.SlabBytes
	m.IndexBytes += o.IndexBytes
	m.IMSIBytes += o.IMSIBytes
	m.FreeUEIDs += o.FreeUEIDs
	m.Reservations += o.Reservations
	m.InternedAttrs += o.InternedAttrs
	m.AttrRefs += o.AttrRefs
	m.AttrHits += o.AttrHits
	m.AttrMisses += o.AttrMisses
	m.Paths += o.Paths
}

// TableBytes is the UE-state footprint: slabs plus indices plus retained
// IMSI strings.
func (m MemStats) TableBytes() uint64 {
	return m.SlabBytes + m.IndexBytes + m.IMSIBytes
}

// AttrHitRate is the intern pool's acquire hit rate in [0, 1].
func (m MemStats) AttrHitRate() float64 {
	if m.AttrHits+m.AttrMisses == 0 {
		return 0
	}
	return float64(m.AttrHits) / float64(m.AttrHits+m.AttrMisses)
}

// MemStats snapshots the controller's memory accounting. It takes both lock
// domains in the documented order, so it is safe to call concurrently with
// live traffic. With an obs registry configured, the snapshot also updates
// the core.mem.* gauges.
func (c *Controller) MemStats() MemStats {
	c.ueMu.RLock()
	defer c.ueMu.RUnlock()
	c.ruleMu.Lock()
	defer c.ruleMu.Unlock()

	ms := MemStats{
		SlotsAllocated: int(c.ues.next),
		FreeSlots:      len(c.ues.free),
		SlabBytes:      c.ues.slabBytes(),
		IndexBytes:     c.ues.indexBytes(),
		IMSIBytes:      c.ues.imsiBytes,
		Attached:       c.ues.live,
		Reservations:   len(c.reservations),
		InternedAttrs:  c.attrs.liveEntries(),
		AttrRefs:       c.attrs.totalRefs(),
		AttrHits:       c.attrs.hits,
		AttrMisses:     c.attrs.misses,
		Paths:          len(c.Installer.paths),
	}
	// A table shared between shards is the dispatcher's to add, once.
	if c.subs.Store == c.Store {
		ms.Add(c.subs.MemStats())
	}
	for _, free := range c.freeUEIDs {
		ms.FreeUEIDs += len(free)
	}
	c.obs.publishMem(ms)
	return ms
}

// publishMem mirrors a MemStats snapshot onto the core.mem.* gauges
// (no-op without a registry).
func (o *coreObs) publishMem(ms MemStats) {
	if o.memAttached == nil {
		return
	}
	o.memAttached.Set(int64(ms.Attached))
	o.memSlabBytes.Set(int64(ms.SlabBytes + ms.IndexBytes + ms.IMSIBytes))
	o.memFreeSlots.Set(int64(ms.FreeSlots))
	o.memAttrs.Set(int64(ms.InternedAttrs))
	o.memAttrHitPct.Set(int64(ms.AttrHitRate() * 100))
}
