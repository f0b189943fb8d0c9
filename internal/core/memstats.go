package core

// This file surfaces the compacted memory layout (DESIGN.md §14) as a
// first-class measured quantity: MemStats walks the UE table, the station
// table and the attribute sets this controller compiled under the usual
// lock order and reports counts and byte footprints. The bench CLI embeds a
// MemStats snapshot in every BENCH_*.json report; with an obs registry
// configured, each snapshot also updates the core.mem.* gauges so live
// introspection sees the same numbers.

// MemStats is a point-in-time snapshot of the controller's state-layer
// memory accounting.
type MemStats struct {
	// UE table.
	Subscribers    int    `json:"subscribers"`     // registrations in the subscriber table
	Attached       int    `json:"attached"`        // UE records (a record exists while its UE is attached)
	SlotsAllocated int    `json:"slots_allocated"` // slab high-water mark
	FreeSlots      int    `json:"free_slots"`      // slab free-list depth
	SlabBytes      uint64 `json:"slab_bytes"`      // record-slab footprint
	IndexBytes     uint64 `json:"index_bytes"`     // station table and slot free list (capacity), subscriber-table maps (estimated)
	IMSIBytes      uint64 `json:"imsi_bytes"`      // retained IMSI string bytes
	FreeUEIDs      int    `json:"free_ueids"`      // per-station UE ID free-stack depth (all stations)
	Reservations   int    `json:"reservations"`    // still-reserved old LocIPs
	// Attribute sets.
	InternedAttrs int `json:"interned_attrs"` // sets this controller compiled
	// Path table.
	Paths int `json:"paths"` // installed policy paths
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
	m.Paths += o.Paths
}

// TableBytes is the UE-state footprint: slabs plus indices plus retained
// IMSI strings.
func (m MemStats) TableBytes() uint64 {
	return m.SlabBytes + m.IndexBytes + m.IMSIBytes
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
		IndexBytes:     uint64(cap(c.ues.free)*4 + len(c.stations)*stationRowSize),
		IMSIBytes:      c.ues.imsiBytes,
		Attached:       c.ues.live,
		Reservations:   len(c.reservations),
		Paths:          c.paths.len(),
	}
	for _, e := range c.sets {
		if e.ok {
			ms.InternedAttrs++
		}
	}
	// A table shared between shards is the dispatcher's to add, once.
	if c.ues.subs.Store == c.Store {
		ms.Add(c.ues.subs.MemStats())
	}
	for _, r := range c.stations {
		ms.FreeUEIDs += len(r.free)
		ms.IndexBytes += uint64(cap(r.ids)+cap(r.free)) * 4
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
}
