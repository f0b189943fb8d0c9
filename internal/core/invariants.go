package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/packet"
	"repro/internal/topo"
)

// This file is the controller half of the chaos harness's global invariant
// checker (DESIGN.md §11): one call that cross-checks every piece of
// controller state against every other — rule tables against installed
// paths, the store's documents against the path table, the UE directory
// against the address allocators, and §5's policy-consistency property
// for every still-reserved old LocIP. internal/chaos runs it after every
// injected fault; the -race stress tests run it at quiescence.

// InvariantReport summarises what a CheckInvariants pass covered.
type InvariantReport struct {
	Paths        int // installed policy paths
	Rules        int // net TCAM rules across all switches
	Attached     int // UEs with live location state
	Reservations int // still-reserved old LocIPs (in-flight handoffs)
	// Tags holds every segment tag of every installed path, sorted. The
	// shard runtime unions these across shards to check that the tag
	// residue-class partition really kept the sub-spaces disjoint.
	Tags []packet.Tag
}

// CheckInvariants verifies the controller's cross-cutting consistency
// properties and returns a report of what it covered. The checks:
//
//   - UE directory coherence: records and the station table agree, every
//     record is attached, every LocIP splits to its UE's (station, UE ID),
//     every attached station is owned, every record's attribute set is one
//     this controller compiled from the subscriber table's set at that
//     index, and a UE's reservations hold shortcuts only for paths of
//     clauses its classifiers allow.
//   - Subscriber table agreement: the table names this controller the holder
//     of exactly the UEs it has records for, each record carries the address
//     the table binds to its IMSI, and the table's reverse index agrees.
//   - Allocator safety: every UE ID below a station's mark is free and on
//     its free stack exactly once, or held by a record or a reservation —
//     the invariant that breaks first if an address is ever double-freed.
//   - Rule accounting: per-switch table sizes sum to the installer's net
//     rule counter.
//   - Store agreement: the path/ documents are exactly the installed paths,
//     each holding its path's 8-byte ID.
//   - Tag discipline: segment tags respect the shard's residue class, and
//     no tag serves two paths of one origin (paper footnote 2).
//   - FIB verification: for every installed path, walking the rule tables
//     (Installer.Walk) reproduces the requested switch/middlebox sequence
//     in both directions.
//   - §5 policy consistency: for every reserved old LocIP, downstream
//     traffic still traverses the full middlebox chain, in order, of every
//     policy path at its origin station, and is delivered at either the
//     UE's new access switch (via shortcut) or the origin's (triangle
//     routing) — nowhere earlier.
//
// It takes both lock domains in the documented order, so it can run
// concurrently with live traffic; invariants hold at every quiescent point,
// not only at shutdown.
func (c *Controller) CheckInvariants() (InvariantReport, error) {
	c.ueMu.RLock()
	defer c.ueMu.RUnlock()
	c.ruleMu.Lock()
	defer c.ruleMu.Unlock()

	rep := InvariantReport{
		Paths:        c.paths.len(),
		Reservations: len(c.reservations),
	}

	// Reservations: each is a LocIP whose UE ID names its UE's record — or,
	// parked by that UE's Detach, owned by no UE, its UE ID marked parked
	// and no shortcuts left.
	listed := 0 // reservations that name a UE, each of which its list must hold
	for loc, rsv := range c.reservations {
		bs, id, _ := c.plan.Split(loc)
		e := c.stations.entry(bs, id)
		if rsv.imsi == "" {
			if e != idParked || len(rsv.shortcuts) != 0 {
				return rep, fmt.Errorf("core: parked reservation %s has UE ID entry %d and %d shortcuts", loc, e, len(rsv.shortcuts))
			}
		} else if r, ueSlot, ok := c.ues.get(rsv.imsi); !ok {
			return rep, fmt.Errorf("core: reservation %s names unknown UE %q", loc, rsv.imsi)
		} else if e != ueSlot+1 || r.locIP == loc {
			return rep, fmt.Errorf("core: reserved address %s not indexed to its UE %q, or its current location", loc, rsv.imsi)
		} else {
			listed++
		}
	}

	// The attribute sets: each one this controller compiled is the set the
	// subscriber table holds at its index.
	for set, e := range c.sets {
		if attr, ok := c.ues.subs.attrsOf(uint16(set)); e.ok && (!ok || attr != e.attr) {
			return rep, fmt.Errorf("core: attribute set %d was compiled from %+v; the subscriber table holds %+v (known = %v)", set, e.attr, attr, ok)
		}
	}

	// UE directory coherence, plus the struct-of-arrays layout's own
	// integrity: every record held here at its own slot according to the
	// subscriber table, its UE ID naming that slot, and its attribute set
	// one compiled here.
	heldHere, invErr := c.ues.subs.audit(c.ues.inst)
	if invErr != nil {
		return rep, invErr
	}
	c.ues.forEach(func(slot uint32, r *ueRecord) bool {
		rep.Attached++
		if int(r.set) >= len(c.sets) || !c.sets[r.set].ok {
			invErr = fmt.Errorf("core: UE %q is admitted under attribute set %d, which this controller never compiled", r.imsi, r.set)
			return false
		}
		sub, ok := heldHere[r.imsi]
		if !ok || sub.perm != r.permIP {
			invErr = fmt.Errorf("core: UE %q has a record with permanent address %s; the subscriber table says %s, held here = %v", r.imsi, r.permIP, sub.perm, ok)
			return false
		}
		if sub.slot != slot {
			invErr = fmt.Errorf("core: record %q at slot %d, which the subscriber table gives as slot %d", r.imsi, slot, sub.slot)
			return false
		}
		delete(heldHere, r.imsi)
		bs, id, ok := c.plan.Split(r.locIP)
		if !ok || bs != r.bs || id != r.ueid {
			invErr = fmt.Errorf("core: UE %q location %s does not embed (bs %d, id %d)", r.imsi, r.locIP, r.bs, r.ueid)
			return false
		}
		if e := c.stations.entry(bs, id); e != slot+1 {
			invErr = fmt.Errorf("core: UE %q location %s not indexed back to it: UE ID %d at station %d names entry %d, not slot %d", r.imsi, r.locIP, id, bs, e, slot)
			return false
		}
		// The UE's reservation list: ascending, and every entry a
		// reservation naming this UE. With the count below, the lists hold
		// exactly the reservations that name a UE. Each reservation's
		// shortcuts serve only clauses the UE's classifiers allow: the
		// delivery tag names the path at the origin station.
		entries := c.sets[r.set].compiled
		for loc, prev := r.rsv, packet.Addr(0); loc != 0; prev, loc = loc, c.reservations[loc].next {
			rsv, ok := c.reservations[loc]
			if !ok || rsv.imsi != r.imsi {
				invErr = fmt.Errorf("core: UE %q lists reservation %s, which is not one of its own", r.imsi, loc)
				return false
			}
			if loc <= prev {
				invErr = fmt.Errorf("core: UE %q lists reservation %s after %s, out of ascending order", r.imsi, loc, prev)
				return false
			}
			listed--
			originBS, _, _ := c.plan.Split(loc)
			row := c.paths.station(originBS)
			for i := range rsv.shortcuts {
				for clause, rec := range row {
					if rec != nil && rec.AccessTag() == rsv.shortcuts[i].Delivery && !allows(entries, clause) {
						invErr = fmt.Errorf("core: UE %q holds a shortcut for %s on clause %d, which its classifiers do not allow", r.imsi, loc, clause)
						return false
					}
				}
			}
		}
		return true
	})
	if invErr != nil {
		return rep, invErr
	}
	if listed != 0 {
		return rep, fmt.Errorf("core: %d reservations name a UE whose list does not hold them", listed)
	}

	for imsi := range heldHere {
		return rep, fmt.Errorf("core: the subscriber table names this controller (instance %d) holder of UE %q, which has no record here", c.ues.inst, imsi)
	}

	// Slot accounting: every allocated slot is live or free, never both.
	if rep.Attached != c.ues.live {
		return rep, fmt.Errorf("core: %d live records scanned, table counter says %d", rep.Attached, c.ues.live)
	}
	if c.ues.live+len(c.ues.free) != int(c.ues.next) {
		return rep, fmt.Errorf("core: slot leak: %d live + %d free != %d allocated", c.ues.live, len(c.ues.free), c.ues.next)
	}

	// The station table, one walk: below each station's mark a UE ID is
	// free and on the free stack exactly once, or held at an owned station —
	// and as many are held as the records and reservations checked above
	// hold, each its own.
	held := 0
	for bsi := range c.stations {
		bs, row := packet.BSID(bsi), &c.stations[bsi]
		if !row.owned && len(row.ids) != 0 {
			return rep, fmt.Errorf("core: unowned station %d has UE IDs up to %d", bs, len(row.ids))
		}
		stacked := make([]bool, len(row.ids))
		for _, id := range row.free {
			if id == 0 || int(id) > len(row.ids) || stacked[id-1] || row.ids[id-1] != 0 {
				return rep, fmt.Errorf("core: UE ID %d at station %d is on the free stack but outside 1..%d, on it twice, or in use", id, bs, len(row.ids))
			}
			stacked[id-1] = true
		}
		for i, e := range row.ids {
			if e == 0 && !stacked[i] {
				return rep, fmt.Errorf("core: UE ID %d at station %d is free but missing from the free stack", i+1, bs)
			}
			if e != 0 {
				held++
			}
		}
	}
	if held != rep.Attached+len(c.reservations) {
		return rep, fmt.Errorf("core: the station table holds %d UE IDs; %d records and %d reservations hold one each", held, rep.Attached, len(c.reservations))
	}

	// Rule accounting.
	hw, sw := c.Installer.TableSizes()
	rep.Rules = c.Installer.Stats().Rules
	if hw.Total()+sw.Total() != rep.Rules {
		return rep, fmt.Errorf("core: per-switch rules %d+%d != installer counter %d", hw.Total(), sw.Total(), rep.Rules)
	}

	// Store documents: exactly the installed paths' IDs, key for key.
	if n := c.Store.Primary().Count("path/"); n != c.paths.len() {
		return rep, fmt.Errorf("core: store holds %d path/ documents for %d installed paths", n, c.paths.len())
	}
	for _, path := range c.paths.all() {
		key, rec := path.key, path.rec
		if e, ok := c.Store.Get(pathDoc(key)); !ok || len(e.Value) != 8 || PathID(binary.BigEndian.Uint64(e.Value)) != rec.ID {
			return rep, fmt.Errorf("core: path %d (bs %d, clause %d) has store document %x", rec.ID, key.bs, key.clause, e.Value)
		}
	}

	// Path records, tag discipline, and FIB verification.
	stride, offset := c.Installer.Opts.TagStride, c.Installer.Opts.TagOffset
	originTags := make(map[packet.BSID]map[packet.Tag]PathID)
	for _, path := range c.paths.all() {
		key, rec := path.key, path.rec
		if rec.Origin != key.bs {
			return rep, fmt.Errorf("core: path %d filed under station %d but originates at %d", rec.ID, key.bs, rec.Origin)
		}
		if !c.ownsLocked(key.bs) {
			return rep, fmt.Errorf("core: path %d at unowned station %d", rec.ID, key.bs)
		}
		if len(rec.Tags) == 0 {
			return rep, fmt.Errorf("core: path %d has no tags", rec.ID)
		}
		for _, tag := range rec.Tags {
			rep.Tags = append(rep.Tags, tag)
			if stride > 1 && int(tag)%stride != offset {
				return rep, fmt.Errorf("core: path %d tag %d outside residue class %d (mod %d)", rec.ID, tag, offset, stride)
			}
			used := originTags[rec.Origin]
			if used == nil {
				used = make(map[packet.Tag]PathID)
				originTags[rec.Origin] = used
			}
			if other, dup := used[tag]; dup && other != rec.ID {
				return rep, fmt.Errorf("core: tag %d serves paths %d and %d at origin %d", tag, other, rec.ID, rec.Origin)
			}
			used[tag] = rec.ID
		}
		if err := c.Installer.VerifyPath(rec); err != nil {
			return rep, fmt.Errorf("core: path %d (bs %d, clause %d): %w", rec.ID, key.bs, key.clause, err)
		}
	}
	sort.Slice(rep.Tags, func(i, j int) bool { return rep.Tags[i] < rep.Tags[j] })

	// §5 policy consistency for in-flight handoffs: downstream traffic to a
	// reserved old LocIP must still traverse the complete middlebox chain of
	// every policy path at its origin station, and end at the UE's current
	// access switch (shortcut) or the origin's (triangle via the tunnels). A
	// detached UE has microflows nowhere, so its old-flow traffic must drain
	// at the origin (its shortcuts came down with Detach).
	for loc, rsv := range c.reservations {
		originBS, _, _ := c.plan.Split(loc)
		curAccess := topo.None
		if ue, _, ok := c.ues.get(rsv.imsi); ok {
			if st, ok := c.T.Station(ue.bs); ok {
				curAccess = st.Access
			}
		}
		for _, rec := range c.paths.station(originBS) {
			if rec == nil {
				continue
			}
			if err := c.Installer.verify(rec, Down, loc, false, rec.Route.Access(), curAccess); err != nil {
				return rep, fmt.Errorf("core: reserved %s (policy sequence broken by handoff): %w", loc, err)
			}
		}
	}

	return rep, nil
}

// Paths lists the installed policy paths in ascending (station, clause)
// order. Records never change once filed, so callers may keep them.
func (c *Controller) Paths() []*InstalledPath {
	c.ruleMu.Lock()
	defer c.ruleMu.Unlock()
	out := make([]*InstalledPath, 0, c.paths.len())
	for _, e := range c.paths.all() {
		out = append(out, e.rec)
	}
	return out
}

// UEs snapshots every UE record, sorted by IMSI. The
// shard runtime's cross-shard invariant checks enumerate controllers
// through it.
func (c *Controller) UEs() []UE {
	c.ueMu.RLock()
	defer c.ueMu.RUnlock()
	out := make([]UE, 0, c.ues.live)
	c.ues.forEach(func(_ uint32, r *ueRecord) bool {
		out = append(out, c.ueViewLocked(r))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].IMSI < out[j].IMSI })
	return out
}
