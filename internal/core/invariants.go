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
//   - UE directory coherence: records and the LocIP index agree, every
//     record is attached, every LocIP splits to its UE's (station, UE ID),
//     every attached station is owned, and a UE's reservations hold
//     shortcuts only for paths of clauses its classifiers allow.
//   - Subscriber table agreement: the table names this controller the holder
//     of exactly the UEs it has records for, each record carries the address
//     the table binds to its IMSI, and the table's reverse index agrees.
//   - Allocator safety: no UE ID is simultaneously free and live (attached
//     or reserved), and the free lists hold no duplicates — the invariant
//     that breaks first if an address is ever double-freed.
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

	// Reservations: each is a parseable address at an owned station, indexed
	// to its UE's record — or, parked by that UE's Detach, owned by no UE,
	// with no index entry and no shortcuts. liveIDs marks (station, id) pairs
	// that must not appear in the free lists.
	type stationID struct {
		bs packet.BSID
		id packet.UEID
	}
	liveIDs := make(map[stationID]packet.Addr)
	listed := 0 // reservations that name a UE, each of which its list must hold
	for loc, rsv := range c.reservations {
		bs, id, ok := c.plan.Split(loc)
		if !ok {
			return rep, fmt.Errorf("core: reserved address %s is not a LocIP", loc)
		}
		if !c.ownsLocked(bs) {
			return rep, fmt.Errorf("core: reservation %s at unowned station %d", loc, bs)
		}
		slot, held := c.ues.loc[loc]
		if rsv.imsi == "" {
			if held || len(rsv.shortcuts) != 0 {
				return rep, fmt.Errorf("core: parked reservation %s still has an index entry or %d shortcuts", loc, len(rsv.shortcuts))
			}
		} else if _, ueSlot, ok := c.ues.get(rsv.imsi); !ok {
			return rep, fmt.Errorf("core: reservation %s names unknown UE %q", loc, rsv.imsi)
		} else if !held || slot != ueSlot {
			return rep, fmt.Errorf("core: reserved address %s not indexed to its UE %q", loc, rsv.imsi)
		} else {
			listed++
		}
		liveIDs[stationID{bs, id}] = loc
	}

	// UE directory coherence, plus the struct-of-arrays layout's own
	// integrity: every record held here at its own slot according to the
	// subscriber table, every address map entry pointing at the slot that
	// owns the address, and the attribute-pool reference counts exactly
	// matching a full scan.
	heldHere, invErr := c.ues.subs.audit(c.ues.inst)
	if invErr != nil {
		return rep, invErr
	}
	attrRefs := make(map[attrHandle]uint32)
	c.ues.forEach(func(slot uint32, r *ueRecord) bool {
		rep.Attached++
		attrRefs[r.attr]++
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
		if r.locIP == 0 {
			invErr = fmt.Errorf("core: UE %q has a record but no location", r.imsi)
			return false
		}
		if got, ok := c.ues.loc[r.locIP]; !ok || got != slot {
			invErr = fmt.Errorf("core: UE %q location %s not indexed back to it", r.imsi, r.locIP)
			return false
		}
		bs, id, ok := c.plan.Split(r.locIP)
		if !ok || bs != r.bs || id != r.ueid {
			invErr = fmt.Errorf("core: UE %q location %s does not embed (bs %d, id %d)", r.imsi, r.locIP, r.bs, r.ueid)
			return false
		}
		if !c.ownsLocked(r.bs) {
			invErr = fmt.Errorf("core: UE %q attached at unowned station %d", r.imsi, r.bs)
			return false
		}
		if prev, dup := liveIDs[stationID{bs, id}]; dup {
			invErr = fmt.Errorf("core: UE ID %d at station %d serves both %s and %s", id, bs, prev, r.locIP)
			return false
		}
		liveIDs[stationID{bs, id}] = r.locIP
		// The UE's reservation list: ascending, and every entry a
		// reservation naming this UE. With the count below, the lists hold
		// exactly the reservations that name a UE. Each reservation's
		// shortcuts serve only clauses the UE's classifiers allow: the
		// delivery tag names the path at the origin station.
		entries := c.attrs.compiled(r.attr)
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

	// Address map checks: no entry points at a slot that does not own its
	// address.
	for loc, slot := range c.ues.loc {
		if slot >= c.ues.next || c.ues.rec(slot).attr == 0 {
			return rep, fmt.Errorf("core: location index %s names slot %d with no UE record", loc, slot)
		}
		if r := c.ues.rec(slot); r.locIP != loc {
			rsv, reserved := c.reservations[loc]
			if !reserved || rsv.imsi != r.imsi {
				return rep, fmt.Errorf("core: location index %s -> %q is neither current nor reserved", loc, r.imsi)
			}
		}
	}

	// Attribute-pool refcounts: the scan above counted every handle reference
	// the records hold; the pool must agree exactly — an entry reclaimed
	// too early or leaked shows up here.
	var scanRefs uint64
	for h, n := range attrRefs {
		if got := c.attrs.refs(h); got != n {
			return rep, fmt.Errorf("core: interned attribute entry %d has %d refs, records hold %d", h, got, n)
		}
		scanRefs += uint64(n)
	}
	if got := c.attrs.totalRefs(); got != scanRefs {
		return rep, fmt.Errorf("core: attribute pool holds %d refs, records hold %d", got, scanRefs)
	}
	if got := c.attrs.liveEntries(); got != len(attrRefs) {
		return rep, fmt.Errorf("core: attribute pool has %d live entries, records reference %d", got, len(attrRefs))
	}

	// Allocator safety: free lists hold no duplicates, nothing live, and
	// nothing beyond the high-water mark.
	for bsi, free := range c.freeUEIDs {
		bs := packet.BSID(bsi)
		seen := make(map[packet.UEID]bool, len(free))
		for _, id := range free {
			if seen[id] {
				return rep, fmt.Errorf("core: UE ID %d at station %d double-freed", id, bs)
			}
			seen[id] = true
			if id == 0 || id > c.nextUEID[bs] {
				return rep, fmt.Errorf("core: free UE ID %d at station %d outside allocated range 1..%d", id, bs, c.nextUEID[bs])
			}
			if loc, live := liveIDs[stationID{bs, id}]; live {
				return rep, fmt.Errorf("core: UE ID %d at station %d is both free and live (%s)", id, bs, loc)
			}
		}
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
