package core

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/topo"
)

// This file is the struct-of-arrays UE table (DESIGN.md §14): one 40-byte
// record per attached UE in a chunked slab, keyed by a 32-bit slot number —
// instead of heap objects and IMSI copies per UE across three maps, which at
// the paper's 1M-UE scale dominated the controller's footprint. An IMSI is
// in the table while it is attached here; what outlives the attachment —
// registration, permanent address — lives in Subscribers, and so does where
// the record is: the subscriber record names its holder and the holder's
// slot, so the table keeps no IMSI index of its own; a LocIP's station row
// in the station table below names it.
//
//	slabs: [][]ueRecord — chunked, so records never move (pointers into a
//	       slab are stable for the record's lifetime) and growth never
//	       copies the population.
//	free:  slot free list — a UE leaving (Detach, ExtractUE) returns its
//	       slot for reuse.
//
// Neither table is internally synchronised; the Controller guards both
// with ueMu.

// ueRecord is one fixed-size slot. set indexes the subscriber table's
// attribute set the UE was admitted under (the controller compiles each set
// once), and permIP is the record's copy of the address Subscribers binds to
// the IMSI. rsv heads the UE's list of reserved old LocIPs (0 when it has
// none; see reservation). A live record always holds a set and a location
// (set != 0, locIP != 0); a free slot is zeroed.
type ueRecord struct {
	imsi   string
	set    uint16
	permIP packet.Addr
	locIP  packet.Addr
	bs     packet.BSID
	ueid   packet.UEID
	rsv    packet.Addr
}

// ueSlabShift sizes one slab at 1024 records (40 KiB): a 1M-UE table is
// 977 slab allocations, and a controller with a few hundred UEs attached
// (a shard of a small plant, a test) pays 40 KiB, not the 320 KiB of an
// 8192-record slab.
const ueSlabShift = 10
const ueSlabSize = 1 << ueSlabShift

// ueTable is the struct-of-arrays UE directory of one controller.
type ueTable struct {
	// subs says which records are here and at which slot; inst is this
	// table's holder mark in it. Both are fixed at construction.
	subs *Subscribers
	inst uint16

	slabs [][]ueRecord
	free  []uint32
	next  uint32 // high-water slot count
	live  int    // slots in use

	imsiBytes uint64 // retained IMSI string bytes, maintained incrementally
}

// newUETable builds an empty table that joins subs as a new holder.
func newUETable(subs *Subscribers) ueTable {
	return ueTable{subs: subs, inst: subs.join()}
}

// rec returns the record at slot. The pointer is stable for the record's
// lifetime: slabs are chunked and never reallocated.
func (t *ueTable) rec(slot uint32) *ueRecord {
	return &t.slabs[slot>>ueSlabShift][slot&(ueSlabSize-1)]
}

// get resolves an IMSI to its live record: the one at the slot the
// subscriber table gives, if it names this table the holder.
func (t *ueTable) get(imsi string) (*ueRecord, uint32, bool) {
	holder, slot := t.subs.locate(imsi)
	if holder != t.inst {
		return nil, 0, false
	}
	return t.rec(slot), slot, true
}

// nextSlot is the slot the next alloc fills: the subscriber table records
// it with the holder mark before the record exists.
func (t *ueTable) nextSlot() uint32 {
	if n := len(t.free); n > 0 {
		return t.free[n-1]
	}
	return t.next
}

// alloc takes nextSlot() for a UE admitted under attribute set set with
// permanent address perm.
func (t *ueTable) alloc(imsi string, set uint16, perm packet.Addr) (*ueRecord, uint32) {
	var slot uint32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		slot = t.next
		t.next++
		if int(slot>>ueSlabShift) == len(t.slabs) {
			t.slabs = append(t.slabs, make([]ueRecord, ueSlabSize))
		}
	}
	r := t.rec(slot)
	*r = ueRecord{imsi: imsi, set: set, permIP: perm}
	t.imsiBytes += uint64(len(imsi))
	t.live++
	return r, slot
}

// freeRec returns the slot to the free list. The caller has already freed
// its UE IDs and removed the holder mark.
func (t *ueTable) freeRec(slot uint32) {
	r := t.rec(slot)
	t.imsiBytes -= uint64(len(r.imsi))
	*r = ueRecord{}
	t.free = append(t.free, slot)
	t.live--
}

// forEach visits every live record in slot order; return false to stop.
func (t *ueTable) forEach(fn func(slot uint32, r *ueRecord) bool) {
	for slot := uint32(0); slot < t.next; slot++ {
		r := t.rec(slot)
		if r.set == 0 {
			continue
		}
		if !fn(slot, r) {
			return
		}
	}
}

// slabBytes reports the record-slab footprint.
func (t *ueTable) slabBytes() uint64 {
	const recSize = 40 // unsafe.Sizeof(ueRecord{}) on 64-bit (TestRecSizeMatchesRecord)
	return uint64(len(t.slabs)) * ueSlabSize * recSize
}

// stationTable is the controller's LocIP index and UE ID allocator in one:
// a LocIP embeds (station, UE ID) (§4.1), so the table has one row per base
// station, sized once from the topology (as the path table is), and a
// LocIP resolves by plan.Split and two index operations. In a row, ids[id-1]
// is 0 while UE ID id is free, slot+1 while it is the current or a
// still-reserved old LocIP of the record at slot, and idParked while its
// reservation is parked (its UE detached or moved to another controller);
// len(ids) is the station's high-water mark. free stacks the free IDs below
// the mark: the last one freed is handed out next, and after an import the
// lowest.
type stationTable []stationRow

type stationRow struct {
	owned bool
	free  []packet.UEID
	ids   []uint32
}

const (
	idParked       = ^uint32(0)
	stationRowSize = 56 // unsafe.Sizeof(stationRow{}) on 64-bit (TestRecSizeMatchesRecord)
)

// newStationTable sizes a table for every station of t, owning those named
// in owned, or every one when owned is nil.
func newStationTable(t *topo.Topology, owned []packet.BSID) (stationTable, error) {
	s := make(stationTable, stationSpan(t))
	for i := range s {
		s[i].owned = owned == nil
	}
	for _, bs := range owned {
		if _, ok := t.Station(bs); !ok {
			return nil, fmt.Errorf("core: restricted to unknown base station %d", bs)
		}
		s[bs].owned = true
	}
	return s, nil
}

// stationSpan is one more than the highest station ID of t.
func stationSpan(t *topo.Topology) int {
	n := 0
	for _, st := range t.Stations {
		n = max(n, int(st.ID)+1)
	}
	return n
}

// row returns bs's row; nil for a station outside the table.
func (s stationTable) row(bs packet.BSID) *stationRow {
	if int(bs) < len(s) {
		return &s[bs]
	}
	return nil
}

// entry returns ids[id-1] of bs's row: 0 for an ID outside the table.
func (s stationTable) entry(bs packet.BSID, id packet.UEID) uint32 {
	if r := s.row(bs); r != nil && id != 0 && int(id) <= len(r.ids) {
		return r.ids[id-1]
	}
	return 0
}

// slot resolves (bs, id) to the record whose current or reserved LocIP
// embeds it.
func (s stationTable) slot(bs packet.BSID, id packet.UEID) (uint32, bool) {
	e := s.entry(bs, id)
	return e - 1, e != 0 && e != idParked
}

// release pushes (bs, id) onto the station's free stack.
func (s stationTable) release(bs packet.BSID, id packet.UEID) {
	r := &s[bs]
	r.ids[id-1] = 0
	r.free = append(r.free, id)
}
