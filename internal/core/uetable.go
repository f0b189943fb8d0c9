package core

import (
	"repro/internal/packet"
)

// This file is the struct-of-arrays UE table (DESIGN.md §14): one 40-byte
// record per attached UE in a chunked slab, keyed by a 32-bit slot number —
// instead of heap objects and IMSI copies per UE across three maps, which at
// the paper's 1M-UE scale dominated the controller's footprint. An IMSI is
// in the table while it is attached here; what outlives the attachment —
// registration, permanent address — lives in Subscribers, and so does where
// the record is: the subscriber record names its holder and the holder's
// slot, so the table keeps no IMSI index of its own.
//
//	slabs: [][]ueRecord — chunked, so records never move (pointers into a
//	       slab are stable for the record's lifetime) and growth never
//	       copies the population.
//	loc:   LocIP -> slot. LocIPs embed (station, UE ID), so this is the
//	       UEID->slot index; reserved old LocIPs of in-flight handoffs
//	       alias extra keys onto their UE's slot.
//	free:  slot free list — a UE leaving (Detach, ExtractUE) returns its
//	       slot for reuse.
//
// The table is not internally synchronised; the Controller guards it with ueMu.

// ueRecord is one fixed-size slot. Attributes live in the attrPool; the
// record stores a 32-bit handle, and permIP is the record's copy of the
// address Subscribers binds to the IMSI. rsv heads the UE's list of
// reserved old LocIPs (0 when it has none; see reservation). A live record
// always holds a handle and a location (attr != 0, locIP != 0); a free slot
// is zeroed.
type ueRecord struct {
	imsi   string
	attr   attrHandle
	permIP packet.Addr
	locIP  packet.Addr
	bs     packet.BSID
	ueid   packet.UEID
	rsv    packet.Addr
}

// ueSlabShift sizes one slab at 8192 records (320 KiB): big enough that a
// 1M-UE table is ~128 slab allocations, small enough that tests with ten
// UEs do not pay megabytes.
const ueSlabShift = 13
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
	loc   map[packet.Addr]uint32

	imsiBytes uint64 // retained IMSI string bytes, maintained incrementally
}

// newUETable builds an empty table that joins subs as a new holder.
func newUETable(subs *Subscribers) ueTable {
	return ueTable{subs: subs, inst: subs.join(), loc: make(map[packet.Addr]uint32)}
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

// alloc takes nextSlot() for a UE admitted under attr with permanent
// address perm.
func (t *ueTable) alloc(imsi string, attr attrHandle, perm packet.Addr) (*ueRecord, uint32) {
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
	*r = ueRecord{imsi: imsi, attr: attr, permIP: perm}
	t.imsiBytes += uint64(len(imsi))
	t.live++
	return r, slot
}

// freeRec returns the slot to the free list. The caller has already removed
// any loc entries and the holder mark.
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
		if r.attr == 0 {
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

// indexBytes estimates the LocIP map the way Subscribers.MemStats does its
// maps — 9 B a slot (4 B address, 4 B slot, control byte), 2 in 3 occupied —
// plus the slot free list.
func (t *ueTable) indexBytes() uint64 {
	return uint64(len(t.loc))*9*3/2 + uint64(len(t.free))*4
}
