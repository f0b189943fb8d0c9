package core

import (
	"repro/internal/packet"
)

// This file is the struct-of-arrays UE table (DESIGN.md §14): one 40-byte
// record per attached UE in a chunked slab, keyed by a 32-bit slot number,
// plus two small open-addressed indices — instead of heap objects and IMSI
// copies per UE across three maps, which at the paper's 1M-UE scale
// dominated the controller's footprint. An IMSI is in the table while it is
// attached here; what outlives the attachment — registration, permanent
// address — lives in Subscribers.
//
//	slabs:   [][]ueRecord — chunked, so records never move (pointers into a
//	         slab are stable for the record's lifetime) and growth never
//	         copies the population.
//	imsiIdx: open-addressed IMSI -> slot (hash stored next to the slot so
//	         probes reject without touching the slab).
//	locIdx:  open-addressed LocIP -> slot. LocIPs embed (station, UE ID),
//	         so this is the UEID->slot index; reserved old LocIPs of
//	         in-flight handoffs alias extra keys onto their UE's slot.
//	free:    slot free list — a UE leaving (Detach, ExtractUE) returns its
//	         slot for reuse.
//
// The table is not internally synchronised; the Controller guards it with ueMu.

// ueRecord is one fixed-size slot. Attributes live in the attrPool; the
// record stores a 32-bit handle, and permIP is the record's copy of the
// address Subscribers binds to the IMSI. A live record always holds a
// handle and a location (attr != 0, locIP != 0); a free slot is zeroed.
type ueRecord struct {
	imsi   string
	attr   attrHandle
	permIP packet.Addr
	locIP  packet.Addr
	bs     packet.BSID
	ueid   packet.UEID
}

// ueSlabShift sizes one slab at 8192 records (320 KiB): big enough that a
// 1M-UE table is ~128 slab allocations, small enough that tests with ten
// UEs do not pay megabytes.
const ueSlabShift = 13
const ueSlabSize = 1 << ueSlabShift

// idxEmpty / idxTombstone are the open-addressed slot-word sentinels; live
// entries store slot+1.
const (
	idxEmpty     uint32 = 0
	idxTombstone uint32 = ^uint32(0)
)

// addrIdx is an open-addressed Addr -> slot index (linear probing, power-
// of-two capacity). Address 0 is never a valid LocIP, so the zero key needs
// no special casing beyond rejecting it on insert.
type addrIdx struct {
	keys  []packet.Addr
	slots []uint32 // slot+1; idxEmpty / idxTombstone
	live  int
	tombs int
}

func hashAddr(a packet.Addr) uint32 {
	x := uint32(a)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

func (x *addrIdx) lookup(a packet.Addr) (uint32, bool) {
	n := uint32(len(x.slots))
	if n == 0 || a == 0 {
		return 0, false
	}
	for i := hashAddr(a) & (n - 1); ; i = (i + 1) & (n - 1) {
		s := x.slots[i]
		if s == idxEmpty {
			return 0, false
		}
		if s != idxTombstone && x.keys[i] == a {
			return s - 1, true
		}
	}
}

func (x *addrIdx) insert(a packet.Addr, slot uint32) {
	if a == 0 {
		return
	}
	if 4*(x.live+x.tombs+1) > 3*len(x.slots) {
		x.grow()
	}
	// Probe to the key or the first empty before reusing a tombstone: the
	// key may live past a tombstone left by a deleted collision, and
	// inserting at the tombstone would shadow it — a later delete would
	// then resurrect the stale entry.
	n := uint32(len(x.slots))
	reuse := n // first tombstone seen, n = none
	for i := hashAddr(a) & (n - 1); ; i = (i + 1) & (n - 1) {
		s := x.slots[i]
		if s == idxTombstone {
			if reuse == n {
				reuse = i
			}
			continue
		}
		if s == idxEmpty {
			if reuse != n {
				i = reuse
				x.tombs--
			}
			x.keys[i], x.slots[i] = a, slot+1
			x.live++
			return
		}
		if x.keys[i] == a {
			x.slots[i] = slot + 1
			return
		}
	}
}

func (x *addrIdx) delete(a packet.Addr) {
	n := uint32(len(x.slots))
	if n == 0 || a == 0 {
		return
	}
	for i := hashAddr(a) & (n - 1); ; i = (i + 1) & (n - 1) {
		s := x.slots[i]
		if s == idxEmpty {
			return
		}
		if s != idxTombstone && x.keys[i] == a {
			x.slots[i] = idxTombstone
			x.keys[i] = 0
			x.live--
			x.tombs++
			return
		}
	}
}

// grow rehashes into a table sized for the live set (doubling from the
// current capacity, shedding tombstones).
func (x *addrIdx) grow() {
	newCap := 16
	for newCap < 4*(x.live+1)/3+1 {
		newCap *= 2
	}
	if newCap < 2*len(x.slots) && 4*(x.live+1) > 3*len(x.slots) {
		newCap = 2 * len(x.slots)
	}
	oldKeys, oldSlots := x.keys, x.slots
	x.keys = make([]packet.Addr, newCap)
	x.slots = make([]uint32, newCap)
	x.live, x.tombs = 0, 0
	for i, s := range oldSlots {
		if s != idxEmpty && s != idxTombstone {
			x.insert(oldKeys[i], s-1)
		}
	}
}

// forEach visits every live (addr, slot) entry; return false to stop.
func (x *addrIdx) forEach(fn func(a packet.Addr, slot uint32) bool) {
	for i, s := range x.slots {
		if s == idxEmpty || s == idxTombstone {
			continue
		}
		if !fn(x.keys[i], s-1) {
			return
		}
	}
}

// bytes reports the index's backing-array footprint.
func (x *addrIdx) bytes() uint64 {
	return uint64(len(x.keys))*4 + uint64(len(x.slots))*4
}

// strIdx is the open-addressed IMSI -> slot index. Keys are not stored:
// the slab record at the indexed slot holds the authoritative string, so
// the index costs 8 bytes per entry regardless of IMSI length. The cached
// hash rejects almost every false probe without touching the slab.
type strIdx struct {
	hashes []uint32
	slots  []uint32 // slot+1; idxEmpty / idxTombstone
	live   int
	tombs  int
}

func hashIMSI(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// ueTable is the struct-of-arrays UE directory; the zero value is empty.
type ueTable struct {
	slabs [][]ueRecord
	free  []uint32
	next  uint32 // high-water slot count
	live  int    // slots in use

	imsiIdx strIdx
	locIdx  addrIdx

	imsiBytes uint64 // retained IMSI string bytes, maintained incrementally
}

// rec returns the record at slot. The pointer is stable for the record's
// lifetime: slabs are chunked and never reallocated.
func (t *ueTable) rec(slot uint32) *ueRecord {
	return &t.slabs[slot>>ueSlabShift][slot&(ueSlabSize-1)]
}

// get resolves an IMSI to its live record.
func (t *ueTable) get(imsi string) (*ueRecord, uint32, bool) {
	n := uint32(len(t.imsiIdx.slots))
	if n == 0 {
		return nil, 0, false
	}
	h := hashIMSI(imsi)
	for i := h & (n - 1); ; i = (i + 1) & (n - 1) {
		s := t.imsiIdx.slots[i]
		if s == idxEmpty {
			return nil, 0, false
		}
		if s != idxTombstone && t.imsiIdx.hashes[i] == h {
			if r := t.rec(s - 1); r.imsi == imsi {
				return r, s - 1, true
			}
		}
	}
}

// alloc takes a slot (free list first) for a UE admitted under attr with
// permanent address perm, and indexes it by IMSI.
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
	t.imsiInsert(imsi, slot)
	t.imsiBytes += uint64(len(imsi))
	t.live++
	return r, slot
}

// freeRec unindexes the record's IMSI and returns the slot to the free list.
// The caller has already removed any loc entries.
func (t *ueTable) freeRec(slot uint32) {
	r := t.rec(slot)
	t.imsiDelete(r.imsi)
	t.imsiBytes -= uint64(len(r.imsi))
	*r = ueRecord{}
	t.free = append(t.free, slot)
	t.live--
}

func (t *ueTable) imsiInsert(imsi string, slot uint32) {
	x := &t.imsiIdx
	if 4*(x.live+x.tombs+1) > 3*len(x.slots) {
		t.imsiGrow()
	}
	// Same tombstone discipline as addrIdx.insert: find the key or an
	// empty before reusing a tombstone, so re-indexing an IMSI never
	// shadows its live entry behind a deleted collision.
	n := uint32(len(x.slots))
	h := hashIMSI(imsi)
	reuse := n // first tombstone seen, n = none
	for i := h & (n - 1); ; i = (i + 1) & (n - 1) {
		s := x.slots[i]
		if s == idxTombstone {
			if reuse == n {
				reuse = i
			}
			continue
		}
		if s == idxEmpty {
			if reuse != n {
				i = reuse
				x.tombs--
			}
			x.hashes[i], x.slots[i] = h, slot+1
			x.live++
			return
		}
		if x.hashes[i] == h && t.rec(s-1).imsi == imsi {
			x.slots[i] = slot + 1
			return
		}
	}
}

func (t *ueTable) imsiDelete(imsi string) {
	x := &t.imsiIdx
	n := uint32(len(x.slots))
	if n == 0 {
		return
	}
	h := hashIMSI(imsi)
	for i := h & (n - 1); ; i = (i + 1) & (n - 1) {
		s := x.slots[i]
		if s == idxEmpty {
			return
		}
		if s != idxTombstone && x.hashes[i] == h && t.rec(s-1).imsi == imsi {
			x.slots[i] = idxTombstone
			x.hashes[i] = 0
			x.live--
			x.tombs++
			return
		}
	}
}

func (t *ueTable) imsiGrow() {
	x := &t.imsiIdx
	newCap := 16
	for newCap < 4*(x.live+1)/3+1 {
		newCap *= 2
	}
	if newCap < 2*len(x.slots) && 4*(x.live+1) > 3*len(x.slots) {
		newCap = 2 * len(x.slots)
	}
	oldHashes, oldSlots := x.hashes, x.slots
	x.hashes = make([]uint32, newCap)
	x.slots = make([]uint32, newCap)
	x.live, x.tombs = 0, 0
	n := uint32(newCap)
	for i, s := range oldSlots {
		if s == idxEmpty || s == idxTombstone {
			continue
		}
		h := oldHashes[i]
		for j := h & (n - 1); ; j = (j + 1) & (n - 1) {
			if x.slots[j] == idxEmpty {
				x.hashes[j], x.slots[j] = h, s
				x.live++
				break
			}
		}
	}
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

// indexBytes reports the two open-addressed indices' footprint.
func (t *ueTable) indexBytes() uint64 {
	return uint64(len(t.imsiIdx.hashes))*4 + uint64(len(t.imsiIdx.slots))*4 +
		t.locIdx.bytes() + uint64(len(t.free))*4
}
