// Package cowindex is a paged copy-on-write hash index: the structure a
// table that is immutable after publish keeps its keyed entries in, so that
// its successor costs what it changes and not what it holds. The agent's
// snapshot keeps its UE records and grants in one, and an access switch
// its microflows (internal/switchsim).
//
// The index is open-addressed with linear probing over fixed-size pages of
// pageSize slots. A page keeps its keys apart from its values, so a probe
// reads only keys. A successor is a copy of the Index value written through
// the methods that name its predecessor (base): a page, or a part of the
// page directory, still shared with base is copied before its first write
// and written in place after that, so a successor copies each page it
// writes once. Removal shifts the rest of the probe chain back, so the
// index has no tombstones, and an insert that would take the load past its
// bound rebuilds the table at 1.5 times its size, sharing nothing.
//
// The directory comes in two forms: a flat list of page pointers, which a
// successor copies once before its first write, and a tree. An index that
// starts empty grows page by page: its pages are listed flat while there
// are at most leafSize of them, then hang under a slice of mids of midSize
// leaves of leafSize page pointers each, so a successor never copies a
// flat list of every page (at 8 192 entries a write copies a 96 B
// directory slice and 64 B nodes above its 192 B page) and the page a
// write replaces is freed alone. An index New gave room, or LaidOut laid
// out, holds its pages in one block, for locality, listed flat at any
// size, and grows into a new block: a successor copies the list once and
// each page it writes, the fewest allocations a write can make, and a
// caller that lays the table out again before its copied pages pile up
// keeps the list's cost proportional to the writes. The zero key marks an
// empty slot, so its entry, if any, lives in the Index value itself and
// has no slot.
package cowindex

import "slices"

const (
	pageBits = 4
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	leafBits = 3
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
	midBits  = 3
	midSize  = 1 << midBits
	midMask  = midSize - 1
)

// Key is what an index is keyed by. Hash must spread keys over its whole
// range: the index takes a key's home slot from the hash's high bits.
type Key interface {
	comparable
	Hash() uint32
}

// page is a fixed-size run of slots, the unit a write copies; a zero key
// is an empty slot.
type page[K Key, V any] struct {
	keys [pageSize]K
	vals [pageSize]V
}

// leaf and mid are the nodes of the page directory: a leaf points at
// pages, a mid at leaves. Each is allocated on its own: a copy that shared
// an allocation with an older node would keep that node, and what it points
// at, alive for as long as the copy lives.
type (
	leaf[K Key, V any] [leafSize]*page[K, V]
	mid[K Key, V any]  [midSize]*leaf[K, V]
)

// Index maps keys to values. It is immutable after publish: an index
// reachable by readers is only read (Get, Find, At and Range), and a
// successor is a copy of its value written with Put and Delete naming the
// original as base. Reads neither lock nor allocate. The zero Index is
// empty and keeps at most 7 entries per 8 slots; New sets another bound.
type Index[K Key, V any] struct {
	n    int    // entries, the zero key's included
	size uint32 // slots: a multiple of pageSize, 0 for an empty index
	// loose counts the pages of block writes have replaced by copies of
	// their own.
	loose int32
	// load is the most entries per 8 slots before an insert grows the
	// table; 0 means 7.
	load uint8
	// hasZero is set when zero is the zero key's value.
	hasZero bool
	// block holds the pages as the table was last laid out, in one
	// allocation; it is nil for a table laid out page by page.
	block []page[K, V]
	// pages lists the pages, when the table is listed flat; dir holds the
	// mids above them otherwise (nil while the table has no pages).
	pages []*page[K, V]
	dir   []*mid[K, V]
	zero  V
}

// New returns an empty index that keeps at most load entries per 8 slots,
// with room for capacity entries before it grows; a capacity of 0
// allocates nothing.
func New[K Key, V any](load, capacity int) Index[K, V] {
	t := Index[K, V]{load: uint8(load)}
	if capacity > 0 {
		t.layOut(uint32((8*capacity+load-1)/load+pageMask)&^pageMask, true)
	}
	return t
}

// Len reports the entries.
func (t *Index[K, V]) Len() int { return t.n }

// Slots reports the slots, which At numbers from 0.
func (t *Index[K, V]) Slots() int { return int(t.size) }

// Pages reports the pages.
func (t *Index[K, V]) Pages() int { return int(t.size >> pageBits) }

// Loose reports the pages of its block writes have replaced by copies of
// their own since the table was last laid out in one: by New, by LaidOut
// or by growth.
func (t *Index[K, V]) Loose() int { return int(t.loose) }

// bound returns the most entries per 8 slots.
func (t *Index[K, V]) bound() int {
	if t.load == 0 {
		return 7
	}
	return int(t.load)
}

// pageAt returns page pg.
func (t *Index[K, V]) pageAt(pg uint32) *page[K, V] {
	if t.dir == nil {
		return t.pages[pg]
	}
	return t.dir[pg>>(leafBits+midBits)][pg>>leafBits&midMask][pg&leafMask]
}

// home returns the slot k's probe chain starts at: its hash scaled onto
// the table, whose size need not be a power of two.
func (t *Index[K, V]) home(k K) uint32 {
	return uint32(uint64(k.Hash()) * uint64(t.size) >> 32)
}

// next returns the slot after i, wrapping at the end of the table.
func (t *Index[K, V]) next(i uint32) uint32 {
	if i++; i == t.size {
		return 0
	}
	return i
}

// dist is the distance from slot a forward to slot b, cyclically.
func (t *Index[K, V]) dist(a, b uint32) uint32 {
	if b >= a {
		return b - a
	}
	return b + t.size - a
}

// find probes for a non-zero key and returns its slot, or with ok false
// the empty slot that ends its probe chain; the probe terminates because
// the load bound leaves empty slots. The table must have slots.
func (t *Index[K, V]) find(k K) (i uint32, ok bool) {
	var none K
	i = t.home(k)
	if t.dir == nil { // the page list, read once: every packet's microflow probe runs here
		for pages := t.pages; ; i = t.next(i) {
			switch pages[i>>pageBits].keys[i&pageMask] {
			case k:
				return i, true
			case none:
				return i, false
			}
		}
	}
	for ; ; i = t.next(i) {
		switch t.pageAt(i >> pageBits).keys[i&pageMask] {
		case k:
			return i, true
		case none:
			return i, false
		}
	}
}

// Get reports k's value.
func (t *Index[K, V]) Get(k K) (v V, ok bool) {
	var none K
	if k == none {
		return t.zero, t.hasZero
	}
	if t.size == 0 {
		return v, false
	}
	i, ok := t.find(k)
	if !ok {
		return v, false
	}
	return t.pageAt(i >> pageBits).vals[i&pageMask], true
}

// Find reports the slot holding a non-zero key and its value. A slot's
// number is valid in this index value only: a write may move any entry.
func (t *Index[K, V]) Find(k K) (slot int, v V, ok bool) {
	if t.size == 0 {
		return 0, v, false
	}
	i, ok := t.find(k)
	if !ok {
		return 0, v, false
	}
	return int(i), t.pageAt(i >> pageBits).vals[i&pageMask], true
}

// At returns the value in a slot, the zero V for an empty one.
func (t *Index[K, V]) At(slot int) V {
	return t.pageAt(uint32(slot) >> pageBits).vals[slot&pageMask]
}

// Range calls yield with every entry until it returns false: the zero
// key's first, then in slot order, which depends only on the index's
// history of writes.
func (t *Index[K, V]) Range(yield func(K, V) bool) {
	var none K
	if t.hasZero && !yield(none, t.zero) {
		return
	}
	for pg := range t.size >> pageBits {
		p := t.pageAt(pg)
		for j, k := range p.keys {
			if k != none && !yield(k, p.vals[j]) {
				return
			}
		}
	}
}

// WouldGrow reports whether inserting inserts new keys into t would grow
// it.
func (t *Index[K, V]) WouldGrow(inserts int) bool {
	return 8*(t.nonZero()+inserts) > t.bound()*int(t.size)
}

// Put makes v k's value and reports the value it replaced, if any. t is a
// successor under construction of base: a copy of *base with no writes
// since but this draft's (base is nil for a fresh index). A page, leaf or
// directory t still shares with base is copied before Put writes it.
//
// Put constructs Index.
func (t *Index[K, V]) Put(base *Index[K, V], k K, v V) (old V, replaced bool) {
	var none K
	if k == none {
		if !t.hasZero {
			t.n++
		}
		old, replaced = t.zero, t.hasZero
		t.zero, t.hasZero = v, true
		return old, replaced
	}
	if t.size > 0 {
		if i, ok := t.find(k); ok {
			p := t.writable(base, i>>pageBits)
			old, p.vals[i&pageMask] = p.vals[i&pageMask], v
			return old, true
		}
	}
	if t.WouldGrow(1) {
		t.grow()
	}
	i, _ := t.find(k)
	p := t.writable(base, i>>pageBits)
	p.keys[i&pageMask], p.vals[i&pageMask] = k, v
	t.n++
	return old, false
}

// nonZero counts the entries held in slots.
func (t *Index[K, V]) nonZero() int {
	if t.hasZero {
		return t.n - 1
	}
	return t.n
}

// Delete removes k's entry, if any, by backward-shift deletion: each later
// entry of the probe chain whose home slot does not lie cyclically after
// the hole moves into it, so every remaining key stays reachable from its
// home slot with no tombstone left behind. base is as for Put.
//
// Delete constructs Index.
func (t *Index[K, V]) Delete(base *Index[K, V], k K) {
	var (
		none  K
		empty V
	)
	if k == none {
		if t.hasZero {
			t.zero, t.hasZero = empty, false
			t.n--
		}
		return
	}
	if t.size == 0 {
		return
	}
	hole, ok := t.find(k)
	if !ok {
		return
	}
	for j := t.next(hole); ; j = t.next(j) {
		p := t.pageAt(j >> pageBits)
		e := p.keys[j&pageMask]
		if e == none {
			break
		}
		// e may fill the hole unless its home is in (hole, j], cyclically.
		if t.dist(t.home(e), j) >= t.dist(hole, j) {
			t.set(base, hole, e, p.vals[j&pageMask])
			hole = j
		}
	}
	t.set(base, hole, none, empty)
	t.n--
}

// set writes slot i.
//
// set constructs Index.
func (t *Index[K, V]) set(base *Index[K, V], i uint32, k K, v V) {
	p := t.writable(base, i>>pageBits)
	p.keys[i&pageMask], p.vals[i&pageMask] = k, v
}

// writable returns page pg ready for writing. While t has base's size and
// layout (it has not grown or been laid out since it was copied), a page,
// or a page list, leaf, mid or directory slice, it still shares with base
// is copied first; a grown table shares nothing.
//
// writable constructs Index.
func (t *Index[K, V]) writable(base *Index[K, V], pg uint32) *page[K, V] {
	if base == nil || base.size != t.size || (base.dir == nil) != (t.dir == nil) {
		return t.pageAt(pg)
	}
	if t.dir == nil {
		if &t.pages[0] == &base.pages[0] {
			t.pages = slices.Clone(t.pages)
		}
		p := t.pages[pg]
		if p == base.pages[pg] {
			t.replaced(p, pg)
			cp := *p
			p = &cp
			t.pages[pg] = p
		}
		return p
	}
	if &t.dir[0] == &base.dir[0] {
		t.dir = slices.Clone(t.dir)
	}
	di, mi, li := pg>>(leafBits+midBits), pg>>leafBits&midMask, pg&leafMask
	m, bm := t.dir[di], base.dir[di]
	if m == bm {
		cp := *m
		m = &cp
		t.dir[di] = m
	}
	l, bl := m[mi], bm[mi]
	if l == bl {
		cp := *l
		l = &cp
		m[mi] = l
	}
	p := l[li]
	if p == bl[li] {
		t.replaced(p, pg)
		cp := *p
		p = &cp
		l[li] = p
	}
	return p
}

// replaced counts p, page pg, loose if it is in the block: a write is
// replacing it by a copy.
//
// replaced constructs Index.
func (t *Index[K, V]) replaced(p *page[K, V], pg uint32) {
	if t.block != nil && p == &t.block[pg] {
		t.loose++
	}
}

// LaidOut returns a copy of t with its pages in one new block and a
// directory of its own, so that it shares nothing with t and its writes
// copy nothing. A table whose writes have strewn copied pages over the
// heap probes faster laid out again.
func (t *Index[K, V]) LaidOut() Index[K, V] {
	out := Index[K, V]{n: t.n, load: t.load, zero: t.zero, hasZero: t.hasZero}
	if t.size > 0 {
		block := out.layOut(t.size, true)
		for pg := range block {
			block[pg] = *t.pageAt(uint32(pg))
		}
	}
	return out
}

// grow rebuilds t from its own entries at 1.5 times its size, in whole
// pages (one page when empty), laid out as t was, in pages and a directory
// of its own.
//
// grow constructs Index.
func (t *Index[K, V]) grow() {
	old := *t
	size := uint32(pageSize)
	if old.size > 0 {
		size = (old.size*3/2 + pageMask) &^ pageMask
	}
	*t = Index[K, V]{n: old.n, load: old.load, zero: old.zero, hasZero: old.hasZero}
	t.layOut(size, old.block != nil)
	var none K
	for pg := range old.size >> pageBits {
		p := old.pageAt(pg)
		for j, k := range p.keys {
			if k != none {
				i, _ := t.find(k)
				t.set(nil, i, k, p.vals[j])
			}
		}
	}
}

// layOut gives t, which has no pages, size slots of empty pages and a
// directory of its own: in one block, which it returns, listed flat, if
// blocked, and page by page otherwise, listed flat up to leafSize pages
// and under a tree past that.
//
// layOut constructs Index.
func (t *Index[K, V]) layOut(size uint32, blocked bool) []page[K, V] {
	pages := size >> pageBits
	t.size, t.loose = size, 0
	if blocked {
		t.block = make([]page[K, V], pages)
		t.pages = make([]*page[K, V], pages)
		for pg := range t.block {
			t.pages[pg] = &t.block[pg]
		}
		return t.block
	}
	if pages <= leafSize {
		t.pages = make([]*page[K, V], pages)
	}
	for pg := range pages {
		p := new(page[K, V])
		if pages <= leafSize {
			t.pages[pg] = p
			continue
		}
		di, mi := pg>>(leafBits+midBits), pg>>leafBits&midMask
		if mi == 0 && pg&leafMask == 0 {
			t.dir = append(t.dir, new(mid[K, V]))
		}
		if pg&leafMask == 0 {
			t.dir[di][mi] = new(leaf[K, V])
		}
		t.dir[di][mi][pg&leafMask] = p
	}
	return nil
}
