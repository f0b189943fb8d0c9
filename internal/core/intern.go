package core

import "repro/internal/policy"

// This file holds the controller's attribute intern pool (DESIGN.md §14).
// At city scale thousands of UEs share a handful of distinct
// subscriber-attribute sets, and every attribute set compiles to the same
// classifier list. UE records therefore store a 32-bit handle into a
// deduplicated, refcounted pool instead of a private copy: one entry per
// distinct set, reference-counted so an entry is reclaimed exactly when
// the last holder releases it.

// attrHandle names one interned attribute set; 0 means "none".
type attrHandle uint32

// attrEntry is one distinct subscriber-attribute set plus its compiled
// classifier template (policy.Compile is a pure function of the attributes,
// so compiling once per distinct set replaces compiling once per attach).
type attrEntry struct {
	attr     policy.Attributes
	compiled []policy.ClassifierEntry
	refs     uint32
}

// attrPool interns policy.Attributes. It is not internally synchronised:
// the owning Controller guards it with ueMu.
type attrPool struct {
	byAttr  map[policy.Attributes]attrHandle
	entries []attrEntry // entries[h-1] backs handle h
	free    []attrHandle
	hits    uint64
	misses  uint64
}

func newAttrPool() attrPool {
	return attrPool{byAttr: make(map[policy.Attributes]attrHandle)}
}

// acquire interns attr (compiling its classifier template on first sight)
// and takes one reference.
func (p *attrPool) acquire(attr policy.Attributes, pol *policy.Policy) attrHandle {
	if h, ok := p.byAttr[attr]; ok {
		p.hits++
		p.entries[h-1].refs++
		return h
	}
	p.misses++
	var h attrHandle
	if n := len(p.free); n > 0 {
		h = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		p.entries = append(p.entries, attrEntry{})
		h = attrHandle(len(p.entries))
	}
	e := &p.entries[h-1]
	e.attr = attr
	e.compiled = pol.Compile(attr)
	e.refs = 1
	p.byAttr[attr] = h
	return h
}

// release drops one reference; the entry is reclaimed when the count hits
// zero (the refcount-zero property the quick tests pin).
func (p *attrPool) release(h attrHandle) {
	if h == 0 {
		return
	}
	e := &p.entries[h-1]
	e.refs--
	if e.refs > 0 {
		return
	}
	delete(p.byAttr, e.attr)
	*e = attrEntry{}
	p.free = append(p.free, h)
}

// attrOf returns the interned attribute set (zero value for handle 0).
func (p *attrPool) attrOf(h attrHandle) policy.Attributes {
	if h == 0 {
		return policy.Attributes{}
	}
	return p.entries[h-1].attr
}

// compiled returns the interned classifier template. The slice is shared:
// callers must not mutate it.
func (p *attrPool) compiled(h attrHandle) []policy.ClassifierEntry {
	if h == 0 {
		return nil
	}
	return p.entries[h-1].compiled
}

// liveEntries counts distinct interned attribute sets.
func (p *attrPool) liveEntries() int { return len(p.byAttr) }

// refs reports one entry's live reference count (invariant audits).
func (p *attrPool) refs(h attrHandle) uint32 {
	if h == 0 {
		return 0
	}
	return p.entries[h-1].refs
}

// totalRefs sums the live reference counts.
func (p *attrPool) totalRefs() uint64 {
	var n uint64
	for i := range p.entries {
		n += uint64(p.entries[i].refs)
	}
	return n
}
