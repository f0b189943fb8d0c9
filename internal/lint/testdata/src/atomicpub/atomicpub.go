// Package atomicpub exercises both halves of the atomicpub analyzer:
// mixed atomic/plain field access, and writes to immutable-after-publish
// types outside construction.
package atomicpub

import "sync/atomic"

// Ctr mixes atomic and plain access to hits; cold is plain-only and fine.
type Ctr struct {
	hits uint64
	cold uint64
}

// Bump is the atomic writer that marks hits as an atomic field.
func (c *Ctr) Bump() { atomic.AddUint64(&c.hits, 1) }

// Peek reads the atomic field plainly: a race.
func (c *Ctr) Peek() uint64 {
	return c.hits // want `plain access to Ctr\.hits, which is accessed with atomic\.AddUint64 elsewhere`
}

// Reset writes it plainly: also a race.
func (c *Ctr) Reset() {
	c.hits = 0 // want `plain access to Ctr\.hits`
	c.cold = 0
}

// Read is the sanctioned accessor.
func (c *Ctr) Read() uint64 { return atomic.LoadUint64(&c.hits) }

// Snap is a published compiled table.
//
// Snap is immutable after publish.
type Snap struct {
	gen  uint64
	rows []int
}

// Build constructs a Snap; it returns the type, so writes are allowed.
func Build(n int) *Snap {
	s := &Snap{}
	s.gen = 1
	s.rows = make([]int, n)
	s.rows[0] = n
	return s
}

// fill is a blessed builder helper.
//
// fill constructs Snap.
func fill(s *Snap, n int) {
	s.gen = uint64(n)
}

// Local writes a local built fresh in the same body: still unpublished.
func Local() {
	s := &Snap{}
	s.gen = 2
	fill(s, 3)
}

// Mutate writes a snapshot it did not build: the violation.
func Mutate(s *Snap) {
	s.gen++       // want `write to Snap outside construction`
	s.rows[0] = 9 // want `write to Snap outside construction`
}

// Overwrite replaces a published snapshot whole through its pointer: the
// same violation as Mutate, in one statement.
func Overwrite(s, from *Snap) {
	*s = *from // want `write to Snap outside construction`
}

// Repoint stores a pointer, not a snapshot: the published value is
// untouched.
func Repoint(dst **Snap, s *Snap) {
	*dst = s
}

// Table is an immutable-after-publish map type.
//
// Table is immutable after publish.
type Table map[string]int

// NewTable builds one.
func NewTable() Table {
	t := make(Table)
	t["a"] = 1
	return t
}

// Poke writes through a parameter: published state.
func Poke(t Table) {
	t["b"] = 2 // want `write to Table outside construction`
}
