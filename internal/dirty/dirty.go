// Package dirty is a set of tables, by index, that changed since the set's
// one reader last drained it: each table marks itself at every change, and
// the reader visits the marked ones instead of checking every table. The
// controller's FIBs mark one set, for the data plane's Sync, and the
// switches another, for the fast path's Warm.
//
// Marking and draining are atomic, so a writer takes no lock the reader
// holds. A table marked while a drain runs is visited by that drain or by
// the next one, so a reader that re-reads a table's state after taking it
// out of the set misses no change. Only one goroutine may drain a set.
package dirty

import (
	"math/bits"
	"sync/atomic"
)

// Set is a set of tables 0..n-1.
type Set struct {
	words []atomic.Uint64
}

// New returns a set of n tables with every one marked, so the first drain
// visits them all.
func New(n int) *Set {
	s := &Set{words: make([]atomic.Uint64, (n+63)/64)}
	for i := range n {
		s.Mark(i)
	}
	return s
}

// Mark adds table i to the set; a nil set ignores it.
func (s *Set) Mark(i int) {
	if s == nil {
		return
	}
	s.add(i/64, uint64(1)<<(i%64))
}

// add sets the bits of mask in word w.
func (s *Set) add(w int, mask uint64) {
	for {
		old := s.words[w].Load()
		if old&mask == mask || s.words[w].CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// Drain calls f with each table in the set, ascending, taking it out
// first, until f returns false: that table and the ones after it stay in
// the set for the next drain.
func (s *Set) Drain(f func(i int) bool) {
	for w := range s.words {
		for x := s.words[w].Swap(0); x != 0; x &= x - 1 {
			if !f(w*64 + bits.TrailingZeros64(x)) {
				s.add(w, x)
				return
			}
		}
	}
}
