// Package lib is a deadexport fixture: exports with and without a caller
// outside tests.
package lib

import "container/heap"

// OnlyTests is called from lib_test.go alone, which is no caller.
func OnlyTests() int { return 1 } // want `\[deadexport\] lib\.OnlyTests has no caller outside tests`

// UsedByMain is called from a main package.
func UsedByMain() int {
	q := &Queue{3, 1, 2}
	heap.Init(q)
	return heap.Pop(q).(int)
}

// Recurse calls only itself, which is no caller either.
func Recurse(n int) int { // want `\[deadexport\] lib\.Recurse has no caller outside tests`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Queue satisfies heap.Interface: container/heap calls its methods, so
// none of them is reported.
type Queue []int

func (q Queue) Len() int           { return len(q) }
func (q Queue) Less(i, j int) bool { return q[i] < q[j] }
func (q Queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *Queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *Queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Peek is a Queue method no interface names and nothing calls.
func (q Queue) Peek() int { return q[0] } // want `\[deadexport\] lib\.Queue\.Peek has no caller outside tests`

// Keyed is a type constraint: generic code calls Hash through it, so a
// type that satisfies it has its Hash kept.
type Keyed interface {
	comparable
	Hash() uint32
}

// ID satisfies Keyed.
type ID uint32

func (i ID) Hash() uint32 { return uint32(i) * 3 }

// Sum hashes keys through the constraint.
func Sum[K Keyed](keys ...K) (h uint32) {
	for _, k := range keys {
		h += k.Hash()
	}
	return h
}

// Kept has no caller, and says why it stays.
//
//lint:ignore deadexport the fixture's suppressed finding
func Kept() int { return 3 }
