// Package lockord exercises the cross-function lock-order analyzer: a
// two-mutex cycle closed through a helper call, a declared ordering
// violated interprocedurally and directly, caller-holds seeding, release
// handling, the type-level self-edge exemption, and validation of the
// names a declared ordering lists.
package lockord

import "sync"

// A guards one half of the pair.
type A struct {
	mu sync.Mutex
	n  int
}

// B guards the other half.
type B struct {
	mu sync.Mutex
	n  int
}

// Pair owns both halves.
type Pair struct {
	a A
	b B
}

// Fwd locks a.mu then reaches b.mu through a helper: edge A.mu -> B.mu.
func (p *Pair) Fwd() {
	p.a.mu.Lock()
	defer p.a.mu.Unlock()
	p.lockB() // want `acquiring lockord\.B\.mu while holding lockord\.A\.mu creates a lock-order cycle`
}

// lockB acquires B's mutex.
func (p *Pair) lockB() {
	p.b.mu.Lock()
	p.b.n++
	p.b.mu.Unlock()
}

// Rev locks b.mu then a.mu directly: the reverse edge closes the cycle.
func (p *Pair) Rev() {
	p.b.mu.Lock()
	p.a.mu.Lock() // want `acquiring lockord\.A\.mu while holding lockord\.B\.mu creates a lock-order cycle: lockord\.B\.mu -> lockord\.A\.mu -> lockord\.B\.mu`
	p.a.n++
	p.a.mu.Unlock()
	p.b.mu.Unlock()
}

// Seq releases before acquiring: no edge, no report.
func (p *Pair) Seq() {
	p.b.mu.Lock()
	p.b.n++
	p.b.mu.Unlock()
	p.a.mu.Lock()
	p.a.n++
	p.a.mu.Unlock()
}

// Both locks two instances of the same type through a helper: the
// type-level self edge is deliberately exempt (instance identity is out
// of scope).
func Both(x, y *A) {
	x.mu.Lock()
	lockA(y)
	x.mu.Unlock()
}

func lockA(a *A) {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

// Reg documents muA before muB; Wrong violates it through a helper call.
//
// lock ordering: muA, muB
type Reg struct {
	muA sync.Mutex
	muB sync.Mutex
	n   int
}

// Wrong holds muB and calls a helper that takes muA: against the
// documented direction.
func (r *Reg) Wrong() {
	r.muB.Lock()
	defer r.muB.Unlock()
	r.grabA() // want `acquiring lockord\.Reg\.muA while holding lockord\.Reg\.muB creates a lock-order cycle`
}

// grabA locks muA.
func (r *Reg) grabA() {
	r.muA.Lock()
	r.n++
	r.muA.Unlock()
}

// Hold documents hmA before hmB; underB runs under the inner lock by
// contract and must not reach for the outer one.
//
// lock ordering: hmA, hmB
type Hold struct {
	hmA sync.Mutex
	hmB sync.Mutex
	n   int
}

// underB is documented to run with hmB held.
//
// caller holds hmB
func (h *Hold) underB() {
	h.hmA.Lock() // want `acquiring lockord\.Hold\.hmA while holding lockord\.Hold\.hmB creates a lock-order cycle`
	h.n++
	h.hmA.Unlock()
}

// Registry documents a three-mutex acquisition order.
//
// lock ordering: idxMu, allocMu, tabMu
type Registry struct {
	idxMu   sync.RWMutex
	allocMu sync.Mutex
	tabMu   sync.Mutex
	n       int
}

// Reversed acquires the index lock while still holding the table lock,
// in one body, against the documented order.
func (r *Registry) Reversed() {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	r.idxMu.Lock() // want `acquiring lockord\.Registry\.idxMu while holding lockord\.Registry\.tabMu creates a lock-order cycle`
	r.n = 0
	r.idxMu.Unlock()
}

// Misordered documents an ordering naming a non-mutex field.
//
// lock ordering: mu, gate
type Misordered struct { // want "lock ordering names gate but Misordered.gate is not a sync mutex"
	mu   sync.Mutex
	gate int
}
