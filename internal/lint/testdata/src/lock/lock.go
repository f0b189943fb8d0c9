// Package lock is a lockcheck fixture: guarded-field annotations, the
// caller-holds escape, and the self-deadlock heuristic.
package lock

import "sync"

// Counter is a mutex-guarded counter.
type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
	ok int
}

// Inc acquires the mutex before touching the guarded field.
func (c *Counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Peek reads the guarded field without the lock.
func (c *Counter) Peek() int {
	return c.n // want "Counter.n is guarded by mu"
}

// Unguarded may touch ok freely: it carries no annotation.
func (c *Counter) Unguarded() int {
	return c.ok
}

// addLocked is exempted by annotation.
//
// caller holds mu
func (c *Counter) addLocked(d int) {
	c.n += d
}

// Add locks and delegates to the annotated helper.
func (c *Counter) Add(d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(d)
}

// Double calls a locking method while already holding the mutex.
func (c *Counter) Double() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Inc() // want "self-deadlock"
}

// Drain reads the guarded field from a plain function, no lock in sight.
func Drain(c *Counter) int {
	return c.n // want "Counter.n is guarded by mu"
}

// DrainLocked does the same but visibly acquires the mutex first.
func DrainLocked(c *Counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Sloppy names a guard that is not a mutex in the struct.
type Sloppy struct {
	data int // guarded by lock; want "not a sync mutex"
	lock int
}

// Registry splits its state across three mutexes, each guarding its own
// fields.
type Registry struct {
	idxMu   sync.RWMutex
	allocMu sync.Mutex
	tabMu   sync.Mutex

	names map[string]int // guarded by idxMu
	next  int            // guarded by allocMu
	table []int          // guarded by tabMu
}

// Lookup takes only the read lock of the index mutex.
func (r *Registry) Lookup(s string) int {
	r.idxMu.RLock()
	defer r.idxMu.RUnlock()
	return r.names[s]
}

// Register nests the allocator and table locks inside the index lock.
func (r *Registry) Register(s string) int {
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	r.allocMu.Lock()
	id := r.next
	r.next++
	r.allocMu.Unlock()
	r.names[s] = id
	r.tabMu.Lock()
	r.table = append(r.table, id)
	r.tabMu.Unlock()
	return id
}

// CrossGuard holds a mutex — just not the one guarding the field.
func (r *Registry) CrossGuard() int {
	r.tabMu.Lock()
	defer r.tabMu.Unlock()
	return r.next // want "Registry.next is guarded by allocMu"
}

// Sequenced takes each lock for the field it guards, one after the other.
func (r *Registry) Sequenced() {
	r.tabMu.Lock()
	r.table = nil
	r.tabMu.Unlock()
	r.allocMu.Lock()
	r.next = 0
	r.allocMu.Unlock()
}
