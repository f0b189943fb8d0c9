// Package store implements SoftCell's replicated control state (§5.2): a
// versioned key-value store kept strongly consistent across a primary and
// its replicas. The slow-changing controller state (service policy,
// subscriber attributes, policy paths) is written through the store.
package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Entry is one versioned value.
type Entry struct {
	Value   []byte
	Version uint64 // global commit sequence number of the last write
}

// Replica is a full copy of the store state. The zero value is unusable;
// use NewReplica.
type Replica struct {
	name string

	mu      sync.RWMutex
	data    map[string]Entry // guarded by mu
	applied uint64           // guarded by mu; last commit sequence applied
}

// NewReplica creates an empty replica.
func NewReplica(name string) *Replica {
	return &Replica{name: name, data: make(map[string]Entry)}
}

// Name identifies the replica.
func (r *Replica) Name() string { return r.name }

// Get reads a key.
func (r *Replica) Get(key string) (Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.data[key]
	return e, ok
}

// Applied reports the last commit sequence this replica has applied.
func (r *Replica) Applied() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.applied
}

// Keys returns all keys with the given prefix, sorted.
func (r *Replica) Keys(prefix string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for k := range r.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Count is len(Keys(prefix)) without building the list.
func (r *Replica) Count(prefix string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for k := range r.data {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
}

// apply installs one committed write. The value is owned by the commit:
// the coordinator copies the caller's bytes once and every replica stores
// that same immutable slice, so a fleet-wide write costs one allocation,
// not one per replica. Entries are never mutated in place (a new version
// is a new commit), which is what makes the sharing safe — the same
// property snapshot/load already relied on.
func (r *Replica) apply(seq uint64, key string, value []byte, del bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq != r.applied+1 {
		return fmt.Errorf("store: replica %s at seq %d cannot apply %d", r.name, r.applied, seq)
	}
	if del {
		delete(r.data, key)
	} else {
		r.data[key] = Entry{Value: value, Version: seq}
	}
	r.applied = seq
	return nil
}

// snapshot copies the full state (for catch-up).
func (r *Replica) snapshot() (map[string]Entry, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cp := make(map[string]Entry, len(r.data))
	for k, v := range r.data {
		cp[k] = v
	}
	return cp, r.applied
}

// load replaces the replica state with a snapshot.
func (r *Replica) load(data map[string]Entry, applied uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.data = make(map[string]Entry, len(data))
	for k, v := range data {
		r.data[k] = v
	}
	r.applied = applied
}

// Store is the replication coordinator: writes commit on the primary and
// apply synchronously to every live replica before Put returns — the strong
// consistency the paper argues is affordable because this state changes
// slowly.
type Store struct {
	mu       sync.Mutex
	primary  *Replica   // guarded by mu
	replicas []*Replica // guarded by mu
	seq      uint64     // guarded by mu
}

// New creates a store with a primary and n additional replicas.
func New(nReplicas int) *Store {
	replicas := make([]*Replica, 0, nReplicas)
	for i := 0; i < nReplicas; i++ {
		replicas = append(replicas, NewReplica(fmt.Sprintf("replica%d", i)))
	}
	return &Store{primary: NewReplica("primary"), replicas: replicas}
}

// Primary exposes the current primary replica (for reads).
func (s *Store) Primary() *Replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.primary
}

// Replicas lists the non-primary replicas.
func (s *Store) Replicas() []*Replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Replica(nil), s.replicas...)
}

// Put writes key=value through the primary to every replica.
func (s *Store) Put(key string, value []byte) (uint64, error) {
	return s.commit(key, value, false)
}

// Delete removes a key everywhere.
func (s *Store) Delete(key string) (uint64, error) {
	return s.commit(key, nil, true)
}

func (s *Store) commit(key string, value []byte, del bool) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	// One defensive copy per commit, shared by the primary and every
	// replica (see Replica.apply). Callers routinely pass a reused
	// encoding buffer, so the copy itself is mandatory.
	var cp []byte
	if !del {
		cp = append([]byte(nil), value...)
	}
	if err := s.primary.apply(s.seq, key, cp, del); err != nil {
		s.seq--
		return 0, err
	}
	for _, r := range s.replicas {
		if err := r.apply(s.seq, key, cp, del); err != nil {
			// A replica that cannot apply is out of sync: resynchronise it
			// from the primary rather than failing the write.
			snap, applied := s.primary.snapshot()
			r.load(snap, applied)
		}
	}
	return s.seq, nil
}

// Get reads from the primary.
func (s *Store) Get(key string) (Entry, bool) {
	return s.Primary().Get(key)
}

// Keys lists keys by prefix from the primary.
func (s *Store) Keys(prefix string) []string {
	return s.Primary().Keys(prefix)
}

// Failover promotes the most up-to-date replica to primary, discarding the
// failed one. It returns the new primary, or an error when no replica
// remains.
func (s *Store) Failover() (*Replica, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.replicas) == 0 {
		return nil, fmt.Errorf("store: no replica available for failover")
	}
	best := 0
	for i, r := range s.replicas {
		if r.Applied() > s.replicas[best].Applied() {
			best = i
		}
	}
	s.primary = s.replicas[best]
	s.replicas = append(s.replicas[:best:best], s.replicas[best+1:]...)
	s.primary.name = "primary(" + s.primary.name + ")"
	return s.primary, nil
}

// AddReplica attaches a fresh replica, synchronised from the primary.
func (s *Store) AddReplica(name string) *Replica {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := NewReplica(name)
	snap, applied := s.primary.snapshot()
	r.load(snap, applied)
	s.replicas = append(s.replicas, r)
	return r
}
