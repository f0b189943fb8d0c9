// Package store implements SoftCell's replicated control state (§5.2): a
// versioned key-value store kept strongly consistent across a primary and
// its replicas. The slow-changing controller state (service policy,
// subscriber attributes, policy paths) is written through the store.
//
// Replication is synchronous: every live member applies every commit, in
// sequence order, before Put returns, so no member can hold a state the
// others lack. The committed state is therefore kept once, and a member is
// a name plus the sequence number of the last commit it applied.
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

// Replica is one member of a store: a name and an applied-commit cursor.
// Its reads see the store's one committed map. A member that Failover
// drops keeps the cursor it failed at.
type Replica struct {
	s *Store

	mu      sync.Mutex
	name    string // guarded by mu
	applied uint64 // guarded by mu; last commit sequence applied
}

// Name identifies the replica.
func (r *Replica) Name() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.name
}

// Applied reports the last commit sequence this replica has applied.
func (r *Replica) Applied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// Count is len(Keys(prefix)) without building the list.
func (r *Replica) Count(prefix string) int {
	r.s.mu.RLock()
	defer r.s.mu.RUnlock()
	n := 0
	for k := range r.s.data {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
}

// advance records that the replica has applied commit seq.
func (r *Replica) advance(seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.applied = seq
}

// Store is the replication coordinator: a write commits to the one map and
// advances every live member's cursor before Put returns — the strong
// consistency the paper argues is affordable because this state changes
// slowly.
//
// lock ordering: Store.mu before Replica.mu, a leaf that guards only one
// member's name and cursor.
type Store struct {
	mu       sync.RWMutex
	data     map[string]Entry // guarded by mu; the committed state
	seq      uint64           // guarded by mu
	primary  *Replica         // guarded by mu
	replicas []*Replica       // guarded by mu
}

// New creates a store with a primary and n additional replicas.
func New(nReplicas int) *Store {
	s := &Store{data: make(map[string]Entry)}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.primary = &Replica{s: s, name: "primary"}
	for i := range nReplicas {
		s.replicas = append(s.replicas, &Replica{s: s, name: fmt.Sprintf("replica%d", i)})
	}
	return s
}

// Primary exposes the current primary replica (for reads).
func (s *Store) Primary() *Replica {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.primary
}

// Put writes key=value through the primary to every replica.
func (s *Store) Put(key string, value []byte) (uint64, error) {
	return s.commit(key, value, false), nil
}

// Delete removes a key everywhere.
func (s *Store) Delete(key string) (uint64, error) {
	return s.commit(key, nil, true), nil
}

func (s *Store) commit(key string, value []byte, del bool) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	if del {
		delete(s.data, key)
	} else {
		// Callers routinely pass a reused encoding buffer, so the copy is
		// mandatory. Entries are never mutated in place (a new version is
		// a new commit), so a reader may keep the slice Get returned.
		s.data[key] = Entry{Value: append([]byte(nil), value...), Version: s.seq}
	}
	s.primary.advance(s.seq)
	for _, r := range s.replicas {
		r.advance(s.seq)
	}
	return s.seq
}

// Get reads from the primary.
func (s *Store) Get(key string) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.data[key]
	return e, ok
}

// Keys lists keys by prefix from the primary.
func (s *Store) Keys(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
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
	s.primary.mu.Lock()
	defer s.primary.mu.Unlock()
	s.primary.name = "primary(" + s.primary.name + ")"
	return s.primary, nil
}
