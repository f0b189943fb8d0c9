package core

import (
	"sync"

	"repro/internal/policy"
	"repro/internal/store"
)

// Subscribers is the subscriber database (the HSS equivalent): IMSI ->
// attributes, the slow-changing state the paper keeps in one replicated
// store every controller instance reads (§5.2). It is the only place a
// registration lives: a single controller builds its own over its store,
// the shard dispatcher one for all its shards, and each registration is
// written through once as "sub/<imsi>". Its lock is a leaf above the store's.
type Subscribers struct {
	Store *store.Store // where registrations are written through to
	mu    sync.RWMutex
	// Subscribers share a handful of distinct attribute sets, so a record
	// points at its set, not a copy; sets only grows (by the sets ever seen).
	byIMSI    map[string]*policy.Attributes            // guarded by mu
	sets      map[policy.Attributes]*policy.Attributes // guarded by mu
	imsiBytes uint64                                   // guarded by mu
	encBuf    []byte                                   // guarded by mu; Store.Put copies it
}

// NewSubscribers builds an empty table written through to st.
func NewSubscribers(st *store.Store) *Subscribers {
	return &Subscribers{Store: st, byIMSI: map[string]*policy.Attributes{}, sets: map[policy.Attributes]*policy.Attributes{}}
}

// Register loads one subscriber record, replacing any earlier one.
func (s *Subscribers) Register(imsi string, attr policy.Attributes) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.sets[attr]
	if !ok {
		set = new(policy.Attributes)
		*set = attr
		s.sets[attr] = set
	}
	if _, known := s.byIMSI[imsi]; !known {
		s.imsiBytes += uint64(len(imsi))
	}
	s.byIMSI[imsi] = set
	s.encBuf = AppendSubscriberRecord(s.encBuf[:0], attr)
	_, err := s.Store.Put("sub/"+imsi, s.encBuf)
	return err
}

// Lookup returns a subscriber's registered attributes.
func (s *Subscribers) Lookup(imsi string) (policy.Attributes, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if set := s.byIMSI[imsi]; set != nil {
		return *set, true
	}
	return policy.Attributes{}, false
}

// Len counts the registered subscribers.
func (s *Subscribers) Len() int { return s.MemStats().Subscribers }

// MemStats reports the table's share of a snapshot. IndexBytes estimates the
// Go map: 25 B a slot (string header, pointer, control byte), 2 in 3 occupied.
func (s *Subscribers) MemStats() MemStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.byIMSI)
	return MemStats{Subscribers: n, IndexBytes: uint64(n) * 25 * 3 / 2, IMSIBytes: s.imsiBytes}
}
