package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/store"
)

// ErrPermPoolExhausted marks an attach refused because every address of the
// permanent pool is bound to a subscriber.
var ErrPermPoolExhausted = errors.New("permanent address pool exhausted")

// subRec is what the table knows about one IMSI, kept pointer-free and at 12
// bytes: the map holds one per registration. holder and slot together say
// where the UE's location record lives; nothing else in the controller
// records it.
type subRec struct {
	perm   packet.Addr // permanent address; 0 until the first attach binds one
	set    uint16      // index into sets; 0 = not registered (known only through bind)
	holder uint16      // controller instance holding the location record; 0 = detached
	slot   uint32      // the record's slot in the holder's UE table; 0 while detached
}

// Subscribers is the subscriber database (the HSS equivalent): the
// slow-changing facts the paper keeps once for every controller instance
// (§5.2). It is the only place that knows a subscriber's attributes, its
// permanent address — drawn from the one pool at first attach and never
// released, so it survives detach, re-attach on any instance and the death
// of the instance that served it — and, in memory only, which instance holds
// its location record and at which slot of that instance's UE table. A single
// controller builds its own over its store, the shard dispatcher one for all
// its shards; each registration is written through once as "sub/<imsi>",
// while address bindings and holder marks are kept in memory only. Its lock
// is a leaf above the store's.
type Subscribers struct {
	Store *store.Store  // where registrations are written through to
	Pool  packet.Prefix // the block permanent addresses are drawn from; fixed at construction
	mu    sync.RWMutex
	// Subscribers share a handful of distinct attribute sets, so a record
	// here and a UE record at its holder index the set; sets only grows (by
	// the sets ever registered or imported).
	byIMSI     map[string]subRec            // guarded by mu
	imsiOf     map[packet.Addr]string       // guarded by mu; the reverse of subRec.perm
	sets       []policy.Attributes          // guarded by mu; sets[0] stands for "not registered"
	setIdx     map[policy.Attributes]uint16 // guarded by mu
	next       uint32                       // guarded by mu; host part of the last address drawn
	instances  uint16                       // guarded by mu; controllers that joined
	registered int                          // guarded by mu
	imsiBytes  uint64                       // guarded by mu
	encBuf     []byte                       // guarded by mu; Store.Put copies it
}

// NewSubscribers builds an empty table written through to st, binding
// permanent addresses from pool (zero value = 100.64.0.0/10).
func NewSubscribers(st *store.Store, pool packet.Prefix) *Subscribers {
	if pool == (packet.Prefix{}) {
		pool = packet.NewPrefix(packet.AddrFrom4(100, 64, 0, 0), 10)
	}
	return &Subscribers{Store: st, Pool: pool, byIMSI: map[string]subRec{}, imsiOf: map[packet.Addr]string{},
		sets: make([]policy.Attributes, 1), setIdx: map[policy.Attributes]uint16{}}
}

// Register loads one subscriber record, replacing any earlier attributes;
// the subscriber's address and holder are untouched.
func (s *Subscribers) Register(imsi string, attr policy.Attributes) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, err := s.internLocked(attr)
	if err != nil {
		return err
	}
	rec, known := s.byIMSI[imsi]
	if !known {
		s.imsiBytes += uint64(len(imsi))
	}
	if rec.set == 0 {
		s.registered++
	}
	rec.set = set
	s.byIMSI[imsi] = rec
	s.encBuf = AppendSubscriberRecord(s.encBuf[:0], attr)
	_, err = s.Store.Put("sub/"+imsi, s.encBuf)
	return err
}

// internLocked returns attr's set index, adding the set the first time it
// is seen. The index is the one handle a UE record keeps on its attributes.
//
// caller holds mu
func (s *Subscribers) internLocked(attr policy.Attributes) (uint16, error) {
	if set, ok := s.setIdx[attr]; ok {
		return set, nil
	}
	if len(s.sets) > int(^uint16(0)) {
		return 0, fmt.Errorf("core: subscriber table holds %d distinct attribute sets, its limit", len(s.sets)-1)
	}
	set := uint16(len(s.sets))
	s.sets = append(s.sets, attr)
	s.setIdx[attr] = set
	return set, nil
}

// attrsOf returns the attributes of set; ok is false for an index the table
// never handed out.
func (s *Subscribers) attrsOf(set uint16) (attr policy.Attributes, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if set == 0 || int(set) >= len(s.sets) {
		return policy.Attributes{}, false
	}
	return s.sets[set], true
}

// Holder reports which controller instance (Controller.Instance) holds the
// subscriber's location record; 0 means it is detached.
func (s *Subscribers) Holder(imsi string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int(s.byIMSI[imsi].holder)
}

// HeldBy counts the subscribers whose location record the table marks as
// held by controller instance inst.
func (s *Subscribers) HeldBy(inst int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, rec := range s.byIMSI {
		if int(rec.holder) == inst {
			n++
		}
	}
	return n
}

// ReleaseAll clears every holder mark naming controller instance inst, in one
// scan, and returns how many it cleared: the records of a failed instance
// that nothing rebuilt are gone with it, so their subscribers are detached.
// Their addresses stay bound.
func (s *Subscribers) ReleaseAll(inst int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for imsi, rec := range s.byIMSI {
		if int(rec.holder) == inst {
			rec.holder, rec.slot = 0, 0
			s.byIMSI[imsi] = rec
			n++
		}
	}
	return n
}

// ByPerm resolves a permanent address to the subscriber it is bound to.
func (s *Subscribers) ByPerm(perm packet.Addr) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	imsi, ok := s.imsiOf[perm]
	return imsi, ok
}

// Len counts the registered subscribers.
func (s *Subscribers) Len() int { return s.MemStats().Subscribers }

// MemStats reports the table's share of a snapshot. IndexBytes estimates the
// two Go maps, 2 in 3 slots occupied: 33 B a record slot (16 B string, 12 B
// record padded to 16, control byte) and 25 B an address slot (4 B address
// padded to 8, 16 B string, control byte).
func (s *Subscribers) MemStats() MemStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slotBytes := uint64(len(s.byIMSI))*33 + uint64(len(s.imsiOf))*25
	return MemStats{Subscribers: s.registered, IndexBytes: slotBytes * 3 / 2, IMSIBytes: s.imsiBytes}
}

// join numbers a controller that will admit from the table, from 1.
func (s *Subscribers) join() uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.instances++
	return s.instances
}

// locate reports which controller instance holds the UE's location record
// and at which slot of its UE table; holder 0 means it is detached.
func (s *Subscribers) locate(imsi string) (holder uint16, slot uint32) {
	s.mu.RLock()
	rec := s.byIMSI[imsi]
	s.mu.RUnlock()
	return rec.holder, rec.slot
}

// admit makes inst the holder of a registered subscriber's location record,
// to be filled at slot, and returns what the record needs: the index of the
// attribute set registered now, and the permanent address, drawn from the
// pool if this is the first attach.
func (s *Subscribers) admit(imsi string, inst uint16, slot uint32) (uint16, packet.Addr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.byIMSI[imsi]
	if rec.set == 0 {
		return 0, 0, fmt.Errorf("core: unknown subscriber %q", imsi)
	}
	if rec.perm == 0 {
		if s.next >= 1<<(32-s.Pool.Len)-1 {
			return 0, 0, fmt.Errorf("core: attach of %q: %w", imsi, ErrPermPoolExhausted)
		}
		s.next++
		rec.perm = s.Pool.Addr | packet.Addr(s.next)
		s.imsiOf[rec.perm] = imsi
	}
	rec.holder, rec.slot = inst, slot
	s.byIMSI[imsi] = rec
	return rec.set, rec.perm, nil
}

// bind makes inst the holder, at slot, of a UE imported with its address and
// attributes (a migrated record or an agent's report), registered here or
// not, and returns the index of the imported set, which it interns without
// registering the subscriber under it. An address the table already bound
// wins over a differing import, and the pool never draws an imported
// address again.
func (s *Subscribers) bind(imsi string, perm packet.Addr, attr policy.Attributes, inst uint16, slot uint32) (uint16, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bindConflictLocked(imsi, perm); err != nil {
		return 0, err
	}
	set, err := s.internLocked(attr)
	if err != nil {
		return 0, err
	}
	rec, known := s.byIMSI[imsi]
	if !known {
		s.imsiBytes += uint64(len(imsi))
	}
	if host := uint32(perm &^ s.Pool.Addr); s.Pool.Contains(perm) && host > s.next {
		s.next = host
	}
	rec.perm, rec.holder, rec.slot = perm, inst, slot
	s.byIMSI[imsi] = rec
	s.imsiOf[perm] = imsi
	return set, nil
}

// checkBind reports whether bind would refuse imsi with perm, changing
// nothing: a recovery checks every report before it discards any state.
func (s *Subscribers) checkBind(imsi string, perm packet.Addr) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bindConflictLocked(imsi, perm)
}

// bindConflictLocked refuses an import of imsi with perm when the table
// binds perm to another IMSI or imsi to another address.
//
// caller holds mu
func (s *Subscribers) bindConflictLocked(imsi string, perm packet.Addr) error {
	rec := s.byIMSI[imsi]
	if other, bound := s.imsiOf[perm]; (bound && other != imsi) || (rec.perm != 0 && rec.perm != perm) {
		return fmt.Errorf("core: UE %q imported with permanent address %s; the table binds that address to %q and that UE to %s", imsi, perm, other, rec.perm)
	}
	return nil
}

// release records that inst no longer holds the UE's location record; a
// holder that has since changed (failover rebuilt the UE elsewhere) stays.
func (s *Subscribers) release(imsi string, inst uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec := s.byIMSI[imsi]; rec.holder == inst {
		rec.holder, rec.slot = 0, 0
		s.byIMSI[imsi] = rec
	}
}

// audit checks that every bound address is indexed back to its IMSI and
// nothing else is, and lists the subscribers whose location record inst is
// marked as holding, with their records (CheckInvariants compares the
// addresses and slots to its own records).
func (s *Subscribers) audit(inst uint16) (map[string]subRec, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	held := make(map[string]subRec)
	bound := 0
	for imsi, rec := range s.byIMSI {
		if rec.perm != 0 {
			bound++
			if got := s.imsiOf[rec.perm]; got != imsi {
				return nil, fmt.Errorf("core: subscriber %q is bound to %s, which the reverse index gives to %q", imsi, rec.perm, got)
			}
		}
		if rec.holder == inst {
			held[imsi] = rec
		}
	}
	if bound != len(s.imsiOf) {
		return nil, fmt.Errorf("core: subscriber table binds %d addresses, its reverse index holds %d", bound, len(s.imsiOf))
	}
	return held, nil
}
