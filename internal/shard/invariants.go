package shard

import (
	"fmt"
	"sort"

	"repro/internal/packet"
)

// InvariantReport aggregates a cross-shard CheckInvariants pass.
type InvariantReport struct {
	Shards       int // live shards checked
	Paths        int // installed policy paths across live shards
	Rules        int // net TCAM rules across live shards
	Attached     int // UEs with live location state
	Reservations int // in-flight handoff reservations
}

// CheckInvariants verifies the sharded control plane: every live shard's
// controller passes its own CheckInvariants, and on top of that the
// cross-shard sub-space properties the partition is supposed to guarantee:
//
//   - tag disjointness: no tag is installed by two live shards (the
//     TagOffset/TagStride residue classes really are disjoint);
//   - LocIP and permanent-IP uniqueness across live shards;
//   - record uniqueness: no UE's record is held by two live shards;
//   - station routing agreement: every station a live controller owns is
//     routed to that shard by the current ring;
//   - directory coherence: every UE-directory entry routed to a live shard
//     finds the record there (no orphaned forwarding stubs after two-phase
//     handoff), and every live record is reachable through the directory;
//   - one copy of each registration: one "sub/" key per subscriber in the
//     shared store, none in any live shard's own.
//
// Per-shard checks are internally synchronised; the cross-shard comparison
// reads shard snapshots one at a time, so callers that want an exact global
// cut (the chaos harness, tests) must quiesce concurrent mutation first.
func (d *Dispatcher) CheckInvariants() (InvariantReport, error) {
	var rep InvariantReport
	ring := d.Ring()

	type holder struct {
		shard int
		imsi  string
	}
	locs := make(map[packet.Addr]holder)
	perms := make(map[packet.Addr]holder)
	tags := make(map[packet.Tag]int)
	records := make(map[string]int) // IMSI -> live shard holding its record

	for _, s := range d.shards {
		if s.Down() {
			continue
		}
		rep.Shards++
		crep, err := s.Ctrl.CheckInvariants()
		if err != nil {
			return rep, fmt.Errorf("shard %d: %w", s.ID, err)
		}
		rep.Paths += crep.Paths
		rep.Rules += crep.Rules
		rep.Attached += crep.Attached
		rep.Reservations += crep.Reservations
		for _, t := range crep.Tags {
			if other, dup := tags[t]; dup && other != s.ID {
				return rep, fmt.Errorf("shard: tag %d installed by shards %d and %d (residue partition violated)", t, other, s.ID)
			}
			tags[t] = s.ID
		}
		if n := s.Ctrl.Store.Primary().Count("sub/"); n != 0 {
			return rep, fmt.Errorf("shard %d: own store holds %d subscriber records; registrations belong to the shared table only", s.ID, n)
		}
		for _, bs := range s.Ctrl.Stations() {
			owner, ok := ring.Owner(bs)
			if !ok || owner != s.ID {
				return rep, fmt.Errorf("shard: station %d owned by shard %d's controller but ring routes it to %d", bs, s.ID, owner)
			}
		}
		for _, ue := range s.Ctrl.UEs() {
			if prev, dup := records[ue.IMSI]; dup {
				return rep, fmt.Errorf("shard: UE %q held by shards %d and %d", ue.IMSI, prev, s.ID)
			}
			records[ue.IMSI] = s.ID
			if prev, dup := perms[ue.PermIP]; dup {
				return rep, fmt.Errorf("shard: permanent address %s serves UE %q (shard %d) and UE %q (shard %d)",
					ue.PermIP, prev.imsi, prev.shard, ue.IMSI, s.ID)
			}
			perms[ue.PermIP] = holder{s.ID, ue.IMSI}
			if ue.LocIP != 0 {
				if prev, dup := locs[ue.LocIP]; dup {
					return rep, fmt.Errorf("shard: location address %s serves UE %q (shard %d) and UE %q (shard %d)",
						ue.LocIP, prev.imsi, prev.shard, ue.IMSI, s.ID)
				}
				locs[ue.LocIP] = holder{s.ID, ue.IMSI}
			}
		}
	}

	if keys, n := d.subs.Store.Primary().Count("sub/"), d.subs.Len(); keys != n {
		return rep, fmt.Errorf("shard: shared store holds %d subscriber records, the table %d", keys, n)
	}

	// UE directory: snapshot under the dispatcher lock, then resolve each
	// entry through its own stub lock (the documented order).
	imsis, byPerm := d.directorySnapshot()
	unclaimed := make(map[string]int, len(records))
	for imsi, sid := range records {
		unclaimed[imsi] = sid
	}
	for _, imsi := range imsis {
		e, ok := d.lookupEntry(imsi)
		if !ok {
			continue
		}
		e.mu.Lock()
		s := e.shard
		e.mu.Unlock()
		if s == nil || s.Down() {
			// Never attached, or stranded on a dead shard (a detached record
			// failover had nothing to salvage; it re-attaches from scratch).
			continue
		}
		held, dup := records[imsi]
		if !dup {
			return rep, fmt.Errorf("shard: directory routes UE %q to shard %d, which has no record of it (orphaned stub)", imsi, s.ID)
		}
		if held != s.ID {
			return rep, fmt.Errorf("shard: directory routes UE %q to shard %d but its record is on shard %d", imsi, s.ID, held)
		}
		delete(unclaimed, imsi)
	}
	if len(unclaimed) > 0 {
		leftover := make([]string, 0, len(unclaimed))
		for imsi := range unclaimed {
			leftover = append(leftover, imsi)
		}
		sort.Strings(leftover)
		return rep, fmt.Errorf("shard: UE %q held by shard %d but unreachable through the directory", leftover[0], unclaimed[leftover[0]])
	}
	for perm, imsi := range byPerm {
		h, live := perms[perm]
		if !live {
			continue // record on a dead shard; the stale pointer resolves to nothing
		}
		if h.imsi != imsi {
			return rep, fmt.Errorf("shard: dispatcher maps permanent address %s to UE %q but shard %d holds it for %q", perm, imsi, h.shard, h.imsi)
		}
	}

	return rep, nil
}

// directorySnapshot copies the UE directory's key sets under the dispatcher
// lock, so the caller can resolve entries afterwards without holding it.
func (d *Dispatcher) directorySnapshot() ([]string, map[packet.Addr]string) {
	d.mu.RLock()
	imsis := make([]string, 0, len(d.ues))
	for imsi := range d.ues {
		imsis = append(imsis, imsi)
	}
	byPerm := make(map[packet.Addr]string, len(d.byPerm))
	for p, imsi := range d.byPerm {
		byPerm[p] = imsi
	}
	d.mu.RUnlock()
	sort.Strings(imsis)
	return imsis, byPerm
}
