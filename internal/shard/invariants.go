package shard

import (
	"fmt"

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
//   - holder agreement: UE-keyed requests are routed by the subscriber
//     table's holder mark, so every record on a live shard must be marked as
//     held by that shard (checked here), and every mark naming a live shard
//     must find the record there (each controller's own pass checks the
//     marks that name it — no orphaned stubs after a two-phase handoff),
//     and no mark names a dead shard (failover rebuilt or released each);
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
			if n := d.subs.HeldBy(s.Ctrl.Instance()); n != 0 {
				return rep, fmt.Errorf("shard: the subscriber table marks %d UEs held by dead shard %d", n, s.ID)
			}
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
			if h := d.holder(ue.IMSI); h != s {
				return rep, fmt.Errorf("shard: UE %q's record is on shard %d but the subscriber table marks holder %d (shard id + 1; 0 = none)", ue.IMSI, s.ID, d.subs.Holder(ue.IMSI))
			}
			if prev, dup := perms[ue.PermIP]; dup {
				return rep, fmt.Errorf("shard: permanent address %s serves UE %q (shard %d) and UE %q (shard %d)",
					ue.PermIP, prev.imsi, prev.shard, ue.IMSI, s.ID)
			}
			perms[ue.PermIP] = holder{s.ID, ue.IMSI}
			if prev, dup := locs[ue.LocIP]; dup {
				return rep, fmt.Errorf("shard: location address %s serves UE %q (shard %d) and UE %q (shard %d)",
					ue.LocIP, prev.imsi, prev.shard, ue.IMSI, s.ID)
			}
			locs[ue.LocIP] = holder{s.ID, ue.IMSI}
		}
	}

	if keys, n := d.subs.Store.Primary().Count("sub/"), d.subs.Len(); keys != n {
		return rep, fmt.Errorf("shard: shared store holds %d subscriber records, the table %d", keys, n)
	}

	return rep, nil
}
