package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/packet"
)

// FailoverReport summarises a shard failover.
type FailoverReport struct {
	Shard       int // the failed shard
	Stations    int // base stations rehashed to survivors
	FromReports int // UEs rebuilt from live agents' location reports
	Lost        int // UEs the dead shard held that no agent reported: now detached
	Dropped     int // reported UEs at stations the dead shard did not own
}

func (r FailoverReport) String() string {
	return fmt.Sprintf("shard %d failed: %d stations rehashed, %d UEs from agent reports, %d lost, %d dropped",
		r.Shard, r.Stations, r.FromReports, r.Lost, r.Dropped)
}

// FailShard declares a shard dead and rebuilds its slice of the control
// plane on the survivors:
//
//   - the shard leaves the ring, so its base stations rehash to the
//     surviving shards (consistent hashing moves only the dead shard's
//     stations — every other station keeps its owner);
//   - its UE-location state is reassembled from live agents' location
//     reports alone (§5.2: location state is rebuilt by querying the local
//     agents); each reassembled station is absorbed by its new owner, which
//     extends its ownership and imports the reported records verbatim;
//   - a UE the dead shard held that no agent reported is lost: its holder
//     mark is cleared, so it is detached — its permanent address stays
//     bound, UE-keyed operations on it fail with core.ErrNotAttached, and
//     its next Attach, on any shard, restores it under the same address.
//
// Requests racing the failover see ErrShardDown once and retry against
// the fresh ring (see Dispatcher.RequestPath); a UE-keyed request for a UE
// the dead shard held sees ErrShardDown until FailShard returns.
func (d *Dispatcher) FailShard(id int, reports []core.AgentLocationReport) (FailoverReport, error) {
	d.failMu.Lock()
	defer d.failMu.Unlock()
	if id < 0 || id >= len(d.shards) {
		return FailoverReport{}, fmt.Errorf("shard: no shard %d", id)
	}
	victim := d.shards[id]
	if victim.Down() {
		return FailoverReport{}, fmt.Errorf("shard: shard %d already down", id)
	}
	oldRing := d.Ring()
	newRing := oldRing.Without(id)
	if newRing.Len() == 0 {
		return FailoverReport{}, fmt.Errorf("shard: cannot fail the last shard")
	}
	// Publish the new ring first so no new request routes to the victim,
	// then declare it dead — callers waiting at its bound leave with
	// ErrShardDown, and the operations already inside are waited out, so no
	// holder mark naming it changes after this — and trip its breaker so
	// stragglers fail fast instead of probing a corpse.
	d.ring.Store(newRing)
	victim.close()
	victim.adm.trip()

	rep := FailoverReport{Shard: id}

	// The victim's live owned set (its construction-time stations plus any
	// it absorbed in earlier failovers) is what must be rehashed — every
	// one of them, populated or not, so path requests at empty stations
	// keep working.
	victimStations := victim.Ctrl.Stations()
	victimOwned := make(map[packet.BSID]bool, len(victimStations))
	for _, bs := range victimStations {
		victimOwned[bs] = true
	}
	rep.Stations = len(victimStations)

	// Only stations the dead shard owned are rebuilt — a report for any
	// other is another shard's live state and must not overwrite it.
	byBS := make(map[packet.BSID][]core.UE)
	for _, r := range reports {
		if !victimOwned[r.BS] {
			rep.Dropped += len(r.UEs)
			continue
		}
		for _, u := range r.UEs {
			u.BS = r.BS
			byBS[r.BS] = append(byBS[r.BS], u)
			rep.FromReports++
		}
	}

	for _, bs := range victimStations {
		owner, ok := newRing.Owner(bs)
		if !ok {
			return rep, fmt.Errorf("shard: empty ring during failover")
		}
		s := d.shards[owner]
		ues := byBS[bs] // may be empty — ownership still transfers
		if err := s.absorb(bs, ues); err != nil {
			return rep, err
		}
	}
	// Absorbing re-marked every reported UE with its new holder; what still
	// names the victim had no report.
	rep.Lost = d.subs.ReleaseAll(victim.Ctrl.Instance())
	d.obs.evFailover.Emit(int64(rep.Shard), int64(rep.Stations),
		int64(rep.FromReports), int64(rep.Lost))
	return rep, nil
}
