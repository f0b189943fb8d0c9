package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/store"
)

// FailoverReport summarises a shard failover.
type FailoverReport struct {
	Shard       int // the failed shard
	Stations    int // base stations rehashed to survivors
	FromReports int // UEs rebuilt from live agents' location reports
	FromStore   int // UEs rebuilt from the replicated store alone
	Dropped     int // report/store records at stations the dead shard did not own
}

func (r FailoverReport) String() string {
	return fmt.Sprintf("shard %d failed: %d stations rehashed, %d UEs from agent reports, %d from store, %d dropped",
		r.Shard, r.Stations, r.FromReports, r.FromStore, r.Dropped)
}

// salvageUEs reads the dead shard's UE records out of a surviving store
// replica. The shard process is gone, but the §5.2 replicated store is
// exactly the state designed to outlive it; with no replica configured the
// primary's in-memory copy stands in (a modelling convenience).
func salvageUEs(st *store.Store) (map[string]core.UE, error) {
	var rep *store.Replica
	if replicas := st.Replicas(); len(replicas) > 0 {
		rep = replicas[0]
	} else {
		rep = st.Primary()
	}
	out := make(map[string]core.UE)
	for _, key := range rep.Keys("ue/") {
		entry, ok := rep.Get(key)
		if !ok {
			continue
		}
		ue, err := core.DecodeUERecord(entry.Value)
		if err != nil {
			return nil, fmt.Errorf("shard: corrupt store record %q: %w", key, err)
		}
		out[ue.IMSI] = ue
	}
	return out, nil
}

// FailShard declares a shard dead and rebuilds its slice of the control
// plane on the survivors:
//
//   - the shard leaves the ring, so its base stations rehash to the
//     surviving shards (consistent hashing moves only the dead shard's
//     stations — every other station keeps its owner);
//   - its UE-location state is reassembled from live agents' location
//     reports (authoritative, per §5.2's recovery argument) merged with
//     the UE records salvaged from its replicated store (covering agents
//     that did not answer);
//   - each reassembled station is absorbed by its new owner, which
//     extends its ownership and imports the records verbatim.
//
// Requests racing the failover see ErrShardDown once and retry against
// the fresh ring (see Dispatcher.RequestPath).
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
	// ErrShardDown, and the operations already inside are waited out, so
	// whatever they commit is in the store before it is read — and trip its
	// breaker so stragglers fail fast instead of probing a corpse.
	d.ring.Store(newRing)
	victim.close()
	victim.adm.trip()

	rep := FailoverReport{Shard: id}
	salvaged, err := salvageUEs(victim.Ctrl.Store)
	if err != nil {
		return rep, err
	}

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

	// Merge: agent reports are authoritative for location; store records
	// fill in UEs whose agents did not answer. Only stations the dead
	// shard owned are rebuilt — anything else is another shard's live
	// state and must not be overwritten.
	ownedByVictim := func(bs packet.BSID) bool { return victimOwned[bs] }
	byBS := make(map[packet.BSID][]core.UE)
	seen := make(map[string]bool)
	for _, r := range reports {
		if !ownedByVictim(r.BS) {
			rep.Dropped += len(r.UEs)
			continue
		}
		for _, u := range r.UEs {
			u.BS = r.BS
			byBS[r.BS] = append(byBS[r.BS], u)
			seen[u.IMSI] = true
			rep.FromReports++
		}
	}
	for imsi, u := range salvaged {
		if seen[imsi] {
			continue
		}
		if !ownedByVictim(u.BS) {
			rep.Dropped++
			continue
		}
		byBS[u.BS] = append(byBS[u.BS], u)
		rep.FromStore++
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
	d.obs.evFailover.Emit(int64(rep.Shard), int64(rep.Stations),
		int64(rep.FromReports+rep.FromStore), int64(rep.Dropped))
	return rep, nil
}
