package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
)

// Handoff moves a UE to a new base station. Within one shard this is the
// controller's own §5.1 handoff (old LocIP reserved, shortcuts installed).
// Across a shard boundary it is a two-phase migration:
//
//  1. freeze-on-source: the source shard extracts the UE's record, tearing
//     down its location state and old-LocIP reservations (the shortcut
//     state lives in the source shard's switches only);
//  2. install-on-target: the target shard adopts the record, allocating a
//     LocIP from its own sub-pool and compiling classifiers against its
//     own path table — the UE's policy paths resolve again immediately,
//     now with tags from the target's partition.
//
// For the whole migration the UE's stripe is held locked: it is the
// forwarding stub. In-flight UE-keyed requests that arrive mid-move block
// on the stripe and, once the move commits, read the subscriber table's
// updated holder and go to the target shard; concurrent handoffs of the
// same UE serialise the same way, so exactly one ordering wins.
func (d *Dispatcher) Handoff(imsi string, newBS packet.BSID) (core.HandoffResult, error) {
	sp := d.obs.spHandoff.Root()
	hr, err := d.handoff(sp.Context(), imsi, newBS)
	sp.End()
	return hr, err
}

// HandoffCtx is Handoff continuing the caller's trace (wire-originated
// moves join their frame's span context here).
func (d *Dispatcher) HandoffCtx(sc obs.SpanContext, imsi string, newBS packet.BSID) (core.HandoffResult, error) {
	sp := d.obs.spHandoff.Start(sc)
	hr, err := d.handoff(sp.Context(), imsi, newBS)
	sp.End()
	return hr, err
}

func (d *Dispatcher) handoff(sc obs.SpanContext, imsi string, newBS packet.BSID) (core.HandoffResult, error) {
	target, err := d.ShardOf(newBS)
	if err != nil {
		return core.HandoffResult{}, err
	}
	st := d.stripe(imsi)
	st.mu.Lock()
	defer st.mu.Unlock()
	src := d.holder(imsi)
	if src == nil {
		return core.HandoffResult{}, fmt.Errorf("shard: UE %q is %w", imsi, core.ErrNotAttached)
	}
	if src == target {
		hr, err := src.handoff(sc, imsi, newBS)
		if err == nil {
			d.obs.localDone.Inc()
		}
		return hr, err
	}

	start := d.obs.reg.Now()
	mig, ue, cls, err := migrate(src, target, imsi, newBS)
	if err != nil {
		return core.HandoffResult{}, err
	}
	d.obs.crossDone.Inc()
	d.obs.crossLat.Observe(d.obs.reg.Now() - start)
	return core.HandoffResult{
		UE:       ue,
		OldBS:    mig.OldBS,
		OldLocIP: mig.OldLocIP,
		// Classifiers come from the target shard; no Shortcuts: the old
		// LocIP's state was torn down with the source extraction, so old
		// flows re-resolve through the new classifiers instead of riding a
		// temporary shortcut (a cross-shard soft handoff would need
		// cross-shard FIB writes, which shards by design never do).
		Classifiers: cls,
	}, nil
}

// migrate moves a UE's record between shards in two phases: src extracts
// it, then target adopts it at bs. When target refuses, the record goes
// back onto src at the station it left, so a failed move loses no UE. The
// caller holds the UE's stripe.
func migrate(src, target *Shard, imsi string, bs packet.BSID) (core.MigratedUE, core.UE, []core.Classifier, error) {
	mig, err := src.extract(imsi)
	if err != nil {
		return mig, core.UE{}, nil, err
	}
	ue, cls, err := target.adopt(mig, bs)
	if err != nil {
		if _, _, rerr := src.adopt(mig, mig.OldBS); rerr != nil {
			return mig, core.UE{}, nil, fmt.Errorf("shard: moving UE %q across shards failed (%v) and rollback failed: %w", imsi, err, rerr)
		}
		return mig, core.UE{}, nil, err
	}
	return mig, ue, cls, nil
}
