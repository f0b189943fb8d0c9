package core

import (
	"errors"
	"fmt"

	"repro/internal/packet"
	"repro/internal/policy"
)

// This file is the surface the sharded controller runtime (internal/shard)
// builds on: base-station ownership and explicit UE migration between
// controller instances. A restricted controller owns a disjoint slice of
// the access network; because LocIPs embed the base-station ID (§4.1),
// disjoint station sets imply disjoint LocIP sub-pools with no further
// coordination.

// ErrNotOwned marks a request naming a base station outside the
// controller's restricted subset (ControllerConfig.Stations). The shard
// dispatcher uses it to detect misrouted requests after a ring change.
var ErrNotOwned = errors.New("base station not owned by this controller")

// ErrShardDown marks a request that reached a controller shard after its
// failure was declared; the shard dispatcher retries it once, on a fresh
// ring, so callers see it only inside the failover window.
var ErrShardDown = errors.New("shard: controller shard is down")

// ownsLocked reports whether the controller serves bs.
//
// caller holds ueMu
func (c *Controller) ownsLocked(bs packet.BSID) bool {
	r := c.stations.row(bs)
	return r != nil && r.owned
}

// Stations lists the controller's owned base stations in ascending order.
func (c *Controller) Stations() []packet.BSID {
	c.ueMu.RLock()
	defer c.ueMu.RUnlock()
	var out []packet.BSID
	for bs, r := range c.stations {
		if r.owned {
			out = append(out, packet.BSID(bs))
		}
	}
	return out
}

// MigratedUE is the frozen record handed between controllers when a UE
// crosses a shard boundary: what the record said about the device, plus
// where it came from so the new owner can report the move.
type MigratedUE struct {
	IMSI     string
	Attr     policy.Attributes
	PermIP   packet.Addr
	OldBS    packet.BSID
	OldLocIP packet.Addr
}

// ExtractUE freezes and removes a UE's record for migration to another
// controller (phase one of a cross-shard handoff): Detach's removal. The
// shortcuts of its reserved old LocIPs come down — they live in this
// controller's switches only, and the UE's old flows re-resolve on the
// target — and each address stays parked here until its own
// ReleaseOldLocIP, so a late release never frees an address another UE has
// since been given. No path or tag changes: the departure station keeps
// serving its other UEs from the same path table.
func (c *Controller) ExtractUE(imsi string) (MigratedUE, error) {
	return c.removeUE(imsi)
}

// AdoptUE installs a migrated UE at a base station this controller owns
// (phase two of a cross-shard handoff): the permanent IP and attributes
// travel with the record (the subscriber table confirms the address, or
// binds it for an IMSI it never registered), a fresh LocIP is allocated from
// this controller's sub-pool, and classifiers are compiled against this
// controller's path table — so the UE's policy paths keep resolving, now
// through its new shard.
func (c *Controller) AdoptUE(m MigratedUE, bs packet.BSID) (UE, []Classifier, error) {
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	if _, ok := c.T.Station(bs); !ok {
		return UE{}, nil, fmt.Errorf("core: unknown base station %d", bs)
	}
	if !c.ownsLocked(bs) {
		return UE{}, nil, fmt.Errorf("core: adopt at base station %d: %w", bs, ErrNotOwned)
	}
	if _, _, ok := c.ues.get(m.IMSI); ok {
		return UE{}, nil, fmt.Errorf("core: UE %q already present", m.IMSI)
	}
	set, err := c.ues.subs.bind(m.IMSI, m.PermIP, m.Attr, c.ues.inst, c.ues.nextSlot())
	if err != nil {
		return UE{}, nil, err
	}
	r, err := c.newRecordLocked(m.IMSI, set, m.PermIP, bs)
	if err != nil {
		c.ues.subs.release(m.IMSI, c.ues.inst)
		return UE{}, nil, err
	}
	c.handoffs.Add(1)
	return c.ueViewLocked(r), c.classifiersLocked(r), nil
}

// AbsorbStation extends the controller's ownership to bs and imports the
// given UE records verbatim, as RecoverLocations does — the shard-failover
// path: a dead shard's stations move to its neighbours, which rebuild the
// location state from live agents' reports. A record RecoverLocations would
// refuse, a UE this controller holds, or a UE ID it has handed out at bs
// before refuses the call with the state unchanged. A newly absorbed station
// has no paths here yet, so its first path requests install against this
// controller's own rule table and tag sub-space.
func (c *Controller) AbsorbStation(bs packet.BSID, ues []UE) error {
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	if _, ok := c.T.Station(bs); !ok || c.stations.row(bs) == nil {
		return fmt.Errorf("core: unknown base station %d", bs)
	}
	reports := []AgentLocationReport{{BS: bs, UEs: ues}}
	if err := c.checkReportsLocked(reports); err != nil {
		return err
	}
	for _, u := range ues {
		if _, _, ok := c.ues.get(u.IMSI); ok || int(u.UEID) <= len(c.stations[bs].ids) {
			return fmt.Errorf("core: absorbing station %d: UE %q is here, or its UE ID %d was handed out here", bs, u.IMSI, u.UEID)
		}
	}
	c.stations[bs].owned = true
	return c.importLocked(reports)
}
