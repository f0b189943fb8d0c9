package core

import (
	"fmt"
	"sort"

	"repro/internal/packet"
)

// AgentView is the controller's exportable image of one base station's
// agent state: every UE currently attached there with its compiled
// classifiers and its reserved old LocIPs, plus the station's admitted
// (clause -> tag) grants from the path table. It is the payload a
// dispatcher pushes to the station's local agent as an immutable snapshot
// (agent.NewSnapshot), replacing the synchronous per-flow classifier fetch:
// the agent keeps classifying on the last pushed view through any
// controller outage.
type AgentView struct {
	BS packet.BSID
	// Epoch is the controller's tag-plan epoch at export time: it advances
	// on every path install and wholesale rebuild, so two views with
	// equal epochs were cut from the same plan.
	Epoch uint64
	UEs   []AgentViewUE
	Tags  []TagGrant
}

// AgentViewUE pairs one attached UE with its compiled service policy and
// the old LocIPs its unfinished handoffs still reserve (§5.1), ascending:
// the station's agent keeps delivering to them until their release.
type AgentViewUE struct {
	UE          UE
	Classifiers []Classifier
	Reserved    []packet.Addr
}

// TagGrant records one admitted policy path at the view's station.
type TagGrant struct {
	Clause int
	Tag    packet.Tag
}

// Epoch reports the controller's current tag-plan epoch.
func (c *Controller) Epoch() uint64 { return c.epoch.Load() }

// AgentView assembles the pushable snapshot of one owned station: its
// attached UEs (sorted by IMSI) with classifiers resolved against the
// station's current row of the path table, and the station's tag grants
// (sorted by clause). The orderings make same-seed exports byte-identical,
// which the chaos harness's determinism checks rely on.
func (c *Controller) AgentView(bs packet.BSID) (AgentView, error) {
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	if !c.ownsLocked(bs) {
		return AgentView{}, fmt.Errorf("core: agent view of base station %d: %w", bs, ErrNotOwned)
	}
	view := AgentView{BS: bs, Epoch: c.epoch.Load()}
	// The station's row names every record with a LocIP here; an entry that
	// is a §5.1 reservation names a record whose current LocIP is elsewhere.
	for i, e := range c.stations[bs].ids {
		if e == 0 || e == idParked {
			continue
		}
		if r := c.ues.rec(e - 1); r.bs == bs && r.ueid == packet.UEID(i+1) {
			v := AgentViewUE{UE: c.ueViewLocked(r), Classifiers: c.classifiersLocked(r)}
			for loc := r.rsv; loc != 0; loc = c.reservations[loc].next {
				v.Reserved = append(v.Reserved, loc)
			}
			view.UEs = append(view.UEs, v)
		}
	}
	sort.Slice(view.UEs, func(i, j int) bool {
		return view.UEs[i].UE.IMSI < view.UEs[j].UE.IMSI
	})
	for clause, rec := range c.paths.station(bs) {
		if rec != nil {
			view.Tags = append(view.Tags, TagGrant{Clause: clause, Tag: rec.AccessTag()})
		}
	}
	return view, nil
}
