package core

import (
	"fmt"
	"sort"

	"repro/internal/packet"
)

// AgentView is the controller's exportable image of one base station's
// agent state: every UE currently attached there with its compiled
// classifiers, plus the station's admitted (clause -> tag) grants from the
// tag memo. It is the payload a dispatcher pushes to the station's local
// agent as an immutable snapshot (agent.NewSnapshot), replacing the
// synchronous per-flow classifier fetch: the agent keeps classifying on
// the last pushed view through any controller outage.
type AgentView struct {
	BS packet.BSID
	// Epoch is the controller's tag-plan epoch at export time: it advances
	// on every tag publication and wholesale rebuild, so two views with
	// equal epochs were cut from the same plan.
	Epoch uint64
	UEs   []AgentViewUE
	Tags  []TagGrant
}

// AgentViewUE pairs one attached UE with its compiled service policy.
type AgentViewUE struct {
	UE          UE
	Classifiers []Classifier
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
// current tag memo, and the station's tag grants (sorted by clause). The
// orderings make same-seed exports byte-identical, which the chaos
// harness's determinism checks rely on.
func (c *Controller) AgentView(bs packet.BSID) (AgentView, error) {
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	if !c.ownsLocked(bs) {
		return AgentView{}, fmt.Errorf("core: agent view of base station %d: %w", bs, ErrNotOwned)
	}
	view := AgentView{BS: bs, Epoch: c.epoch.Load()}
	c.ues.forEach(func(_ uint32, r *ueRecord) bool {
		if r.bs != bs {
			return true
		}
		view.UEs = append(view.UEs, AgentViewUE{
			UE:          c.ueViewLocked(r),
			Classifiers: c.classifiersLocked(r),
		})
		return true
	})
	sort.Slice(view.UEs, func(i, j int) bool {
		return view.UEs[i].UE.IMSI < view.UEs[j].UE.IMSI
	})
	tags := *c.tagCache.Load()
	for clause := 0; clause < c.Policy.Len(); clause++ {
		if tag, ok := tags[pathKey{bs, clause}]; ok {
			view.Tags = append(view.Tags, TagGrant{Clause: clause, Tag: tag})
		}
	}
	return view, nil
}
