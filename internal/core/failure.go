package core

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/topo"
)

// FailureReport summarises a topology-failure recomputation.
type FailureReport struct {
	Failed      topo.NodeID
	Recomputed  int // paths successfully re-planned around the failure
	Unreachable int // paths whose destination became unreachable (dropped)
}

// FailSwitch handles a switch failure (§5.2: "the controller can easily
// handle topology changes (e.g., switch failures) by recomputing paths and
// modifying rules in the affected switches"): the node is marked down,
// every cached policy path is re-planned over the surviving topology (a
// failed middlebox attachment point also forces a new instance of the same
// function), and the forwarding state is rebuilt. Paths to stations cut off
// by the failure are withdrawn; their classifiers resolve again (through
// the controller) if connectivity returns.
func (c *Controller) FailSwitch(n topo.NodeID) (FailureReport, error) {
	c.ruleMu.Lock()
	defer c.ruleMu.Unlock()
	if err := c.T.SetNodeDown(n, true); err != nil {
		return FailureReport{}, err
	}
	return c.recomputeLocked(FailureReport{Failed: n})
}

// RecoverSwitch brings a failed switch back and re-optimises the paths.
func (c *Controller) RecoverSwitch(n topo.NodeID) (FailureReport, error) {
	c.ruleMu.Lock()
	defer c.ruleMu.Unlock()
	if err := c.T.SetNodeDown(n, false); err != nil {
		return FailureReport{}, err
	}
	return c.recomputeLocked(FailureReport{Failed: n})
}

// recomputeLocked re-plans every cached path over the current topology and
// rebuilds the installer from scratch. The tag memo is republished from
// the surviving paths, so a tag whose path the failure changed or dropped
// can never be served from cache.
//
// caller holds ruleMu
func (c *Controller) recomputeLocked(rep FailureReport) (FailureReport, error) {
	// Fresh planner: its distance fields and trees reference the old graph.
	c.Planner = routing.NewPlanner(c.T)

	// Replan in the table's ascending (station, clause) order: install
	// order drives tag assignment and prefix aggregation, so the rebuilt
	// FIBs (and every tag handed out afterwards) follow from the paths alone.
	keys := make([]pathKey, 0, c.paths.len())
	for _, e := range c.paths.all() {
		keys = append(keys, e.key)
	}

	type replanned struct {
		key   pathKey
		route *routing.Path
	}
	var keep []replanned
	for _, key := range keys {
		cl, ok := c.Policy.Clause(key.clause)
		if !ok || !cl.Action.Allow {
			rep.Unreachable++
			continue
		}
		chain := make([]topo.MBType, 0, len(cl.Action.Chain))
		bad := false
		for _, fn := range cl.Action.Chain {
			typ, ok := c.mbTypes[fn]
			if !ok {
				bad = true
				break
			}
			chain = append(chain, typ)
		}
		if bad {
			rep.Unreachable++
			continue
		}
		route, err := c.Planner.Plan(key.bs, chain, c.gateway)
		if err != nil {
			rep.Unreachable++
			continue
		}
		keep = append(keep, replanned{key: key, route: route})
	}

	inst, err := NewInstaller(c.T, c.Installer.Opts)
	if err != nil {
		return rep, err
	}
	// Continue the tag sequence: stale tags embedded in microflows and
	// agent caches must miss (and re-resolve), never alias onto new paths.
	inst.nextTag = c.Installer.nextTag
	inst.stats.TagsAllocated = c.Installer.stats.TagsAllocated
	for i, f := range inst.fibs {
		f.succeed(c.Installer.fibs[i])
	}
	inst.EnableLocationRouting(c.gateway)
	var newPaths pathTable
	for _, r := range keep {
		rec, err := inst.InstallPath(r.route)
		if err != nil {
			rep.Unreachable++
			continue
		}
		newPaths.put(r.key, rec)
		rep.Recomputed++
	}
	old := c.paths
	c.Installer = inst
	c.paths = newPaths
	c.rebuildTagCacheLocked()
	// The store's path/ documents follow: a withdrawn path's goes, and a
	// reinstalled one's names its new ID (the fresh installer numbers paths
	// from 1 again).
	for _, key := range keys {
		rec := newPaths.get(key)
		var err error
		if rec == nil {
			_, err = c.Store.Delete(pathDoc(key))
		} else if rec.ID != old.get(key).ID {
			err = c.putPathDoc(key, rec.ID)
		}
		if err != nil {
			return rep, err
		}
	}
	if rep.Recomputed+rep.Unreachable == 0 {
		return rep, nil
	}
	if rep.Recomputed == 0 && rep.Unreachable > 0 && len(keep) > 0 {
		return rep, fmt.Errorf("core: recomputation installed no paths")
	}
	return rep, nil
}
