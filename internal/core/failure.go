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

// recomputeLocked re-plans every installed path over the current topology,
// in the table's ascending (station, clause) order, and rebuilds the rule
// tables from the routes that still exist. Install order drives tag
// assignment and prefix aggregation, so the rebuilt FIBs (and every tag
// handed out afterwards) follow from the paths alone.
//
// caller holds ruleMu
func (c *Controller) recomputeLocked(rep FailureReport) (FailureReport, error) {
	// Fresh planner: its distance fields and trees reference the old graph.
	c.Planner = routing.NewPlanner(c.T)
	var routes []plannedPath
	for _, e := range c.paths.all() {
		route, err := c.planLocked(e.key)
		if err != nil {
			rep.Unreachable++
			continue
		}
		routes = append(routes, plannedPath{e.key, route})
	}
	failed, err := c.reinstallLocked(routes)
	rep.Recomputed, rep.Unreachable = len(routes)-failed, rep.Unreachable+failed
	if err == nil && failed > 0 && failed == len(routes) {
		err = fmt.Errorf("core: recomputation installed no paths")
	}
	return rep, err
}

// plannedPath is a route to install and the key to file its path under.
type plannedPath struct {
	key   pathKey
	route *routing.Path
}

// reinstallLocked is the one rebuild of the rule tables (path removal and
// failure recomputation): a fresh Installer gets exactly routes, installed
// in the order given, and replaces the current one. Aggregated rules are
// shared between paths, so deleting one path's rules in place could strand
// others; recomputing from the surviving set is always correct. The fresh
// Installer continues the tag sequence, so a retired tag is never issued
// again and one still embedded in a microflow or an agent cache cannot
// alias a new path (its packets are not dropped yet: rules that ignore the
// tag carry them on, past their middleboxes — ROADMAP item 1) — and every
// FIB's version, so a data plane sees every switch change. The path table
// and the store's path/ documents follow: a path not reinstalled is
// withdrawn, and a reinstalled one's document names its new ID. It returns
// how many routes failed to install; their paths are withdrawn too.
//
// caller holds ruleMu
func (c *Controller) reinstallLocked(routes []plannedPath) (failed int, err error) {
	inst, err := NewInstaller(c.T, c.Installer.Opts)
	if err != nil {
		return 0, err
	}
	inst.nextTag = c.Installer.nextTag
	inst.stats.TagsAllocated = c.Installer.stats.TagsAllocated
	for i, f := range inst.fibs {
		f.succeed(c.Installer.fibs[i])
	}
	inst.EnableLocationRouting(c.gateway)
	installed := make([]pathEntry, 0, len(routes))
	for _, r := range routes {
		rec, err := inst.InstallPath(r.route)
		if err != nil {
			failed++
			continue
		}
		installed = append(installed, pathEntry{r.key, rec})
	}
	old := c.paths.all()
	c.Installer = inst
	c.paths.reset(installed)
	// Report how many served tags did not carry over (bs -1 = all
	// stations).
	dropped := 0
	for _, e := range old {
		if rec := c.paths.get(e.key); rec == nil || rec.AccessTag() != e.rec.AccessTag() {
			dropped++
		}
	}
	if dropped > 0 {
		c.obs.evTagEvict.Emit(-1, int64(dropped))
	}
	for _, e := range old {
		var err error
		if rec := c.paths.get(e.key); rec == nil {
			_, err = c.Store.Delete(pathDoc(e.key))
		} else if rec.ID != e.rec.ID {
			err = c.putPathDoc(e.key, rec.ID)
		}
		if err != nil {
			return failed, err
		}
	}
	return failed, nil
}
