package core

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/topo"
)

// Shortcut records the temporary mobility overrides installed for one moved
// UE along one old policy path (§5.1: "the controller can establish
// temporary shortcut paths ... removed when a soft timeout expires").
type Shortcut struct {
	Loc      packet.Addr
	Route    []topo.NodeID     // branch-point switch ... new access switch
	BranchMB topo.MBInstanceID // last middlebox at Route[0]; NoMB when none
	PathTags []packet.Tag      // the path's segment tags matched at the branch
	Delivery packet.Tag        // the access-side tag rewritten onto the flow
}

// InstallShortcut installs downstream /32 overrides for loc along route,
// chaining from the branch point toward the new access switch. At the
// branch, one entry per path segment tag matches the flow wherever in the
// tag sequence it is and rewrites it to the delivery (access-side) tag —
// shortcuts bypass the old path's remaining switches, including any
// tag-swap rules, so the rewrite must happen here. When the branch switch
// hosts the path's last middlebox, the entries are qualified by its return
// port (fromMB(NoMB) is anyPort, the middlebox-free path's gateway branch)
// so traffic still enters the box before taking the shortcut. Every later
// switch of the route matches only what arrives from the one before it: the
// route may re-cross a switch the old path visits on its way to the branch
// point, and an override for any port there would take the packet before
// its middleboxes. Only the DOWNSTREAM direction gets shortcut state (§5.1:
// shortcuts direct "incoming packets"); upstream old flows triangle-route
// through the inter-station tunnel to their origin station, where the old
// path's rules exist.
// The rules are those sc describes; sc itself is neither kept nor changed.
// It returns the number of rules added.
func (in *Installer) InstallShortcut(sc *Shortcut) (int, error) {
	route := sc.Route
	if len(route) < 2 {
		return 0, fmt.Errorf("core: shortcut route needs at least two switches")
	}
	if len(sc.PathTags) == 0 || sc.Delivery == 0 {
		return 0, fmt.Errorf("core: shortcut needs the path's tags")
	}
	rules := 0
	first := NextHop{Node: route[1], MB: NoMB, NewTag: sc.Delivery}
	for _, t := range sc.PathTags {
		rules += in.fibs[route[0]].InsertMobility(Down, fromMB(sc.BranchMB), t, sc.Loc, first)
	}
	for i := 1; i < len(route)-1; i++ {
		rules += in.fibs[route[i]].InsertMobility(Down, fromPort(route[i-1]), sc.Delivery, sc.Loc, ToNode(route[i+1]))
	}
	in.stats.Rules += rules
	return rules, nil
}

// RemoveShortcut tears a shortcut down (the soft-timeout expiry).
func (in *Installer) RemoveShortcut(sc *Shortcut) int {
	removed := 0
	for _, t := range sc.PathTags {
		if in.fibs[sc.Route[0]].RemoveMobility(Down, fromMB(sc.BranchMB), t, sc.Loc) {
			removed++
		}
	}
	for i := 1; i < len(sc.Route)-1; i++ {
		if in.fibs[sc.Route[i]].RemoveMobility(Down, fromPort(sc.Route[i-1]), sc.Delivery, sc.Loc) {
			removed++
		}
	}
	in.stats.Rules -= removed
	return removed
}

// reservation tracks one reserved old LocIP and its current shortcuts. The
// shortcuts are one slab, and their routes one array, allocated by the
// retarget that installed them; a later retarget replaces both rather than
// writing into them, so handles a HandoffResult gave out never change.
type reservation struct {
	imsi      string // the UE whose record reserved it; "" once that UE detached
	shortcuts []Shortcut
}

// handoffScratch holds buffers one retarget reuses from the last, so
// building shortcuts allocates only what the reservation keeps. Nothing in
// here escapes.
type handoffScratch struct {
	chain  []topo.NodeID // the new access switch's ancestor chain
	routes []topo.NodeID // one reservation's shortcut routes, back to back
	cuts   []shortcutCut // where each of those routes sits in routes
	locs   []packet.Addr // one UE's reserved LocIPs, ascending
}

// shortcutCut is one shortcut a retarget will install: the path it bypasses
// and its route's bounds in handoffScratch.routes.
type shortcutCut struct {
	rec        *InstalledPath
	branchMB   topo.MBInstanceID
	start, end int
}

// reservedLocked lists the reserved LocIPs of a UE in ascending order, so
// the shortcuts a handoff returns and the UE IDs a removal frees come out in
// one order. The slice is scratch, valid until the next call.
//
// caller holds ueMu; caller holds ruleMu
func (c *Controller) reservedLocked(imsi string) []packet.Addr {
	locs := c.hs.locs[:0]
	for loc, rsv := range c.reservations {
		if rsv.imsi == imsi {
			locs = append(locs, loc)
		}
	}
	slices.Sort(locs)
	c.hs.locs = locs
	return locs
}

// stationPathsLocked calls fn for every installed path originating at bs, in
// ascending clause order, until fn returns false. A station has at most one
// path per policy clause, so this is Policy.Len() lookups however many paths
// the controller holds.
//
// caller holds ruleMu
func (c *Controller) stationPathsLocked(bs packet.BSID, fn func(*InstalledPath) bool) {
	for clause := 0; clause < c.Policy.Len(); clause++ {
		if rec, ok := c.paths[pathKey{bs, clause}]; ok && !fn(rec) {
			return
		}
	}
}

// retargetReservationsLocked points every reserved LocIP of a UE at its
// newest station, in ascending LocIP order: old shortcuts come down, fresh
// ones (from each cached path's branch point at the LocIP's origin station,
// in clause order) go in. The new access switch's chain is built once; each
// reservation then allocates one shortcut slab and one route array. It
// touches both the reservation table and the rule tables, so it runs under
// both locks (acquired in order by Handoff).
//
// caller holds ueMu; caller holds ruleMu
func (c *Controller) retargetReservationsLocked(imsi string, newAccess topo.NodeID) []*Shortcut {
	hs := &c.hs
	parent := c.Installer.tree(c.gateway)
	hs.chain = c.T.AppendAncestorChain(hs.chain[:0], newAccess, parent)
	locs := c.reservedLocked(imsi)
	n := 0
	for _, loc := range locs {
		rsv := c.reservations[loc]
		for i := range rsv.shortcuts {
			c.Installer.RemoveShortcut(&rsv.shortcuts[i])
		}
		rsv.shortcuts = nil
		originBS, _, ok := c.plan.Split(loc)
		if !ok || hs.chain == nil {
			continue
		}
		hs.routes, hs.cuts = hs.routes[:0], hs.cuts[:0]
		c.stationPathsLocked(originBS, func(rec *InstalledPath) bool {
			pos, branchMB := branchPoint(rec)
			start := len(hs.routes)
			route, err := c.descendRoute(hs.routes, rec.Route.Switches[pos], hs.chain, parent)
			if err != nil || len(route)-start < 2 || recrosses(route[start:], rec.Route.Switches[:pos+1]) {
				hs.routes = route[:start]
				return true // triangle routing via the tunnels still covers it
			}
			hs.routes = route
			hs.cuts = append(hs.cuts, shortcutCut{rec: rec, branchMB: branchMB, start: start, end: len(route)})
			return true
		})
		if len(hs.cuts) == 0 {
			continue
		}
		routes := slices.Clone(hs.routes)
		slab := make([]Shortcut, 0, len(hs.cuts))
		for _, cut := range hs.cuts {
			sc := Shortcut{Loc: loc, Route: routes[cut.start:cut.end:cut.end], BranchMB: cut.branchMB,
				PathTags: cut.rec.Tags, Delivery: cut.rec.AccessTag()}
			if _, err := c.Installer.InstallShortcut(&sc); err == nil {
				slab = append(slab, sc)
			}
		}
		rsv.shortcuts = slab
		n += len(slab)
	}
	if n == 0 {
		return nil
	}
	all := make([]*Shortcut, 0, n)
	for _, loc := range locs {
		rsv := c.reservations[loc]
		for i := range rsv.shortcuts {
			all = append(all, &rsv.shortcuts[i])
		}
	}
	return all
}

// HandoffResult is everything the rest of the system needs to complete a
// UE's move: the updated UE record, where it came from (for microflow
// copying and the inter-station tunnel), the classifiers for the new
// station's agent, and the shortcuts installed for its old flows.
type HandoffResult struct {
	UE          UE
	OldBS       packet.BSID
	OldLocIP    packet.Addr
	Classifiers []Classifier
	Shortcuts   []*Shortcut
}

// Handoff moves a UE to a new base station (§5.1):
//
//   - a fresh (UE ID, LocIP) is allocated at the new station; the old LocIP
//     stays reserved (not reassigned) until ReleaseOldLocIP, so in-flight
//     downstream packets stay unambiguous;
//   - for every policy path cached at the old station, a temporary shortcut
//     redirects old-LocIP traffic from the path's branch point (after its
//     last middlebox) to the new station — preserving the middlebox
//     sequence, i.e. policy consistency;
//   - classifiers for the new station are returned for the new local agent.
//
// Copying the old station's microflows and wiring the inter-station tunnel
// is the access layer's job; the dataplane package does both.
func (c *Controller) Handoff(imsi string, newBS packet.BSID) (HandoffResult, error) {
	return c.HandoffCtx(obs.SpanContext{}, imsi, newBS)
}

// HandoffCtx is Handoff carrying span context. A sampled trace records the
// ueMu-held move as a core.handoff section with a core.handoff.rule child
// for the nested ruleMu domain, so the waterfall shows which lock the move
// actually spent its time in.
func (c *Controller) HandoffCtx(sc obs.SpanContext, imsi string, newBS packet.BSID) (HandoffResult, error) {
	sp := c.obs.spHandoff.Start(sc)
	defer sp.End()
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	r, slot, ok := c.ues.get(imsi)
	if !ok {
		return HandoffResult{}, fmt.Errorf("core: UE %q is %w", imsi, ErrNotAttached)
	}
	newStation, ok := c.T.Station(newBS)
	if !ok {
		return HandoffResult{}, fmt.Errorf("core: unknown base station %d", newBS)
	}
	if !c.ownsLocked(newBS) {
		return HandoffResult{}, fmt.Errorf("core: handoff to base station %d: %w", newBS, ErrNotOwned)
	}
	if r.bs == newBS {
		return HandoffResult{}, fmt.Errorf("core: UE %q already at base station %d", imsi, newBS)
	}
	oldBS, oldLoc := r.bs, r.locIP

	id, loc, err := c.allocLocIP(newBS)
	if err != nil {
		return HandoffResult{}, err
	}
	// The old LocIP stays indexed to this UE's slot (reserved) for old
	// flows; only the new address is added.
	r.bs, r.ueid, r.locIP = newBS, id, loc
	c.ues.locIdx.insert(loc, slot)
	c.handoffs.Add(1)

	res := HandoffResult{UE: c.ueViewLocked(r), OldBS: oldBS, OldLocIP: oldLoc,
		Classifiers: c.classifiersLocked(r)}

	// Reserve the vacated address and (re)target every reserved LocIP of
	// this UE — including ones from earlier, still-unreleased handoffs — at
	// the new station, so old-flow shortcuts never point at an intermediate
	// station the UE has already left. Retargeting rewires switch rules, so
	// it nests the rule-table lock inside the UE lock (the documented
	// order).
	c.reservations[oldLoc] = &reservation{imsi: r.imsi}
	spr := c.obs.spHandoffRule.Start(sp.Context())
	c.ruleMu.Lock()
	res.Shortcuts = c.retargetReservationsLocked(imsi, newStation.Access)
	c.ruleMu.Unlock()
	spr.End()
	c.obs.evHandoff.Emit(int64(oldBS), int64(newBS), int64(len(res.Shortcuts)))
	return res, nil
}

// branchPoint is the route position where a path's tail begins — that of its
// last middlebox (also returned), or the gateway's for middlebox-free paths.
func branchPoint(rec *InstalledPath) (int, topo.MBInstanceID) {
	r := rec.Route
	for i := r.Len() - 1; i >= 0; i-- {
		if r.MBAt[i] != NoMB {
			return i, r.MBAt[i]
		}
	}
	return 0, NoMB
}

// recrosses reports whether a shortcut route's overrides would capture the
// old path's own traffic: an override matches what arrives at route[i] from
// route[i-1], and head — the old path from the gateway to its branch point
// — crosses that same link in that direction before its last middlebox.
func recrosses(route, head []topo.NodeID) bool {
	for i := 1; i < len(route)-1; i++ {
		for j := 1; j < len(head); j++ {
			if head[j-1] == route[i-1] && head[j] == route[i] {
				return true
			}
		}
	}
	return false
}

// descendRoute appends to dst the canonical descend route from a switch to
// the access switch chain[0] (the same function location rules follow),
// both ends included. chain is that switch's ancestor chain in the tree
// parent describes. On an error it returns dst as it was given.
func (c *Controller) descendRoute(dst []topo.NodeID, from topo.NodeID, chain, parent []topo.NodeID) ([]topo.NodeID, error) {
	start := len(dst)
	route := append(dst, from)
	u := from
	for steps := 0; ; steps++ {
		if steps > 2*len(c.T.Nodes) {
			return dst[:start], fmt.Errorf("core: descend route did not converge")
		}
		next, done := c.T.CanonicalDescend(u, chain, parent)
		if done {
			return route, nil
		}
		if next == topo.None {
			return dst[:start], fmt.Errorf("core: no descend route from %d to %d", from, chain[0])
		}
		route = append(route, next)
		u = next
	}
}

// ReleaseOldLocIP ends a handoff transition (the soft-timeout expiry): the
// address's shortcuts come down and it returns to the allocation pool. The
// shortcuts argument is accepted for symmetry with HandoffResult but the
// controller's own reservation tracking is authoritative (shortcuts may
// have been retargeted by later handoffs).
func (c *Controller) ReleaseOldLocIP(oldLoc packet.Addr, shortcuts []*Shortcut) {
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	c.ruleMu.Lock()
	rsv, reserved := c.reservations[oldLoc]
	if reserved {
		for i := range rsv.shortcuts {
			c.Installer.RemoveShortcut(&rsv.shortcuts[i])
		}
		delete(c.reservations, oldLoc)
	} else {
		for _, sc := range shortcuts {
			c.Installer.RemoveShortcut(sc)
		}
	}
	c.ruleMu.Unlock()
	c.obs.evRelease.Emit(int64(oldLoc), boolInt(reserved))
	if !reserved {
		// Already released, or the UE migrated away (ExtractUE tears down
		// reservations and frees their IDs itself). Freeing again would hand
		// the same (station, UE ID) — the same LocIP — to two devices.
		return
	}
	if bs, id, ok := c.plan.Split(oldLoc); ok {
		slot, held := c.ues.locIdx.lookup(oldLoc)
		if !held || c.ues.rec(slot).locIP != oldLoc {
			c.freeUEIDLocked(bs, id)
			c.ues.locIdx.delete(oldLoc)
		}
	}
}
