package core

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
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
	// Refuse a shortcut whose rules cannot all be keyed before any goes in:
	// a partial one would steer old flows off their path.
	for _, t := range sc.PathTags {
		if _, ok := packMob(Down, fromMB(sc.BranchMB), t, sc.Loc); !ok {
			return 0, fmt.Errorf("core: shortcut at tag %d, middlebox %d does not fit a mobility key", t, sc.BranchMB)
		}
	}
	for i := 1; i < len(route)-1; i++ {
		if _, ok := packMob(Down, fromPort(route[i-1]), sc.Delivery, sc.Loc); !ok {
			return 0, fmt.Errorf("core: shortcut at tag %d from switch %d does not fit a mobility key", sc.Delivery, route[i-1])
		}
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

// reservation tracks one reserved old LocIP and its current shortcuts. A
// UE's reservations form a list in ascending LocIP order, headed by its
// record's rsv field and linked through next; a parked one is on no list.
// The shortcuts point into the block the retarget that installed them cut;
// a later retarget cuts a fresh block rather than writing into it, so
// handles a HandoffResult gave out never change. Retired records are
// recycled (Controller.rsvFree).
type reservation struct {
	imsi      string // the UE whose record reserved it; "" once parked (that UE's record left)
	shortcuts []Shortcut
	next      packet.Addr // the UE's next reserved LocIP; 0 ends the list
}

// handoffScratch holds buffers one retarget reuses from the last, so
// building shortcuts allocates only what the reservations keep. Nothing in
// here escapes.
type handoffScratch struct {
	chain  []topo.NodeID // the new access switch's ancestor chain
	routes []topo.NodeID // every shortcut route of one retarget, back to back
	cuts   []shortcutCut // where each of those routes sits in routes
}

// shortcutCut is one shortcut a retarget will install: the reservation it
// serves, the path it bypasses and its route's bounds in
// handoffScratch.routes.
type shortcutCut struct {
	loc        packet.Addr
	rsv        *reservation
	rec        *InstalledPath
	branchMB   topo.MBInstanceID
	start, end int
}

// Sizes of the block one retarget cuts its shortcuts from: a reservation
// gets one shortcut per path at its origin of a clause the UE's classifiers
// allow (at most five on the generated plants), each route a handful of
// hops. A retarget needing more shortcuts or route hops makes separate
// arrays instead.
const (
	blockShortcuts = 8
	blockHops      = 8 * blockShortcuts
)

// shortcutBlock is one allocation carrying everything a retarget hands
// back: the handles, the shortcuts they point at, and the shortcuts' routes.
type shortcutBlock struct {
	handles [blockShortcuts]*Shortcut
	slab    [blockShortcuts]Shortcut
	routes  [blockHops]topo.NodeID
}

// reserveLocked files oldLoc as a reservation of r's UE, in its place on
// the UE's ascending list, reusing a retired record when there is one.
//
// caller holds ueMu
func (c *Controller) reserveLocked(r *ueRecord, oldLoc packet.Addr) {
	var rsv *reservation
	if n := len(c.rsvFree); n > 0 {
		rsv = c.rsvFree[n-1]
		c.rsvFree = c.rsvFree[:n-1]
	} else {
		rsv = new(reservation)
	}
	rsv.imsi = r.imsi
	link := &r.rsv
	for *link != 0 && *link < oldLoc {
		link = &c.reservations[*link].next
	}
	rsv.next, *link = *link, oldLoc
	c.reservations[oldLoc] = rsv
}

// retargetReservationsLocked points every reserved LocIP of a UE at its
// newest station, in ascending LocIP order: old shortcuts come down, fresh
// ones (from the branch point of each path at the LocIP's origin station
// whose clause the UE's classifiers allow, in clause order) go in. The UE's
// flows can carry no other clause's tags, so a path of any other clause
// gets no shortcut. The new access switch's chain is built once, and
// the shortcuts of every reservation, their routes and the handles returned
// are cut from one block. It touches both the reservation table and the
// rule tables, so it runs under both locks (acquired in order by Handoff).
//
// caller holds ueMu; caller holds ruleMu
func (c *Controller) retargetReservationsLocked(r *ueRecord, newAccess topo.NodeID) []*Shortcut {
	hs := &c.hs
	parent := c.Installer.tree(c.gateway)
	hs.chain = c.T.AppendAncestorChain(hs.chain[:0], newAccess, parent)
	hs.routes, hs.cuts = hs.routes[:0], hs.cuts[:0]
	entries := c.sets[r.set].compiled
	for loc := r.rsv; loc != 0; {
		rsv := c.reservations[loc]
		for i := range rsv.shortcuts {
			c.Installer.RemoveShortcut(&rsv.shortcuts[i])
		}
		rsv.shortcuts = nil
		originBS, _, ok := c.plan.Split(loc)
		if ok && hs.chain != nil {
			for clause, rec := range c.paths.station(originBS) {
				if rec != nil && allows(entries, clause) {
					c.cutShortcutLocked(loc, rsv, rec, parent)
				}
			}
		}
		loc = rsv.next
	}
	n := len(hs.cuts)
	if n == 0 {
		return nil
	}
	var handles []*Shortcut
	var slab []Shortcut
	var routes []topo.NodeID
	if n <= blockShortcuts && len(hs.routes) <= blockHops {
		b := new(shortcutBlock)
		handles, slab, routes = b.handles[:0:n], b.slab[:0:n], b.routes[:len(hs.routes):len(hs.routes)]
		copy(routes, hs.routes)
	} else {
		handles, slab, routes = make([]*Shortcut, 0, n), make([]Shortcut, 0, n), slices.Clone(hs.routes)
	}
	for i := 0; i < n; {
		rsv, start := hs.cuts[i].rsv, len(slab)
		for ; i < n && hs.cuts[i].rsv == rsv; i++ {
			cut := &hs.cuts[i]
			sc := Shortcut{Loc: cut.loc, Route: routes[cut.start:cut.end:cut.end], BranchMB: cut.branchMB,
				PathTags: cut.rec.Tags, Delivery: cut.rec.AccessTag()}
			if _, err := c.Installer.InstallShortcut(&sc); err == nil {
				slab = append(slab, sc)
				handles = append(handles, &slab[len(slab)-1])
			}
		}
		rsv.shortcuts = slab[start:len(slab):len(slab)]
	}
	if len(handles) == 0 {
		return nil
	}
	return handles
}

// allows reports whether a UE's compiled classifiers send any of its flows
// on clause.
func allows(entries []policy.ClassifierEntry, clause int) bool {
	for _, e := range entries {
		if e.Clause == clause && e.Action.Allow {
			return true
		}
	}
	return false
}

// cutShortcutLocked plans the shortcut that takes loc's downstream traffic
// on rec from its branch point to the access switch at the head of the
// scratch chain, appending its route to the scratch routes. A path with no
// usable descend route gets no shortcut: triangle routing via the tunnels
// still covers it.
//
// caller holds ruleMu
func (c *Controller) cutShortcutLocked(loc packet.Addr, rsv *reservation, rec *InstalledPath, parent []topo.NodeID) {
	hs := &c.hs
	pos, branchMB := branchPoint(rec)
	start := len(hs.routes)
	route, err := c.descendRoute(hs.routes, rec.Route.Switches[pos], hs.chain, parent)
	if err != nil || len(route)-start < 2 || recrosses(route[start:], rec.Route.Switches[:pos+1]) {
		hs.routes = route[:start]
		return
	}
	hs.routes = route
	hs.cuts = append(hs.cuts, shortcutCut{loc: loc, rsv: rsv, rec: rec, branchMB: branchMB, start: start, end: len(route)})
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
//   - for every policy path cached at the old station whose clause the UE's
//     classifiers allow, a temporary shortcut redirects old-LocIP traffic
//     from the path's branch point (after its last middlebox) to the new
//     station — preserving the middlebox sequence, i.e. policy consistency;
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

	// The old UE ID keeps naming this UE's slot (reserved) for old flows;
	// only the new one is added.
	id, loc, err := c.allocLocIPLocked(newBS, slot)
	if err != nil {
		return HandoffResult{}, err
	}
	r.bs, r.ueid, r.locIP = newBS, id, loc
	c.handoffs.Add(1)

	res := HandoffResult{UE: c.ueViewLocked(r), OldBS: oldBS, OldLocIP: oldLoc,
		Classifiers: c.classifiersLocked(r)}

	// Reserve the vacated address and (re)target every reserved LocIP of
	// this UE — including ones from earlier, still-unreleased handoffs — at
	// the new station, so old-flow shortcuts never point at an intermediate
	// station the UE has already left. Retargeting rewires switch rules, so
	// it nests the rule-table lock inside the UE lock (the documented
	// order).
	c.reserveLocked(r, oldLoc)
	spr := c.obs.spHandoffRule.Start(sp.Context())
	c.ruleMu.Lock()
	res.Shortcuts = c.retargetReservationsLocked(r, newStation.Access)
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
// shortcuts the address's reservation lists come down and the address
// returns to the allocation pool. An address no reservation holds (already
// released, or cleared by a recovery) is left alone: freeing it again would
// hand the same (station, UE ID) — the same LocIP — to two devices. The
// shortcuts argument is ignored; the reservation is the one record of what
// the handoff installed, retargeted by every later handoff of its UE.
func (c *Controller) ReleaseOldLocIP(oldLoc packet.Addr, _ []*Shortcut) {
	c.ueMu.Lock()
	defer c.ueMu.Unlock()
	rsv, reserved := c.reservations[oldLoc]
	c.obs.evRelease.Emit(int64(oldLoc), boolInt(reserved))
	if !reserved {
		return
	}
	c.ruleMu.Lock()
	for i := range rsv.shortcuts {
		c.Installer.RemoveShortcut(&rsv.shortcuts[i])
	}
	c.ruleMu.Unlock()
	// A reservation that is not parked names its UE's slot; it leaves that
	// UE's list.
	bs, id, _ := c.plan.Split(oldLoc)
	if slot, held := c.stations.slot(bs, id); held {
		link := &c.ues.rec(slot).rsv
		for *link != 0 && *link != oldLoc {
			link = &c.reservations[*link].next
		}
		if *link != 0 {
			*link = rsv.next
		}
	}
	delete(c.reservations, oldLoc)
	*rsv = reservation{}
	c.rsvFree = append(c.rsvFree, rsv)
	c.stations.release(bs, id)
}
