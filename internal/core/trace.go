package core

import (
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/topo"
)

// Hop is one element of a rule-table walk: a switch visited, and optionally
// the middlebox traversed there.
type Hop struct {
	Switch topo.NodeID
	MB     topo.MBInstanceID // NoMB when the hop is plain forwarding
}

// Walk follows the installed rule tables as a packet would: it enters
// switch from on the Internet/UE side carrying tag, addressed by the LocIP
// loc, and at every switch FIB.Step decides — under the port the packet
// really arrived on — where it goes next. The walk ends where the rule
// tables let go of the packet: out the gateway's Internet port, at a local
// delivery rule, where nothing matches, or, downstream, on arrival at one
// of the access switches in claim, whose exact-match microflows outrank
// every TCAM rule and take it (the station loc embeds; for a handed-off
// UE's reserved address also the station it is at now).
func (in *Installer) Walk(dir Direction, from topo.NodeID, tag packet.Tag, loc packet.Addr, claim ...topo.NodeID) ([]Hop, error) {
	cur, arrived := from, anyPort
	hops := []Hop{{cur, NoMB}}
	for budget := 4*len(in.T.Nodes) + 16; budget > 0; budget-- {
		if arrived.mb == NoMB && slices.Contains(claim, cur) {
			return hops, nil
		}
		nh, ok := in.fibs[cur].Step(dir, arrived, tag, loc)
		if !ok || nh.IsExit() || nh.IsDeliver() {
			return hops, nil
		}
		if nh.NewTag != 0 {
			tag = nh.NewTag
		}
		if nh.MB != NoMB {
			hops = append(hops, Hop{cur, nh.MB})
			arrived = fromMB(nh.MB)
			continue
		}
		arrived, cur = fromPort(cur), nh.Node
		hops = append(hops, Hop{cur, NoMB})
	}
	return hops, fmt.Errorf("core: walk exceeded hop budget (forwarding loop?)")
}

// verify is the one comparison of installed state with intent: traffic
// addressed loc that enters rec's route in direction dir must cross rec's
// middlebox instances in order and end at the route's far end — downstream
// at one of the access switches in claim. With exact set, loc has no
// mobility state of its own and the walk must visit the route's switches in
// order too.
func (in *Installer) verify(rec *InstalledPath, dir Direction, loc packet.Addr, exact bool, claim ...topo.NodeID) error {
	wantSw, wantMB := slices.Compact(slices.Clone(rec.Route.Switches)), rec.Chain
	from, tag, ends := rec.Route.Gateway(), rec.GatewayTag(), claim
	if dir == Up {
		wantMB = slices.Clone(wantMB)
		slices.Reverse(wantSw)
		slices.Reverse(wantMB)
		from, tag, ends = rec.Route.Access(), rec.AccessTag(), []topo.NodeID{rec.Route.Gateway()}
	}
	hops, err := in.Walk(dir, from, tag, loc, claim...)
	if err != nil {
		return fmt.Errorf("core: %s walk of %s on path %d: %w (hops %v)", dir, loc, rec.ID, err, hops)
	}
	var sw []topo.NodeID
	var mbs []topo.MBInstanceID
	for _, h := range hops {
		if h.MB != NoMB {
			mbs = append(mbs, h.MB)
		} else {
			sw = append(sw, h.Switch)
		}
	}
	switch last := sw[len(sw)-1]; {
	case !slices.Equal(mbs, wantMB):
		return fmt.Errorf("core: %s walk of %s on path %d traversed middleboxes %v, want %v (hops %v)", dir, loc, rec.ID, mbs, wantMB, hops)
	case !slices.Contains(ends, last):
		return fmt.Errorf("core: %s walk of %s on path %d ended at switch %d, want one of %v (hops %v)", dir, loc, rec.ID, last, ends, hops)
	case exact && !slices.Equal(sw, wantSw):
		return fmt.Errorf("core: %s walk of %s on path %d visited %v, want %v", dir, loc, rec.ID, sw, wantSw)
	}
	return nil
}

// VerifyPath checks that walking the rule tables reproduces an installed
// path's requested route in both directions: downstream from the gateway
// the route's switches and middleboxes in order, ending at the access
// switch; upstream the reverse. The probe address is the origin station's
// UE ID 0, which is never allocated (packet.Plan.MaxUE) and so never holds
// a reservation whose overrides would answer for it.
func (in *Installer) VerifyPath(rec *InstalledPath) error {
	bs, err := in.plan.BSPrefix(rec.Origin)
	if err != nil {
		return err
	}
	if err := in.verify(rec, Down, bs.Addr, true, rec.Route.Access()); err != nil {
		return err
	}
	return in.verify(rec, Up, bs.Addr, true)
}

// TableSizes summarises the per-switch TCAM occupancy, split the way the
// paper reports it: hardware switches (aggregation, core, gateway — Fig. 7's
// subject) and software access switches.
func (in *Installer) TableSizes() (hardware, software metrics.IntSummary) {
	for i, f := range in.fibs {
		n := f.NumRules()
		if in.T.Nodes[i].Kind == topo.Access {
			// Access switches hold state only when they sit on another
			// station's ring path; count them in the software column.
			software.Add(n)
			continue
		}
		hardware.Add(n)
	}
	return hardware, software
}

// RuleTypeTotals sums installed rules by SoftCell type across hardware
// switches (§7's multi-table discussion).
func (in *Installer) RuleTypeTotals() (tagPrefix, tagOnly, location, mobility int) {
	for i, f := range in.fibs {
		if in.T.Nodes[i].Kind == topo.Access {
			continue
		}
		a, b, c, d := f.RuleBreakdown()
		tagPrefix += a
		tagOnly += b
		location += c
		mobility += d
	}
	return
}
