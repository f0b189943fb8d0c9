package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topo"
)

// TraceEvent is one element of a rule-table walk: a switch visited, and
// optionally the middlebox traversed there.
type TraceEvent struct {
	Switch topo.NodeID
	MB     topo.MBInstanceID // NoMB when the event is plain forwarding
}

// Trace walks the installed rule tables exactly as a packet would, starting
// at 'from' carrying 'tag', addressed by the LocIP 'loc' (its base-station
// prefix selects the Type 1 rules; the full /32 selects mobility
// overrides). It returns the sequence of (switch, middlebox) events and the
// final switch reached when no rule matches any more.
//
// Trace is the verification primitive behind DESIGN.md §6's "walking the
// rule tables reproduces the requested switch/middlebox sequence".
func (in *Installer) Trace(dir Direction, from topo.NodeID, tag packet.Tag, loc packet.Addr) ([]TraceEvent, topo.NodeID, error) {
	return in.TraceDeliver(dir, from, tag, loc, topo.None)
}

// TraceDeliver is Trace with one extra downstream delivery point: a handed-
// off UE's microflows live at its *current* access switch, not the one its
// reserved old LocIP embeds, so a walk for such an address must also stop
// where those microflows would claim the packet (they outrank every TCAM
// rule). The invariant checker passes the UE's current access here when
// verifying §5's old-flow policy consistency.
func (in *Installer) TraceDeliver(dir Direction, from topo.NodeID, tag packet.Tag, loc packet.Addr, also topo.NodeID) ([]TraceEvent, topo.NodeID, error) {
	bsPfx := packet.NewPrefix(loc, in.plan.Carrier.Len+in.plan.BSBits)
	// Downstream delivery happens at the destination's access switch via
	// exact-match microflows that outrank every TCAM rule, so the walk must
	// stop there rather than follow a shared tag-only rule onward.
	deliverAt := topo.None
	if dir == Down {
		if bsID, _, ok := in.plan.Split(loc); ok {
			if st, ok := in.T.Station(bsID); ok {
				deliverAt = st.Access
			}
		}
	}
	cur := from
	arrived := anyPort // Internet/UE side at the entry switch
	var events []TraceEvent
	events = append(events, TraceEvent{Switch: cur, MB: NoMB})
	for hops := 0; hops < 4*len(in.T.Nodes)+16; hops++ {
		if dir == Down && arrived.mb == NoMB && (cur == deliverAt || (also != topo.None && cur == also)) {
			return events, cur, nil
		}
		f := in.fibs[cur]
		// Mobility overrides outrank policy rules (priority band, §3.1
		// "UE mobility"). None is qualified by a neighbor port: a shortcut's
		// branch switch matches the middlebox return port, its route
		// switches any port (fromMB(NoMB) is anyPort).
		nh, ok := f.LookupMobility(dir, fromMB(arrived.mb), tag, loc)
		if !ok {
			nh, ok = f.GetNextHop(dir, arrived, tag, bsPfx)
		}
		if !ok {
			return events, cur, nil
		}
		if nh.MB != NoMB {
			if nh.MB == arrived.mb {
				// Returning traffic would re-enter the same box: the main
				// rule matched because no onward rule exists. This is the
				// delivery point (access switches deliver via microflows
				// that outrank these rules).
				return events, cur, nil
			}
			if nh.NewTag != 0 {
				tag = nh.NewTag
			}
			events = append(events, TraceEvent{Switch: cur, MB: nh.MB})
			arrived = fromMB(nh.MB)
			continue
		}
		if nh.IsExit() || nh.IsDeliver() {
			// Out the gateway's Internet port, or handed to the local
			// delivery microflows: the walk is complete.
			return events, cur, nil
		}
		if nh.NewTag != 0 {
			tag = nh.NewTag
		}
		arrived = fromPort(cur)
		cur = nh.Node
		events = append(events, TraceEvent{Switch: cur, MB: NoMB})
	}
	return events, cur, fmt.Errorf("core: trace exceeded hop budget (forwarding loop?)")
}

// VerifyPath checks that an installed path's rule-table walk reproduces its
// requested route in both directions: the downstream trace from the gateway
// must visit the route's switches and middleboxes in order and terminate at
// the access switch; the upstream trace the reverse.
func (in *Installer) VerifyPath(rec *InstalledPath) error {
	loc, err := in.plan.LocIP(rec.Origin, 1)
	if err != nil {
		return err
	}
	bs, _ := in.T.Station(rec.Origin)

	check := func(dir Direction, from, to topo.NodeID, entry packet.Tag, wantSw []topo.NodeID, wantMB []topo.MBInstanceID) error {
		events, last, err := in.Trace(dir, from, entry, loc)
		if err != nil {
			return err
		}
		if last != to {
			return fmt.Errorf("core: %s trace for path %d ended at switch %d, want %d (events %v)",
				dir, rec.ID, last, to, events)
		}
		var sw []topo.NodeID
		var mbs []topo.MBInstanceID
		for _, e := range events {
			if e.MB != NoMB {
				mbs = append(mbs, e.MB)
			} else {
				if len(sw) == 0 || sw[len(sw)-1] != e.Switch {
					sw = append(sw, e.Switch)
				}
			}
		}
		if len(mbs) != len(wantMB) {
			return fmt.Errorf("core: %s trace for path %d traversed middleboxes %v, want %v", dir, rec.ID, mbs, wantMB)
		}
		for i := range mbs {
			if mbs[i] != wantMB[i] {
				return fmt.Errorf("core: %s trace for path %d traversed middleboxes %v, want %v", dir, rec.ID, mbs, wantMB)
			}
		}
		if len(sw) != len(wantSw) {
			return fmt.Errorf("core: %s trace for path %d visited %v, want %v", dir, rec.ID, sw, wantSw)
		}
		for i := range sw {
			if sw[i] != wantSw[i] {
				return fmt.Errorf("core: %s trace for path %d visited %v, want %v", dir, rec.ID, sw, wantSw)
			}
		}
		return nil
	}

	route := rec.Route
	downSw := dedupeConsecutive(route.Switches)
	upSw := reverseNodes(downSw)
	revMB := make([]topo.MBInstanceID, len(rec.Chain))
	for i, m := range rec.Chain {
		revMB[len(rec.Chain)-1-i] = m
	}
	if err := check(Down, route.Gateway(), bs.Access, rec.GatewayTag(), downSw, rec.Chain); err != nil {
		return err
	}
	return check(Up, bs.Access, route.Gateway(), rec.AccessTag(), upSw, revMB)
}

func dedupeConsecutive(in []topo.NodeID) []topo.NodeID {
	var out []topo.NodeID
	for _, n := range in {
		if len(out) == 0 || out[len(out)-1] != n {
			out = append(out, n)
		}
	}
	return out
}

func reverseNodes(in []topo.NodeID) []topo.NodeID {
	out := make([]topo.NodeID, len(in))
	for i, n := range in {
		out[len(in)-1-i] = n
	}
	return out
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

// InstallForStations is the batch driver the large-scale simulation uses:
// it plans and installs one path per (station, chain) pair, iterating
// station-major to maximise planner cache locality. It returns the installed
// records only if keepRecords is set (20M paths would otherwise hold
// gigabytes alive).
func (in *Installer) InstallForStations(pl *routing.Planner, stations []packet.BSID, chains [][]topo.MBType, gateway topo.NodeID, keepRecords bool) ([]*InstalledPath, error) {
	var recs []*InstalledPath
	for _, bs := range stations {
		for _, chain := range chains {
			route, err := pl.Plan(bs, chain, gateway)
			if err != nil {
				return recs, fmt.Errorf("core: planning bs%d: %w", bs, err)
			}
			rec, err := in.InstallPath(route)
			if err != nil {
				return recs, fmt.Errorf("core: installing bs%d: %w", bs, err)
			}
			if keepRecords {
				recs = append(recs, rec)
			} else {
				delete(in.paths, rec.ID)
			}
		}
	}
	return recs, nil
}
