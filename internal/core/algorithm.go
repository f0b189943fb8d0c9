package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dirty"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topo"
)

// step is one forwarding decision a policy path demands: at switch sw, for
// traffic that arrived through in — returning from a locally attached
// middlebox, or on the port facing a neighbor switch (anyPort at the path's
// entry: the Internet side of the gateway or the UE side of the access
// switch) — send to next. The neighbor is what lets loops entering via
// different links share one tag (§3.2). pos records which path position
// emitted the step, which is what loop segmentation cuts on.
type step struct {
	sw   topo.NodeID
	in   ingress
	next NextHop
	pos  int
}

// expandSteps turns a routed path into its forwarding steps for one
// direction, appending to buf (pass a reused buffer re-sliced to zero
// length to avoid allocating). Downstream walks gateway->access; upstream
// the reverse. Consecutive duplicate switch positions (two middleboxes
// chained on one switch) produce only middlebox steps, no self-forwarding.
func expandSteps(p *routing.Path, dir Direction, buf []step) []step {
	steps := buf
	n := p.Len()
	in := anyPort // entry: Internet side / UE side
	if dir == Down {
		for i := 0; i < n; i++ {
			if p.MBAt[i] != routing.NoMB {
				steps = append(steps, step{p.Switches[i], in, ToMB(p.MBAt[i]), i})
				in = fromMB(p.MBAt[i])
			}
			if i < n-1 {
				if p.Switches[i+1] == p.Switches[i] {
					continue // same switch again: next middlebox chains in place
				}
				steps = append(steps, step{p.Switches[i], in, ToNode(p.Switches[i+1]), i})
				in = fromPort(p.Switches[i])
			}
		}
		return steps
	}
	for i := n - 1; i >= 0; i-- {
		if p.MBAt[i] != routing.NoMB {
			steps = append(steps, step{p.Switches[i], in, ToMB(p.MBAt[i]), i})
			in = fromMB(p.MBAt[i])
		}
		if i > 0 {
			if p.Switches[i-1] == p.Switches[i] {
				continue
			}
			steps = append(steps, step{p.Switches[i], in, ToNode(p.Switches[i-1]), i})
			in = fromPort(p.Switches[i])
		}
	}
	// The explicit exit demand: upstream traffic reaching the gateway end
	// leaves through the Internet port. Making it a step (rather than an
	// implicit table-miss) lets the installer detect and override shadowing
	// rules when the path transits the gateway mid-route.
	steps = append(steps, step{p.Switches[0], in, Exit(), 0})
	return steps
}

// InstallerOptions tune Algorithm 1 and expose the ablation switches
// DESIGN.md §5 calls out.
type InstallerOptions struct {
	// Plan is the carrier address plan; base-station prefixes derive from
	// it. The zero value means packet.DefaultPlan.
	Plan packet.Plan
	// MaxCandidates bounds how many switch-derived tags are evaluated per
	// path when the chain-signature hints are empty (0 = no bound).
	MaxCandidates int
	// PaperExactCandidates always evaluates the switch-derived candidate
	// population in addition to the chain-signature hints, exactly as
	// Algorithm 1's candTag is defined. The default (false) evaluates the
	// hints alone whenever they exist — the hinted tags are precisely the
	// paths that can share rules end-to-end, so the argmin almost always
	// lands there, at a fraction of the cost. See DESIGN.md.
	PaperExactCandidates bool
	// FreshTagPerPath disables tag reuse entirely (ablation: flat
	// tag-per-path routing).
	FreshTagPerPath bool
	// NoPrefixAggregation disables contiguous-sibling merging (ablation).
	NoPrefixAggregation bool
	// NoTagDefault disables tag-only Type 2 rules; every step installs a
	// (tag, prefix) rule (ablation: no shared-segment compression).
	NoTagDefault bool
	// DownstreamOnly installs (and counts) only the Internet->UE direction,
	// matching the paper's Fig. 3 perspective and its large-scale
	// simulation methodology. The full dataplane always installs both
	// directions; only the rule-counting sweeps set this.
	DownstreamOnly bool
	// NoLocationRouting disables Type 3 location rules (ablation): the
	// fan-out below the last middlebox is tag-routed instead.
	NoLocationRouting bool
	// SkipAccessSwitchRules drops steps at access-layer switches entirely.
	// Use only for rule-COUNTING simulations over hardware switches (Fig.
	// 7): it saves gigabytes on 20000-station networks, but traces across
	// ring clusters no longer resolve. The dataplane never sets this.
	SkipAccessSwitchRules bool
	// UnboundedTags lifts the plan's MaxTag bound on fresh-tag allocation.
	// By default InstallPath fails cleanly when its residue class is
	// exhausted — a tag past the plan's TagBits cannot be embedded in a
	// port, so allocating one silently would surface later as corrupted
	// classifiers mid-run. Rule-COUNTING simulations set this: Fig. 7's
	// 20000-station sweeps (and the fresh-tag-per-path ablation) count
	// table entries, not encodable ports, exactly as the paper's
	// methodology does.
	UnboundedTags bool
	// TagOffset and TagStride partition the tag space across parallel
	// controller shards: this installer allocates TagOffset+TagStride,
	// TagOffset+2*TagStride, ... — the residue class TagOffset+TagStride
	// (mod TagStride). Shards configured with a common stride and distinct
	// offsets in [0, stride) therefore never emit the same tag, without any
	// cross-shard coordination; within one shard the existing per-origin
	// uniqueness argument (paper footnote 2) is unchanged. Zero values mean
	// offset 0, stride 1: the whole space, the unsharded default.
	TagOffset int
	TagStride int
}

// PathID identifies an installed policy path.
type PathID uint64

// InstalledPath records everything needed to trace, rebuild or re-anchor a
// policy path. A record is immutable after publish: InstallPath builds it,
// and a rebuild files a fresh record rather than rewriting an old one, so a
// Shortcut may alias Tags for as long as it lives.
type InstalledPath struct {
	ID     PathID
	Origin packet.BSID
	// Tags holds one tag per loop segment, gateway side first. Loop-free
	// paths (the overwhelmingly common case) have exactly one.
	Tags  []packet.Tag
	Chain []topo.MBInstanceID
	Route *routing.Path
}

// GatewayTag is the tag return traffic carries when it enters the gateway.
func (ip *InstalledPath) GatewayTag() packet.Tag { return ip.Tags[0] }

// AccessTag is the tag the local agent embeds in upstream source ports.
func (ip *InstalledPath) AccessTag() packet.Tag { return ip.Tags[len(ip.Tags)-1] }

// InstallStats aggregates installer activity.
type InstallStats struct {
	Paths           uint64
	Rules           int // net TCAM rules currently installed (all switches)
	TagsAllocated   uint64
	LoopsSplit      uint64
	CandidatesTried uint64
}

// Installer realises Algorithm 1 (plus the loop-splitting extension of
// §3.2): given a stream of policy paths it chooses tags that minimise new
// rules and installs multi-dimensionally aggregated forwarding state. It
// owns one FIB per switch. It is not safe for concurrent use; the
// Controller serialises access.
type Installer struct {
	T    *topo.Topology
	Opts InstallerOptions

	plan    packet.Plan
	fibs    []*FIB
	changed *dirty.Set // the switches whose FIB version moved; nil before the first Changed
	nextTag packet.Tag
	nextID  PathID

	// chainTags remembers which tags were used for each (gateway, instance
	// chain, loop-segment index) signature — the paths that can share rules
	// end-to-end.
	chainTags map[chainSegKey][]packet.Tag
	// originTags forbids reusing a tag for two paths from one base station
	// (paper footnote 2: they would be indistinguishable everywhere).
	// Stored as sorted slices: sweeps create tens of millions of entries.
	originTags map[packet.BSID][]packet.Tag

	stats InstallStats

	// treeParent holds the canonical shortest-path tree per gateway root,
	// built lazily; location rules are only placed for steps that follow it.
	treeParent map[topo.NodeID][]topo.NodeID

	// scratch holds buffers reused across InstallPath calls so the
	// steady-state install loop does not allocate (one set suffices: the
	// Installer is serialised — the Controller calls it under ruleMu). Maps
	// are cleared, slices re-sliced to zero length, on each use; nothing in
	// here may escape into an InstalledPath record.
	scratch struct {
		down, up   []step
		demands    map[demandKey]demand
		costUse    map[topo.NodeID]NextHop
		installUse map[topo.NodeID]NextHop
		candSeen   map[packet.Tag]bool
		cands      []packet.Tag
		chain      []topo.NodeID
		downSegs   [][]step
		upSegs     [][]step
	}
}

// NewInstaller builds an installer over the topology.
func NewInstaller(t *topo.Topology, opts InstallerOptions) (*Installer, error) {
	if opts.Plan == (packet.Plan{}) {
		opts.Plan = packet.DefaultPlan
	}
	if err := opts.Plan.Validate(); err != nil {
		return nil, err
	}
	if opts.TagStride < 0 || opts.TagOffset < 0 {
		return nil, fmt.Errorf("core: negative tag partition (offset %d, stride %d)", opts.TagOffset, opts.TagStride)
	}
	if opts.TagStride > 1 && opts.TagOffset >= opts.TagStride {
		return nil, fmt.Errorf("core: tag offset %d outside stride %d", opts.TagOffset, opts.TagStride)
	}
	fibs := make([]*FIB, len(t.Nodes))
	for i := range fibs {
		fibs[i] = NewFIB(topo.NodeID(i))
	}
	in := &Installer{
		T:          t,
		Opts:       opts,
		plan:       opts.Plan,
		fibs:       fibs,
		nextTag:    packet.Tag(opts.TagOffset),
		chainTags:  make(map[chainSegKey][]packet.Tag),
		originTags: make(map[packet.BSID][]packet.Tag),
		treeParent: make(map[topo.NodeID][]topo.NodeID),
	}
	in.scratch.demands = make(map[demandKey]demand)
	in.scratch.costUse = make(map[topo.NodeID]NextHop)
	in.scratch.installUse = make(map[topo.NodeID]NextHop)
	in.scratch.candSeen = make(map[packet.Tag]bool)
	return in, nil
}

// Changed returns the set of switches, by node, whose FIB version moved
// since the set was last drained: the data plane syncing its tables from
// this controller, the set's one reader, visits these and no other. The
// first call starts the set with every switch in it, so a controller no
// data plane reads keeps none, and a rebuild's fresh Installer starts a
// set of its own.
func (in *Installer) Changed() *dirty.Set {
	if in.changed == nil {
		in.changed = dirty.New(len(in.fibs))
		for _, f := range in.fibs {
			f.changed = in.changed
		}
	}
	return in.changed
}

// tree returns (building lazily) the canonical tree rooted at the gateway,
// bootstrapping the full Type 3 location tables the first time.
func (in *Installer) tree(root topo.NodeID) []topo.NodeID {
	if t, ok := in.treeParent[root]; ok {
		return t
	}
	t := in.T.SPTree(root)
	in.treeParent[root] = t
	in.bootstrapLocation(root, t)
	return t
}

// EnableLocationRouting eagerly builds the canonical tree and the base
// Type 3 location tables for the given gateway root. Path installs trigger
// it lazily anyway; controllers call it up front so location-routed traffic
// (mobile-to-mobile, public-IP inbound — §7) works before any policy path
// exists. It is a no-op when NoLocationRouting is set or already enabled.
func (in *Installer) EnableLocationRouting(root topo.NodeID) {
	if in.Opts.NoLocationRouting {
		return
	}
	in.tree(root)
}

// bootstrapLocation installs the base location-routing state (Fig. 3(a)):
// per switch, a climb default toward the tree root for both directions (at
// the root, the upstream default is the Internet exit), plus one descend
// entry per station along the station's ancestor chain. Sibling stations'
// entries merge, so each switch ends up with roughly one entry per subtree
// block — an ordinary aggregated routing table, independent of the policy
// count.
func (in *Installer) bootstrapLocation(root topo.NodeID, parent []topo.NodeID) {
	rules := 0
	carrier := in.plan.Carrier
	for i := range in.fibs {
		n := topo.NodeID(i)
		if in.Opts.SkipAccessSwitchRules && in.T.Nodes[i].Kind == topo.Access {
			continue
		}
		if n == root {
			rules += in.fibs[i].InsertLocation(Up, anyPort, carrier, Exit())
			continue
		}
		if parent[n] == topo.None {
			continue // unreachable island
		}
		rules += in.fibs[i].InsertLocation(Up, anyPort, carrier, ToNode(parent[n]))
		rules += in.fibs[i].InsertLocation(Down, anyPort, carrier, ToNode(parent[n]))
	}
	var chain []topo.NodeID
	for _, st := range in.T.Stations {
		prefix, err := in.plan.BSPrefix(st.ID)
		if err != nil {
			continue
		}
		chain = in.T.AppendAncestorChain(chain[:0], st.Access, parent)
		if chain == nil || chain[len(chain)-1] != root {
			continue
		}
		if !in.Opts.SkipAccessSwitchRules {
			// The leaf delivers its own block instead of climbing.
			rules += in.fibs[st.Access].InsertLocation(Down, anyPort, prefix, Deliver())
		}
		for i := 1; i < len(chain); i++ {
			if in.Opts.SkipAccessSwitchRules && in.T.Nodes[chain[i]].Kind == topo.Access {
				continue
			}
			rules += in.fibs[chain[i]].InsertLocation(Down, anyPort, prefix, ToNode(chain[i-1]))
		}
		// Adjacency-jump entries: every off-chain switch adjacent to a
		// chain node dispatches this block straight to its lowest-index
		// adjacent chain node, mirroring CanonicalDescend (full-mesh layers
		// cut across instead of climbing through the root): u's entry is
		// placed from the first chain node it neighbours.
		for i, v := range chain {
			for _, u := range in.T.Nodes[v].Neighbors {
				if slices.Contains(chain, u) || in.Opts.SkipAccessSwitchRules && in.T.Nodes[u].Kind == topo.Access {
					continue
				}
				if slices.IndexFunc(chain, func(w topo.NodeID) bool { return in.T.Nodes[u].PortTo(w) >= 0 }) == i {
					rules += in.fibs[u].InsertLocation(Down, anyPort, prefix, ToNode(v))
				}
			}
		}
	}
	in.stats.Rules += rules
}

// canonCtx carries the per-path canonicity oracle: the gateway tree plus
// the destination access switch's ancestor chain, against which steps are
// tested with topo.CanonicalDescend.
type canonCtx struct {
	enabled bool
	parent  []topo.NodeID
	chain   []topo.NodeID
}

func (in *Installer) canonFor(p *routing.Path, access topo.NodeID) canonCtx {
	if in.Opts.NoLocationRouting {
		return canonCtx{}
	}
	parent := in.tree(p.Gateway())
	// The chain is scratch state: it lives only for this path's install.
	chain := in.T.AppendAncestorChain(in.scratch.chain[:0], access, parent)
	in.scratch.chain = chain
	if chain == nil || chain[len(chain)-1] != p.Gateway() {
		return canonCtx{}
	}
	return canonCtx{enabled: true, parent: parent, chain: chain}
}

// canonicalDown reports whether "at switch u forward to next" is the
// canonical descend decision toward the chain's access switch.
func (in *Installer) canonicalDown(c canonCtx, u topo.NodeID, next NextHop) bool {
	if !c.enabled || next.MB != NoMB || next.NewTag != 0 || next.Node < 0 {
		return false
	}
	want, done := in.T.CanonicalDescend(u, c.chain, c.parent)
	return !done && want == next.Node
}

// canonicalUp reports whether the decision matches the canonical climb
// toward the gateway root (including the exit at the root itself).
func (c canonCtx) canonicalUp(u topo.NodeID, next NextHop) bool {
	if !c.enabled || next.MB != NoMB || next.NewTag != 0 {
		return false
	}
	if next.IsExit() {
		return c.parent[u] == topo.None // only at the root
	}
	return next.Node >= 0 && next.Node == c.parent[u]
}

// FIB exposes the forwarding table of one switch.
func (in *Installer) FIB(n topo.NodeID) *FIB { return in.fibs[n] }

// Stats returns a copy of the installer counters.
func (in *Installer) Stats() InstallStats { return in.stats }

// freshTag allocates the next tag of this installer's residue class,
// failing cleanly when the class is exhausted — the encodable tag space is
// bounded by the address plan, and silently allocating past it would emit
// tags no agent can embed (the mid-run allocator panic the bench guards
// against up front).
func (in *Installer) freshTag() (packet.Tag, error) {
	stride := packet.Tag(1)
	if in.Opts.TagStride > 1 {
		stride = packet.Tag(in.Opts.TagStride)
	}
	next := in.nextTag + stride
	if next > in.plan.MaxTag() && !in.Opts.UnboundedTags {
		return 0, fmt.Errorf("core: policy-tag space exhausted: residue class %d (mod %d) has no tag left under plan max %d (%d allocated); widen Plan.TagBits or lower the shard count",
			in.Opts.TagOffset, max(in.Opts.TagStride, 1), in.plan.MaxTag(), in.stats.TagsAllocated)
	}
	in.nextTag = next
	in.stats.TagsAllocated++
	return in.nextTag, nil
}

// chainSegKey identifies a shareable tag population: paths with the same
// instance chain and gateway share loop structure, so their i-th segments
// can share a tag.
type chainSegKey struct {
	chain string
	seg   int
}

// originHas reports whether origin already uses tag (binary search over the
// sorted per-origin slice).
func (in *Installer) originHas(origin packet.BSID, tag packet.Tag) bool {
	ts := in.originTags[origin]
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= tag })
	return i < len(ts) && ts[i] == tag
}

// originAdd records tag against origin, keeping the slice sorted.
func (in *Installer) originAdd(origin packet.BSID, tag packet.Tag) {
	ts := in.originTags[origin]
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= tag })
	if i < len(ts) && ts[i] == tag {
		return
	}
	ts = append(ts, 0)
	copy(ts[i+1:], ts[i:])
	ts[i] = tag
	in.originTags[origin] = ts
}

// demandKey identifies one forwarding decision slot. The ingress is part of
// it: two visits entering through different links coexist under one tag via
// in-port-qualified rules, so only same-link revisits force a segmentation
// cut (§3.2).
type demandKey struct {
	dir Direction
	sw  topo.NodeID
	in  ingress
}

// demand is one recorded forwarding decision during loop detection.
type demand struct {
	next NextHop
	pos  int
}

// findCuts returns the sorted path positions where a new loop segment must
// begin: within one segment, no (direction, switch, context) may demand two
// different next hops, or a single (tag, prefix) rule could not express the
// path (§3.2 "Dealing with loops"). It refines iteratively until both
// directions are conflict-free. The demand table is scratch state (cleared
// per iteration), so the loop-free common case does not allocate.
func (in *Installer) findCuts(down, up []step, pathLen int) []int {
	var cuts []int
	inSegment := func(pos int) int { // segment index for a position
		return sort.SearchInts(cuts, pos+1)
	}
	demands := in.scratch.demands
	for iter := 0; iter < pathLen+2; iter++ {
		clear(demands)
		conflictAt := -1
		for dirIdx, steps := range [2][]step{down, up} {
			for _, st := range steps {
				k := demandKey{Direction(dirIdx), st.sw, st.in}
				prev, ok := demands[k]
				if ok && inSegment(prev.pos) == inSegment(st.pos) && prev.next != st.next {
					// Cut between the two conflicting positions.
					lo, hi := prev.pos, st.pos
					if lo > hi {
						lo, hi = hi, lo
					}
					conflictAt = hi // boundary a: lo <= a-1 < a <= hi
					break
				}
				// Keep the later position so chained conflicts refine.
				demands[k] = demand{st.next, st.pos}
			}
			if conflictAt >= 0 {
				break
			}
		}
		if conflictAt < 0 {
			return cuts
		}
		i := sort.SearchInts(cuts, conflictAt)
		if i < len(cuts) && cuts[i] == conflictAt {
			// Refusing to loop forever on a conflict inside one position
			// (cannot happen: contexts differ within a position).
			return cuts
		}
		cuts = append(cuts, 0)
		copy(cuts[i+1:], cuts[i:])
		cuts[i] = conflictAt
	}
	return cuts
}

// sliceByPos splits annotated steps into len(cuts)+1 groups by position
// interval; group i holds positions [start_i, start_{i+1}).
func sliceByPos(steps []step, cuts []int) [][]step {
	groups := make([][]step, len(cuts)+1)
	for _, st := range steps {
		g := sort.SearchInts(cuts, st.pos+1)
		groups[g] = append(groups[g], st)
	}
	return groups
}

// candidateTags assembles candTag for one segment of a path: tags
// previously used for the same (chain signature, segment), then — when the
// hints are empty or PaperExactCandidates is set — tags present on the
// path's switches. Tags already used by this origin (or chosen for an
// earlier segment of this very path) are excluded, per footnote 2. The
// returned slice is scratch state, valid until the next call.
func (in *Installer) candidateTags(p *routing.Path, chainKey string, seg int, taken []packet.Tag) []packet.Tag {
	if in.Opts.FreshTagPerPath {
		return nil
	}
	out := in.scratch.cands[:0]
	seen := in.scratch.candSeen
	clear(seen)
	defer func() { in.scratch.cands = out[:0] }()
	add := func(t packet.Tag) {
		if t == 0 || seen[t] || in.originHas(p.Origin, t) {
			return
		}
		for _, tt := range taken {
			if tt == t {
				return
			}
		}
		seen[t] = true
		out = append(out, t)
	}
	for _, t := range in.chainTags[chainSegKey{chainKey, seg}] {
		add(t)
	}
	if len(out) > 0 && !in.Opts.PaperExactCandidates {
		return out
	}
	perSwitch := 0 // 0 = all
	if in.Opts.MaxCandidates > 0 {
		if len(out) >= in.Opts.MaxCandidates {
			return out
		}
		perSwitch = in.Opts.MaxCandidates
	}
	for _, sw := range p.Switches {
		for _, t := range in.fibs[sw].RecentTags(perSwitch) {
			add(t)
			if in.Opts.MaxCandidates > 0 && len(out) >= in.Opts.MaxCandidates {
				return out
			}
		}
	}
	return out
}

// costForTag implements lines 1-6 of Algorithm 1: the number of new rules
// required to realise the segment under candidate tag t, in both
// directions. It mirrors installSteps' placement policy exactly, including
// which rules land in the in-port-qualified context.
func (in *Installer) costForTag(down, up []step, t packet.Tag, prefix packet.Prefix, canon canonCtx) int {
	cost := 0
	merge := !in.Opts.NoPrefixAggregation
	mainUse := in.scratch.costUse
	for dirIdx, steps := range [2][]step{down, up} {
		dir := Direction(dirIdx)
		clear(mainUse)
		for _, st := range steps {
			f := in.fibs[st.sw]
			if st.in.mb != NoMB {
				cur, ok := f.GetNextHop(dir, st.in, t, prefix)
				if ok && cur == st.next {
					continue
				}
				if ok && merge && f.state(dir, st.in, t, false).canAggregate(prefix, st.next) {
					continue
				}
				cost++
				continue
			}
			// Network-port step: port-qualified rules outrank main (the
			// path's entry, anyPort, has no qualified context of its own).
			if st.in != anyPort {
				if nh, _, ok := f.resolve(dir, st.in, t, prefix); ok {
					if nh != st.next {
						cost++ // cross-path port-rule divergence
					}
					continue
				}
			}
			cur, fromTag, ok := f.resolve(dir, anyPort, t, prefix)
			if ok && cur == st.next {
				mainUse[st.sw] = cur
				continue
			}
			if prev, used := mainUse[st.sw]; used && prev != st.next {
				if merge && f.state(dir, st.in, t, false).canAggregate(prefix, st.next) {
					continue
				}
				cost++
				continue
			}
			if !fromTag {
				cost++ // location entry, Type 2 default, or Type 1 rule
				mainUse[st.sw] = st.next
				continue
			}
			if merge && f.state(dir, anyPort, t, false).canAggregate(prefix, st.next) {
				mainUse[st.sw] = st.next
				continue
			}
			cost++
			mainUse[st.sw] = st.next
		}
	}
	return cost
}

// installSteps realises one direction's segment steps under tag t (lines
// 11-16). It returns the net rule delta. Placement policy: middlebox-return
// steps go to the middlebox in-port context; network steps prefer the
// port-wildcard main context (a tag-only default when the tag is new here,
// a (tag, prefix) override on divergence) and fall back to in-port-qualified
// rules when the segment itself needs two different decisions for the same
// (tag, prefix) at one switch — the different-link loop of §3.2.
func (in *Installer) installSteps(dir Direction, steps []step, t packet.Tag, prefix packet.Prefix, canon canonCtx) int {
	delta := 0
	merge := !in.Opts.NoPrefixAggregation
	mainUse := in.scratch.installUse
	clear(mainUse)
	for _, st := range steps {
		f := in.fibs[st.sw]
		// override installs the Type 1 rule for this step in context ctx.
		override := func(ctx ingress) {
			delta += f.InsertPrefix(dir, ctx, t, prefix, st.next, merge)
		}
		if st.in.mb != NoMB {
			// Provenance-aware ladder: mb tag state, then mb location,
			// then the fall-through to the main context.
			if nh, fromTag, ok := f.resolve(dir, st.in, t, prefix); ok {
				if nh != st.next {
					// Prefix-precise override outranking the rule that hit.
					override(st.in)
				} else if !fromTag {
					f.MarkLocReliant(dir, st.in, t)
				}
				continue
			}
			if in.canonicalStep(dir, st, canon) {
				// Tag-independent dispatch from the chain's last middlebox
				// into the canonical fan-out.
				delta += f.InsertLocation(dir, st.in, prefix, st.next)
				f.MarkLocReliant(dir, st.in, t)
				continue
			}
			if cur, ok := f.GetNextHop(dir, anyPort, t, prefix); ok && cur == st.next {
				// Satisfied by the main-context fall-through; protect it
				// from future mb-context defaults and main clobbering.
				f.MarkLocReliant(dir, st.in, t)
				mainUse[st.sw] = cur
				continue
			}
			if !in.Opts.NoTagDefault && !f.LocReliant(dir, st.in, t) {
				delta += f.SetDefault(dir, st.in, t, st.next)
				continue
			}
			override(st.in)
			continue
		}
		if st.in != anyPort {
			if nh, _, ok := f.resolve(dir, st.in, t, prefix); ok {
				if nh != st.next {
					override(st.in)
				}
				continue
			}
		}
		// Provenance-aware resolution: tag state (Type 1/2) over the shared
		// location table (Type 3).
		cur, fromTag, ok := f.resolve(dir, anyPort, t, prefix)
		if ok && cur == st.next {
			if !fromTag {
				// Satisfied by the location table: remember so no later
				// install shadows it with a Type 2 default for this tag.
				f.MarkLocReliant(dir, anyPort, t)
			}
			mainUse[st.sw] = cur
			continue
		}
		if prev, used := mainUse[st.sw]; used && prev != st.next {
			override(st.in)
			continue
		}
		if !fromTag {
			if !ok && in.canonicalStep(dir, st, canon) {
				// Shared Type 3 location rule (Fig. 3(a)): one prefix-only
				// entry serves every clause whose tail crosses this switch.
				delta += f.InsertLocation(dir, anyPort, prefix, st.next)
				f.MarkLocReliant(dir, anyPort, t)
				mainUse[st.sw] = st.next
				continue
			}
			if !in.Opts.NoTagDefault && !f.LocReliant(dir, anyPort, t) {
				// First tag state here: a tag-only Type 2 rule covers every
				// prefix on the shared segment (Fig. 3(c) CS1).
				delta += f.SetDefault(dir, anyPort, t, st.next)
				mainUse[st.sw] = st.next
				continue
			}
		}
		override(anyPort)
		mainUse[st.sw] = st.next
	}
	return delta
}

// canonicalStep reports whether the step's decision matches the canonical
// gateway tree, making it eligible for a shared location rule.
func (in *Installer) canonicalStep(dir Direction, st step, canon canonCtx) bool {
	if dir == Down {
		return in.canonicalDown(canon, st.sw, st.next)
	}
	return canon.canonicalUp(st.sw, st.next)
}

// dropAccessSteps filters out steps at access-layer switches (counting
// mode; see InstallerOptions.SkipAccessSwitchRules).
func (in *Installer) dropAccessSteps(steps []step) []step {
	out := steps[:0]
	for _, st := range steps {
		if in.T.Nodes[st.sw].Kind != topo.Access {
			out = append(out, st)
		}
	}
	return out
}

// setCrossingSwap rewrites the last step of a segment to also swap the
// packet's tag — the §3.2 loop rule connecting two segments. The crossing
// can be a network hop or a middlebox detour (when the loop closes inside
// one switch); either way, the rewrite happens before the next lookup.
func setCrossingSwap(steps []step, to packet.Tag) {
	if len(steps) > 0 {
		steps[len(steps)-1].next.NewTag = to
	}
}

// InstallPath runs Algorithm 1 for one policy path: split loops into
// segments, pick a tag per segment (reuse minimising new rules, else
// fresh), install rules in both directions, and wire tag swaps between
// segments. Segments install far-end first so no packet can follow a
// half-installed path (consistent updates, citing [23]).
func (in *Installer) InstallPath(p *routing.Path) (*InstalledPath, error) {
	if p == nil || p.Len() == 0 {
		return nil, fmt.Errorf("core: empty path")
	}
	bs, ok := in.T.Station(p.Origin)
	if !ok {
		return nil, fmt.Errorf("core: unknown origin base station %d", p.Origin)
	}
	if p.Access() != bs.Access {
		return nil, fmt.Errorf("core: path access end %d does not serve base station %d", p.Access(), p.Origin)
	}
	for i := 0; i < p.Len()-1; i++ {
		if p.Switches[i] == bs.Access {
			return nil, fmt.Errorf("core: path transits its own access switch at position %d (unsupported: delivery microflows would short-circuit it)", i)
		}
	}
	if p.MBAt[p.Len()-1] != routing.NoMB {
		return nil, fmt.Errorf("core: middlebox at the origin's access switch is unsupported (delivery microflows would short-circuit it)")
	}
	prefix, err := in.plan.BSPrefix(p.Origin)
	if err != nil {
		return nil, err
	}

	down := expandSteps(p, Down, in.scratch.down[:0])
	var up []step
	if !in.Opts.DownstreamOnly {
		up = expandSteps(p, Up, in.scratch.up[:0])
	}
	if in.Opts.SkipAccessSwitchRules {
		down = in.dropAccessSteps(down)
		up = in.dropAccessSteps(up)
	}
	in.scratch.down, in.scratch.up = down[:0], up[:0]
	cuts := in.findCuts(down, up, p.Len())
	var downSegs, upSegs [][]step
	if len(cuts) == 0 {
		// Loop-free path (the overwhelmingly common case): one segment per
		// direction, no per-group copies.
		downSegs = append(in.scratch.downSegs[:0], down)
		upSegs = append(in.scratch.upSegs[:0], up)
		in.scratch.downSegs, in.scratch.upSegs = downSegs[:0], upSegs[:0]
	} else {
		downSegs = sliceByPos(down, cuts)
		upSegs = sliceByPos(up, cuts)
		in.stats.LoopsSplit++
	}

	canon := in.canonFor(p, bs.Access)
	chainKey := routing.ChainKey(p.Gateway(), p.Chain)
	tags := make([]packet.Tag, len(downSegs))
	for i := range tags {
		if !in.Opts.FreshTagPerPath {
			cands := in.candidateTags(p, chainKey, i, tags[:i])
			bestTag, bestCost := packet.Tag(0), -1
			for _, t := range cands {
				in.stats.CandidatesTried++
				c := in.costForTag(downSegs[i], upSegs[i], t, prefix, canon)
				if bestCost < 0 || c < bestCost {
					bestTag, bestCost = t, c
					if c == 0 {
						break
					}
				}
			}
			if bestCost >= 0 {
				tags[i] = bestTag
				continue
			}
		}
		// A new tag when candTag is empty (Algorithm 1 lines 9-10).
		t, err := in.freshTag()
		if err != nil {
			return nil, err
		}
		tags[i] = t
	}

	// Wire inter-segment swaps. Downstream crosses from segment i to i+1 on
	// segment i's last network step; upstream traverses segments in reverse
	// (i+1 before i), crossing back on segment i+1's last up step.
	for i := 0; i+1 < len(downSegs); i++ {
		setCrossingSwap(downSegs[i], tags[i+1])
		setCrossingSwap(upSegs[i+1], tags[i])
	}

	// Install far-end first per direction.
	rules := 0
	for i := len(downSegs) - 1; i >= 0; i-- {
		rules += in.installSteps(Down, downSegs[i], tags[i], prefix, canon)
	}
	for i := 0; i < len(upSegs); i++ {
		rules += in.installSteps(Up, upSegs[i], tags[i], prefix, canon)
	}
	in.stats.Rules += rules
	in.stats.Paths++

	for i, t := range tags {
		in.originAdd(p.Origin, t)
		if in.Opts.FreshTagPerPath {
			continue
		}
		key := chainSegKey{chainKey, i}
		known := false
		for _, tt := range in.chainTags[key] {
			if tt == t {
				known = true
				break
			}
		}
		if !known {
			in.chainTags[key] = append(in.chainTags[key], t)
		}
	}

	in.nextID++
	return &InstalledPath{
		ID:     in.nextID,
		Origin: p.Origin,
		Tags:   tags,
		Chain:  append([]topo.MBInstanceID(nil), p.Chain...),
		Route:  p,
	}, nil
}
