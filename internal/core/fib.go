// Package core implements the SoftCell controller — the paper's primary
// contribution. It computes policy paths, allocates policy tags, installs
// forwarding state with the multi-dimensional aggregation of §3 (Algorithm
// 1), handles UE attachment and mobility with policy consistency (§5.1), and
// exposes the replicated control state used for failover (§5.2).
package core

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/topo"
)

// NextHop is a forwarding decision at one switch: either out the port toward
// a neighbor switch, or out the attachment port of a local middlebox. A
// non-zero NewTag additionally rewrites the packet's policy tag — the "swap"
// rule that disambiguates path loops (§3.2).
type NextHop struct {
	Node   topo.NodeID       // neighbor switch; topo.None when MB is set
	MB     topo.MBInstanceID // local middlebox instance; NoMB when Node is set
	NewTag packet.Tag        // 0 = keep tag
}

// NoMB is the absent-middlebox sentinel for NextHop.MB.
const NoMB topo.MBInstanceID = -1

// ExitNode is the pseudo next hop for traffic leaving the cellular core
// through a gateway's Internet port.
const ExitNode topo.NodeID = -2

// DeliverNode is the pseudo next hop for traffic that has reached its
// destination access switch: hand it to the local agent/microflows for
// delivery to the UE.
const DeliverNode topo.NodeID = -3

// ToNode builds a switch-to-switch next hop.
func ToNode(n topo.NodeID) NextHop { return NextHop{Node: n, MB: NoMB} }

// ToMB builds a next hop into a locally attached middlebox.
func ToMB(mb topo.MBInstanceID) NextHop { return NextHop{Node: topo.None, MB: mb} }

// Exit builds the leave-the-network next hop (the gateway's Internet port).
func Exit() NextHop { return NextHop{Node: ExitNode, MB: NoMB} }

// IsExit reports whether the next hop leaves the network.
func (nh NextHop) IsExit() bool { return nh.Node == ExitNode }

// Deliver builds the local-delivery next hop for a destination access
// switch.
func Deliver() NextHop { return NextHop{Node: DeliverNode, MB: NoMB} }

// IsDeliver reports whether the next hop is local delivery.
func (nh NextHop) IsDeliver() bool { return nh.Node == DeliverNode }

// Zero reports whether the next hop is unset.
func (nh NextHop) Zero() bool { return nh.Node == topo.None && nh.MB == NoMB }

func (nh NextHop) String() string {
	switch {
	case nh.MB != NoMB:
		return fmt.Sprintf("mb#%d", nh.MB)
	case nh.IsExit():
		return "exit"
	case nh.IsDeliver():
		return "deliver"
	default:
		return fmt.Sprintf("sw%d", nh.Node)
	}
}

// trieNode is one node of a binary prefix trie. An entry is present when
// set; internal nodes may also carry entries (shorter prefixes).
type trieNode struct {
	child [2]*trieNode
	set   bool
	nh    NextHop
}

// prefixTrie stores (prefix -> NextHop) entries with longest-prefix-match
// lookup and automatic contiguous-sibling aggregation: whenever both
// children of a position hold entries with the same next hop, they merge
// into their parent (paper §3.2: "the algorithm aggregates two rules if and
// only if their location prefixes are contiguous").
type prefixTrie struct {
	root  *trieNode
	count int // live entries = TCAM rules
}

func newPrefixTrie() *prefixTrie { return &prefixTrie{root: &trieNode{}} }

// bitAt extracts bit i (0 = most significant) of an address.
func bitAt(a packet.Addr, i int) int { return int(a>>(31-i)) & 1 }

// Lookup finds the longest installed prefix covering p and returns its next
// hop. Policy-path prefixes are always queried with a prefix at least as
// long as any installed entry that could cover it, so LPM over the query's
// bits is exact.
func (t *prefixTrie) Lookup(p packet.Prefix) (NextHop, bool) {
	n := t.root
	best := NextHop{Node: topo.None, MB: NoMB}
	found := false
	for depth := 0; ; depth++ {
		if n.set {
			best, found = n.nh, true
		}
		if depth >= p.Len {
			break
		}
		n = n.child[bitAt(p.Addr, depth)]
		if n == nil {
			break
		}
	}
	return best, found
}

// Exact returns the entry installed for exactly p, if any.
func (t *prefixTrie) Exact(p packet.Prefix) (NextHop, bool) {
	n := t.node(p, false)
	if n == nil || !n.set {
		return NextHop{Node: topo.None, MB: NoMB}, false
	}
	return n.nh, true
}

func (t *prefixTrie) node(p packet.Prefix, create bool) *trieNode {
	n := t.root
	for depth := 0; depth < p.Len; depth++ {
		b := bitAt(p.Addr, depth)
		if n.child[b] == nil {
			if !create {
				return nil
			}
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	return n
}

// CanAggregate reports whether installing (p -> nh) would merge with an
// existing contiguous entry: its sibling holds the same next hop.
func (t *prefixTrie) CanAggregate(p packet.Prefix, nh NextHop) bool {
	sib, ok := p.Sibling()
	if !ok {
		return false
	}
	got, present := t.Exact(sib)
	return present && got == nh
}

// Insert installs (p -> nh), merging contiguous siblings upward. It returns
// the net change in rule count (can be <= 0 when aggregation collapses
// entries). Inserting an exact duplicate with a different next hop replaces
// it (the caller guarantees this never breaks an installed path).
func (t *prefixTrie) Insert(p packet.Prefix, nh NextHop) int {
	if cur, ok := t.Lookup(p); ok && cur == nh {
		return 0 // already routed identically (possibly by a merged block)
	}
	before := t.count
	n := t.node(p, true)
	if !n.set {
		n.set = true
		t.count++
	}
	n.nh = nh
	// Merge upward while the sibling entry matches.
	for p.Len > 0 {
		sib, _ := p.Sibling()
		sn := t.node(sib, false)
		if sn == nil || !sn.set || sn.nh != nh {
			break
		}
		parent, _ := p.Parent()
		pn := t.node(parent, true)
		cn := t.node(p, false)
		cn.set = false
		sn.set = false
		t.count -= 2
		if !pn.set {
			pn.set = true
			t.count++
		}
		pn.nh = nh
		p = parent
	}
	return t.count - before
}

// Count reports live entries.
func (t *prefixTrie) Count() int { return t.count }

// Walk visits every live entry.
func (t *prefixTrie) Walk(fn func(p packet.Prefix, nh NextHop)) {
	var rec func(n *trieNode, addr packet.Addr, depth int)
	rec = func(n *trieNode, addr packet.Addr, depth int) {
		if n == nil {
			return
		}
		if n.set {
			fn(packet.Prefix{Addr: addr, Len: depth}, n.nh)
		}
		if depth < 32 {
			rec(n.child[0], addr, depth+1)
			rec(n.child[1], addr|packet.Addr(1)<<(31-depth), depth+1)
		}
	}
	rec(t.root, 0, 0)
}

// Direction orients forwarding state: downstream rules match on destination
// (LocIP, tag-in-dst-port), upstream rules on source.
type Direction uint8

// Directions.
const (
	Down Direction = iota // Internet/gateway -> base station
	Up                    // base station -> gateway
)

func (d Direction) String() string {
	if d == Down {
		return "down"
	}
	return "up"
}

// tagState is the per-(direction, tag) forwarding state at one switch.
// The prefix trie is allocated lazily: most shared-segment switches only
// ever hold the tag-only default, and large simulations create millions of
// these states.
type tagState struct {
	def    NextHop // tag-only default (Type 2 rule); Zero when absent
	hasDef bool
	prefix *prefixTrie // tag+prefix overrides (Type 1 rules); nil until used
}

// trie returns the state's prefix trie, allocating on first use.
func (st *tagState) trie() *prefixTrie {
	if st.prefix == nil {
		st.prefix = newPrefixTrie()
	}
	return st.prefix
}

// prefixLookup is a nil-safe trie lookup.
func (st *tagState) prefixLookup(p packet.Prefix) (NextHop, bool) {
	if st.prefix == nil {
		return NextHop{Node: topo.None, MB: NoMB}, false
	}
	return st.prefix.Lookup(p)
}

// mbCtx keys the middlebox-return context: rules matching the in-port from
// one locally attached middlebox (paper footnote 1).
type mbCtx struct {
	dir Direction
	mb  topo.MBInstanceID
	tag packet.Tag
}

// mbLocKey keys tag-independent location rules in a middlebox-return
// context.
type mbLocKey struct {
	dir Direction
	mb  topo.MBInstanceID
}

// portCtx keys in-port-qualified rules: "a loop that enters the same switch
// twice but through different links can easily be differentiated based on
// the input ports" (§3.2). The in-port is identified by the neighbor switch
// behind it.
type portCtx struct {
	dir  Direction
	from topo.NodeID
	tag  packet.Tag
}

type tagKey struct {
	dir Direction
	tag packet.Tag
}

// FIB is the abstract forwarding table of one switch as the controller
// tracks it: Type 1/2 rules in the main context plus per-middlebox-in-port
// contexts. Rule counts correspond one-to-one to TCAM entries.
type FIB struct {
	Node topo.NodeID

	main map[tagKey]*tagState
	mb   map[mbCtx]*tagState
	port map[portCtx]*tagState

	// loc holds the Type 3 location rules: prefix-only, tag-independent,
	// lowest priority (§3.1 "Aggregation by location", §7). Downstream they
	// route the fan-out below the last middlebox; upstream a single
	// entry per switch climbs toward the gateway / Internet port.
	loc map[Direction]*prefixTrie

	// mobility rules: full-LocIP (/32) overrides, qualified by (direction,
	// tag) — a moved UE's old flows are identified by old LocIP plus the
	// policy tag they carry, and the entries rewrite to the delivery
	// (access-side) tag. mobMB holds the middlebox-return-qualified variant
	// used at a shortcut's branch switch.
	mob   map[tagKey]*prefixTrie
	mobMB map[mbCtx]*prefixTrie

	// mbLoc holds location rules in middlebox-return contexts: traffic
	// coming back from instance MB, destined to a prefix, forwarded
	// tag-independently along the canonical descend (the common case for
	// the chain's last middlebox dispatching into the fan-out).
	mbLoc map[mbLocKey]*prefixTrie
	// mbLocRely marks middlebox-context (dir, mb, tag) triples relying on
	// mbLoc rules here; a tag-only mb default would shadow them.
	mbLocRely map[mbCtx]struct{}

	// locRely marks (direction, tag) pairs whose traffic relies on the
	// Type 3 location table at this switch. Installing a Type 2 tag-only
	// default for such a pair would shadow the location rules (priority:
	// Type 2 > Type 3), so the installer must use Type 1 overrides instead.
	locRely map[tagKey]struct{}

	// recentTags is an insertion-ordered list of tags that ever gained
	// state here, used to seed Algorithm 1's candidate set cheaply.
	recentTags []packet.Tag
	seen       map[packet.Tag]bool
}

// NewFIB returns an empty FIB for a switch.
func NewFIB(n topo.NodeID) *FIB {
	return &FIB{
		Node:      n,
		main:      make(map[tagKey]*tagState),
		mb:        make(map[mbCtx]*tagState),
		port:      make(map[portCtx]*tagState),
		loc:       make(map[Direction]*prefixTrie),
		mob:       make(map[tagKey]*prefixTrie),
		mbLoc:     make(map[mbLocKey]*prefixTrie),
		mobMB:     make(map[mbCtx]*prefixTrie),
		mbLocRely: make(map[mbCtx]struct{}),
		locRely:   make(map[tagKey]struct{}),
		seen:      make(map[packet.Tag]bool),
	}
}

func (f *FIB) state(dir Direction, tag packet.Tag, create bool) *tagState {
	k := tagKey{dir, tag}
	st, ok := f.main[k]
	if !ok && create {
		st = &tagState{}
		f.main[k] = st
		f.noteTag(tag)
	}
	return st
}

func (f *FIB) mbState(dir Direction, mb topo.MBInstanceID, tag packet.Tag, create bool) *tagState {
	k := mbCtx{dir, mb, tag}
	st, ok := f.mb[k]
	if !ok && create {
		st = &tagState{}
		f.mb[k] = st
		f.noteTag(tag)
	}
	return st
}

func (f *FIB) noteTag(tag packet.Tag) {
	if !f.seen[tag] {
		f.seen[tag] = true
		f.recentTags = append(f.recentTags, tag)
	}
}

func (f *FIB) portState(dir Direction, from topo.NodeID, tag packet.Tag, create bool) *tagState {
	k := portCtx{dir, from, tag}
	st, ok := f.port[k]
	if !ok && create {
		st = &tagState{}
		f.port[k] = st
		f.noteTag(tag)
	}
	return st
}

// GetNextHop answers "where would (dir, tag, prefix) traffic arriving from a
// network port go?" — the getNextHop of Algorithm 1. Priority follows §7:
// Type 1 (tag+prefix) over Type 2 (tag-only) over Type 3 (location).
func (f *FIB) GetNextHop(dir Direction, tag packet.Tag, p packet.Prefix) (NextHop, bool) {
	if st := f.state(dir, tag, false); st != nil {
		if nh, ok := st.prefixLookup(p); ok {
			return nh, true
		}
		if st.hasDef {
			return st.def, true
		}
	}
	return f.LookupLocation(dir, p)
}

// LookupLocation consults only the Type 3 location table.
func (f *FIB) LookupLocation(dir Direction, p packet.Prefix) (NextHop, bool) {
	if t := f.loc[dir]; t != nil {
		return t.Lookup(p)
	}
	return NextHop{Node: topo.None, MB: NoMB}, false
}

// InsertLocation installs a Type 3 prefix-only rule, aggregating siblings.
func (f *FIB) InsertLocation(dir Direction, p packet.Prefix, nh NextHop) int {
	t := f.loc[dir]
	if t == nil {
		t = newPrefixTrie()
		f.loc[dir] = t
	}
	return t.Insert(p, nh)
}

// MarkLocReliant records that (dir, tag) traffic depends on the location
// table here.
func (f *FIB) MarkLocReliant(dir Direction, tag packet.Tag) {
	f.locRely[tagKey{dir, tag}] = struct{}{}
}

// LocReliant reports whether (dir, tag) traffic depends on the location
// table here.
func (f *FIB) LocReliant(dir Direction, tag packet.Tag) bool {
	_, ok := f.locRely[tagKey{dir, tag}]
	return ok
}

// GetNextHopFromMB answers the same question for traffic returning from a
// locally attached middlebox. Absent a middlebox-context rule, the switch
// would fall through to the main-context rule (which typically points back
// at the middlebox — the reason the in-port rules exist at all).
func (f *FIB) GetNextHopFromMB(dir Direction, mb topo.MBInstanceID, tag packet.Tag, p packet.Prefix) (NextHop, bool) {
	if st := f.mbState(dir, mb, tag, false); st != nil {
		if nh, ok := st.prefixLookup(p); ok {
			return nh, true
		}
		if st.hasDef {
			return st.def, true
		}
	}
	if t := f.mbLoc[mbLocKey{dir, mb}]; t != nil {
		if nh, ok := t.Lookup(p); ok {
			return nh, true
		}
	}
	return f.GetNextHop(dir, tag, p)
}

// LookupMBLocation consults only the middlebox-context location rules.
func (f *FIB) LookupMBLocation(dir Direction, mb topo.MBInstanceID, p packet.Prefix) (NextHop, bool) {
	if t := f.mbLoc[mbLocKey{dir, mb}]; t != nil {
		return t.Lookup(p)
	}
	return NextHop{Node: topo.None, MB: NoMB}, false
}

// InsertMBLocation installs a tag-independent location rule in a
// middlebox-return context.
func (f *FIB) InsertMBLocation(dir Direction, mb topo.MBInstanceID, p packet.Prefix, nh NextHop) int {
	t := f.mbLoc[mbLocKey{dir, mb}]
	if t == nil {
		t = newPrefixTrie()
		f.mbLoc[mbLocKey{dir, mb}] = t
	}
	return t.Insert(p, nh)
}

// MarkMBLocReliant / MBLocReliant mirror the main-context reliance marks
// for middlebox-return contexts.
func (f *FIB) MarkMBLocReliant(dir Direction, mb topo.MBInstanceID, tag packet.Tag) {
	f.mbLocRely[mbCtx{dir, mb, tag}] = struct{}{}
}

// MBLocReliant reports whether (dir, mb, tag) relies on mbLoc rules here.
func (f *FIB) MBLocReliant(dir Direction, mb topo.MBInstanceID, tag packet.Tag) bool {
	_, ok := f.mbLocRely[mbCtx{dir, mb, tag}]
	return ok
}

// hasMBTagState reports Type 1/2 state for (dir, mb, tag).
func (f *FIB) hasMBTagState(dir Direction, mb topo.MBInstanceID, tag packet.Tag) bool {
	st := f.mbState(dir, mb, tag, false)
	return st != nil && (st.hasDef || (st.prefix != nil && st.prefix.count > 0))
}

// GetNextHopVia answers GetNextHop for traffic arriving from the port
// facing neighbor 'from': in-port-qualified rules outrank the port-wildcard
// main context.
func (f *FIB) GetNextHopVia(dir Direction, from topo.NodeID, tag packet.Tag, p packet.Prefix) (NextHop, bool) {
	if st := f.portState(dir, from, tag, false); st != nil {
		if nh, ok := st.prefixLookup(p); ok {
			return nh, true
		}
	}
	return f.GetNextHop(dir, tag, p)
}

// SetDefault installs the tag-only (Type 2) rule. It returns the rule-count
// delta (1 when new, 0 when overwriting).
func (f *FIB) SetDefault(dir Direction, tag packet.Tag, nh NextHop) int {
	st := f.state(dir, tag, true)
	delta := 0
	if !st.hasDef {
		delta = 1
	}
	st.hasDef = true
	st.def = nh
	return delta
}

// InsertPrefix installs a (tag, prefix) Type 1 rule, aggregating siblings.
func (f *FIB) InsertPrefix(dir Direction, tag packet.Tag, p packet.Prefix, nh NextHop) int {
	return f.state(dir, tag, true).trie().Insert(p, nh)
}

// SetMBDefault installs the tag-only rule in a middlebox-return context.
func (f *FIB) SetMBDefault(dir Direction, mb topo.MBInstanceID, tag packet.Tag, nh NextHop) int {
	st := f.mbState(dir, mb, tag, true)
	delta := 0
	if !st.hasDef {
		delta = 1
	}
	st.hasDef = true
	st.def = nh
	return delta
}

// InsertMBPrefix installs a (tag, prefix) rule in a middlebox-return context.
func (f *FIB) InsertMBPrefix(dir Direction, mb topo.MBInstanceID, tag packet.Tag, p packet.Prefix, nh NextHop) int {
	return f.mbState(dir, mb, tag, true).trie().Insert(p, nh)
}

// InsertMobility installs a full-LocIP override for one tag (Fig. 3(b)).
func (f *FIB) InsertMobility(dir Direction, tag packet.Tag, loc packet.Addr, nh NextHop) int {
	k := tagKey{dir, tag}
	t := f.mob[k]
	if t == nil {
		t = newPrefixTrie()
		f.mob[k] = t
	}
	return t.Insert(packet.Prefix{Addr: loc, Len: 32}, nh)
}

// LookupMobilityFromMB checks the branch-switch mobility overrides for
// traffic returning from a specific middlebox with the given tag.
func (f *FIB) LookupMobilityFromMB(dir Direction, mb topo.MBInstanceID, tag packet.Tag, loc packet.Addr) (NextHop, bool) {
	t := f.mobMB[mbCtx{dir, mb, tag}]
	if t == nil {
		return NextHop{Node: topo.None, MB: NoMB}, false
	}
	return t.Lookup(packet.Prefix{Addr: loc, Len: 32})
}

// LookupMobility checks the mobility overrides for an exact (tag, LocIP).
func (f *FIB) LookupMobility(dir Direction, tag packet.Tag, loc packet.Addr) (NextHop, bool) {
	t := f.mob[tagKey{dir, tag}]
	if t == nil {
		return NextHop{Node: topo.None, MB: NoMB}, false
	}
	return t.Lookup(packet.Prefix{Addr: loc, Len: 32})
}

// NumRules counts installed TCAM entries across all contexts and bands.
func (f *FIB) NumRules() int {
	n := 0
	for _, st := range f.main {
		if st.prefix != nil {
			n += st.prefix.Count()
		}
		if st.hasDef {
			n++
		}
	}
	for _, st := range f.mb {
		if st.prefix != nil {
			n += st.prefix.Count()
		}
		if st.hasDef {
			n++
		}
	}
	for _, st := range f.port {
		if st.prefix != nil {
			n += st.prefix.Count()
		}
		if st.hasDef {
			n++
		}
	}
	for _, t := range f.loc {
		n += t.Count()
	}
	for _, t := range f.mbLoc {
		n += t.Count()
	}
	for _, t := range f.mob {
		n += t.Count()
	}
	for _, t := range f.mobMB {
		n += t.Count()
	}
	return n
}

// RuleBreakdown reports entries by SoftCell rule type: Type 1 (tag+prefix,
// including in-port-qualified and middlebox-return rules), Type 2
// (tag-only), Type 3 (location), and mobility overrides.
func (f *FIB) RuleBreakdown() (tagPrefix, tagOnly, location, mobility int) {
	for _, st := range f.main {
		if st.prefix != nil {
			tagPrefix += st.prefix.Count()
		}
		if st.hasDef {
			tagOnly++
		}
	}
	for _, st := range f.mb {
		if st.prefix != nil {
			tagPrefix += st.prefix.Count()
		}
		if st.hasDef {
			tagOnly++
		}
	}
	for _, st := range f.port {
		if st.prefix != nil {
			tagPrefix += st.prefix.Count()
		}
		if st.hasDef {
			tagOnly++
		}
	}
	for _, t := range f.loc {
		location += t.Count()
	}
	for _, t := range f.mbLoc {
		location += t.Count()
	}
	for _, t := range f.mob {
		mobility += t.Count()
	}
	for _, t := range f.mobMB {
		mobility += t.Count()
	}
	return
}

// RecentTags returns up to max of the most recently introduced tags here.
func (f *FIB) RecentTags(max int) []packet.Tag {
	if max <= 0 || max >= len(f.recentTags) {
		return f.recentTags
	}
	return f.recentTags[len(f.recentTags)-max:]
}

// DebugComposition reports rule counts by context for diagnostics: main
// trie entries, tag defaults, middlebox-context entries, port-context
// entries, location entries, and how many distinct tags hold state here.
func (f *FIB) DebugComposition() (mainTrie, defs, mbRules, portRules, locRules, tags int) {
	for _, st := range f.main {
		if st.prefix != nil {
			mainTrie += st.prefix.Count()
		}
		if st.hasDef {
			defs++
		}
	}
	for _, st := range f.mb {
		if st.prefix != nil {
			mbRules += st.prefix.Count()
		}
		if st.hasDef {
			mbRules++
		}
	}
	for _, st := range f.port {
		if st.prefix != nil {
			portRules += st.prefix.Count()
		}
		if st.hasDef {
			portRules++
		}
	}
	for _, t := range f.loc {
		locRules += t.Count()
	}
	for _, t := range f.mbLoc {
		locRules += t.Count()
	}
	tags = len(f.seen)
	return
}

// ExportedRule is one abstract FIB entry flattened for materialisation into
// a concrete switch table (internal/dataplane).
type ExportedRule struct {
	Dir    Direction
	Band   RuleBand
	Tag    packet.Tag        // 0 for location/mobility bands
	Prefix packet.Prefix     // zero value (len 0) for tag-only defaults
	FromMB topo.MBInstanceID // NoMB unless a middlebox-return rule
	From   topo.NodeID       // topo.None unless an in-port-qualified rule
	NH     NextHop
}

// RuleBand orders exported rules the way the FIB resolves them.
type RuleBand uint8

// Bands, lowest priority first.
const (
	BandLocation  RuleBand = iota // Type 3
	BandTagOnly                   // Type 2
	BandTagPrefix                 // Type 1
	BandPort                      // in-port-qualified Type 1
	BandMBLoc                     // middlebox-return location
	BandMBTag                     // middlebox-return tag rules
	BandMobility                  // /32 overrides
)

// Export visits every installed rule of this FIB.
func (f *FIB) Export(visit func(ExportedRule)) {
	for k, st := range f.main {
		if st.hasDef {
			visit(ExportedRule{Dir: k.dir, Band: BandTagOnly, Tag: k.tag,
				FromMB: NoMB, From: topo.None, NH: st.def})
		}
		if st.prefix != nil {
			dir, tag := k.dir, k.tag
			st.prefix.Walk(func(p packet.Prefix, nh NextHop) {
				visit(ExportedRule{Dir: dir, Band: BandTagPrefix, Tag: tag,
					Prefix: p, FromMB: NoMB, From: topo.None, NH: nh})
			})
		}
	}
	for k, st := range f.port {
		if st.hasDef {
			visit(ExportedRule{Dir: k.dir, Band: BandPort, Tag: k.tag,
				FromMB: NoMB, From: k.from, NH: st.def})
		}
		if st.prefix != nil {
			dir, tag, from := k.dir, k.tag, k.from
			st.prefix.Walk(func(p packet.Prefix, nh NextHop) {
				visit(ExportedRule{Dir: dir, Band: BandPort, Tag: tag,
					Prefix: p, FromMB: NoMB, From: from, NH: nh})
			})
		}
	}
	for k, st := range f.mb {
		if st.hasDef {
			visit(ExportedRule{Dir: k.dir, Band: BandMBTag, Tag: k.tag,
				FromMB: k.mb, From: topo.None, NH: st.def})
		}
		if st.prefix != nil {
			dir, tag, mb := k.dir, k.tag, k.mb
			st.prefix.Walk(func(p packet.Prefix, nh NextHop) {
				visit(ExportedRule{Dir: dir, Band: BandMBTag, Tag: tag,
					Prefix: p, FromMB: mb, From: topo.None, NH: nh})
			})
		}
	}
	for k, tr := range f.mbLoc {
		dir, mb := k.dir, k.mb
		tr.Walk(func(p packet.Prefix, nh NextHop) {
			visit(ExportedRule{Dir: dir, Band: BandMBLoc, Prefix: p,
				FromMB: mb, From: topo.None, NH: nh})
		})
	}
	for dir, tr := range f.loc {
		d := dir
		tr.Walk(func(p packet.Prefix, nh NextHop) {
			visit(ExportedRule{Dir: d, Band: BandLocation, Prefix: p,
				FromMB: NoMB, From: topo.None, NH: nh})
		})
	}
	for k, tr := range f.mob {
		d, tag := k.dir, k.tag
		tr.Walk(func(p packet.Prefix, nh NextHop) {
			visit(ExportedRule{Dir: d, Band: BandMobility, Tag: tag, Prefix: p,
				FromMB: NoMB, From: topo.None, NH: nh})
		})
	}
	for k, tr := range f.mobMB {
		d, mb, tag := k.dir, k.mb, k.tag
		tr.Walk(func(p packet.Prefix, nh NextHop) {
			visit(ExportedRule{Dir: d, Band: BandMobility, Tag: tag, Prefix: p,
				FromMB: mb, From: topo.None, NH: nh})
		})
	}
}
