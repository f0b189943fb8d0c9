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
// entries) and whether any entry changed at all — a replaced next hop or an
// insert that merges away leaves the count where it was. Inserting an exact
// duplicate with a different next hop replaces it (the caller guarantees
// this never breaks an installed path).
func (t *prefixTrie) Insert(p packet.Prefix, nh NextHop) (delta int, changed bool) {
	if cur, ok := t.Lookup(p); ok && cur == nh {
		return 0, false // already routed identically (possibly by a merged block)
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
	return t.count - before, true
}

// insertNoAgg installs (p -> nh) without sibling merging (ablation).
func (t *prefixTrie) insertNoAgg(p packet.Prefix, nh NextHop) (delta int, changed bool) {
	n := t.node(p, true)
	changed = !n.set || n.nh != nh
	if !n.set {
		n.set = true
		t.count++
		delta = 1
	}
	n.nh = nh
	return delta, changed
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

// tagState is the Type 1/2 forwarding state of one (direction, ingress,
// tag) context at one switch. The prefix trie is allocated lazily: most
// shared-segment switches only ever hold the tag-only default, and large
// simulations create millions of these states.
type tagState struct {
	def    NextHop // tag-only default (Type 2 rule); Zero when absent
	hasDef bool
	prefix *prefixTrie // tag+prefix overrides (Type 1 rules); nil until used
}

// prefixLookup is a nil-safe trie lookup.
func (st *tagState) prefixLookup(p packet.Prefix) (NextHop, bool) {
	if st.prefix == nil {
		return NextHop{Node: topo.None, MB: NoMB}, false
	}
	return st.prefix.Lookup(p)
}

// canAggregate is a nil-safe prefixTrie.CanAggregate.
func (st *tagState) canAggregate(p packet.Prefix, nh NextHop) bool {
	return st != nil && st.prefix != nil && st.prefix.CanAggregate(p, nh)
}

// ingress is the in-port qualifier of a rule: any port, the return port of
// one locally attached middlebox (paper footnote 1), or the port facing one
// neighbor switch — "a loop that enters the same switch twice but through
// different links can easily be differentiated based on the input ports"
// (§3.2). At most one of the two fields is set.
type ingress struct {
	mb   topo.MBInstanceID
	node topo.NodeID
}

// anyPort is the unqualified ingress: rules that match whatever port the
// packet arrived on.
var anyPort = ingress{mb: NoMB, node: topo.None}

// fromMB qualifies a rule by the return port of middlebox mb.
func fromMB(mb topo.MBInstanceID) ingress { return ingress{mb: mb, node: topo.None} }

// fromPort qualifies a rule by the port facing neighbor n. A path's entry
// (the Internet side of the gateway, the UE side of the access switch) has
// no neighbor behind it: fromPort(topo.None) is anyPort.
func fromPort(n topo.NodeID) ingress { return ingress{mb: NoMB, node: n} }

// ctxKey names one rule context of a switch: (direction, ingress, tag).
// Location tables are tag-independent and use tag 0, which no path carries.
// The direction comes last so the fields pack without interior padding.
type ctxKey struct {
	in  ingress
	tag packet.Tag
	dir Direction
}

// mobKey names one mobility override: a full LocIP in one rule context.
type mobKey struct {
	ctx ctxKey
	loc packet.Addr
}

// FIB is the abstract forwarding table of one switch as the controller
// tracks it. A rule matches (in-port, LocIP prefix, tag), so every table is
// keyed by one ctxKey and the unqualified context is just ingress anyPort.
// Rule counts correspond one-to-one to TCAM entries.
type FIB struct {
	Node topo.NodeID

	// version counts the mutations that changed what Export visits; see
	// Version.
	version uint64

	// rules holds the Type 1 (tag+prefix) and Type 2 (tag-only) rules.
	rules map[ctxKey]*tagState
	// loc holds the Type 3 location rules: prefix-only, tag-independent,
	// below the tag rules of their context (§3.1 "Aggregation by location",
	// §7). Downstream they route the fan-out below the last middlebox —
	// from its return port when the box sits on this switch; upstream a
	// single entry per switch climbs toward the gateway / Internet port.
	loc map[ctxKey]*prefixTrie
	// mob holds the mobility rules: full-LocIP (/32) overrides. A moved
	// UE's old flows are identified by old LocIP plus the policy tag they
	// carry, and the entries rewrite to the delivery (access-side) tag.
	// They are only ever installed, matched and removed whole, at handoff
	// rate, so they sit in an exact-match table that shrinks as they go.
	mob map[mobKey]NextHop
	// locRely marks contexts whose traffic relies on a rule below their own
	// Type 2 slot — the location table, or for a qualified context the
	// unqualified fall-through. A tag-only default there would shadow it
	// (priority: Type 2 > Type 3), so the installer must use Type 1
	// overrides instead.
	locRely map[ctxKey]struct{}

	// recentTags is an insertion-ordered list of tags that ever gained
	// state here, used to seed Algorithm 1's candidate set cheaply.
	recentTags []packet.Tag
	seen       map[packet.Tag]bool
}

// NewFIB returns an empty FIB for a switch.
func NewFIB(n topo.NodeID) *FIB {
	return &FIB{
		Node:    n,
		rules:   make(map[ctxKey]*tagState),
		loc:     make(map[ctxKey]*prefixTrie),
		mob:     make(map[mobKey]NextHop),
		locRely: make(map[ctxKey]struct{}),
		seen:    make(map[packet.Tag]bool),
	}
}

// Version identifies the FIB's exported contents: it moves whenever a
// mutator changes a rule Export would visit, and never otherwise (a
// re-insert of an identical rule, a fresh empty context, a removal that
// finds nothing leave it alone). A FIB that replaces another (see succeed)
// continues its count, so for one switch equal versions mean equal tables —
// the data plane (dataplane.Network.Sync) skips a switch whose version it
// has already materialised.
func (f *FIB) Version() uint64 { return f.version }

// succeed makes f the replacement of old, the same switch's FIB before a
// rebuild: f's versions start one past old's, so even a rebuild that leaves
// f empty reads as a change, and no later version of f repeats one of old's.
func (f *FIB) succeed(old *FIB) { f.version += old.version + 1 }

// state returns the Type 1/2 state of one context, nil when absent and not
// created. A created state holds no rule yet, so creating one is not a
// version change.
func (f *FIB) state(dir Direction, in ingress, tag packet.Tag, create bool) *tagState {
	k := ctxKey{in, tag, dir}
	st, ok := f.rules[k]
	if !ok && create {
		st = &tagState{}
		f.rules[k] = st
		if !f.seen[tag] {
			f.seen[tag] = true
			f.recentTags = append(f.recentTags, tag)
		}
	}
	return st
}

// resolve answers (dir, tag, prefix) from exactly one context, in the
// priority order of §7: Type 1 (tag+prefix) over Type 2 (tag-only) — fromTag
// is true for both — over Type 3 (location).
func (f *FIB) resolve(dir Direction, in ingress, tag packet.Tag, p packet.Prefix) (nh NextHop, fromTag, ok bool) {
	if st := f.state(dir, in, tag, false); st != nil {
		if hit, found := st.prefixLookup(p); found {
			return hit, true, true
		}
		if st.hasDef {
			return st.def, true, true
		}
	}
	if t := f.loc[ctxKey{in, 0, dir}]; t != nil {
		nh, ok = t.Lookup(p)
		return nh, false, ok
	}
	return NextHop{Node: topo.None, MB: NoMB}, false, false
}

// GetNextHop answers "where would (dir, tag, prefix) traffic arriving
// through 'in' go?" — the getNextHop of Algorithm 1. A qualified context
// that holds no answer falls through to the unqualified one; for a
// middlebox return that typically points back at the middlebox, the reason
// in-port rules exist at all.
func (f *FIB) GetNextHop(dir Direction, in ingress, tag packet.Tag, p packet.Prefix) (NextHop, bool) {
	nh, _, ok := f.resolve(dir, in, tag, p)
	if !ok && in != anyPort {
		nh, _, ok = f.resolve(dir, anyPort, tag, p)
	}
	return nh, ok
}

// InsertLocation installs a Type 3 prefix-only rule, aggregating siblings.
func (f *FIB) InsertLocation(dir Direction, in ingress, p packet.Prefix, nh NextHop) int {
	k := ctxKey{in, 0, dir}
	t := f.loc[k]
	if t == nil {
		t = newPrefixTrie()
		f.loc[k] = t
	}
	return f.inserted(t.Insert(p, nh))
}

// inserted bumps the version when a trie insert changed an entry and passes
// the rule-count delta through.
func (f *FIB) inserted(delta int, changed bool) int {
	if changed {
		f.version++
	}
	return delta
}

// MarkLocReliant records that (dir, in, tag) traffic depends on a rule
// below the context's tag-only slot.
func (f *FIB) MarkLocReliant(dir Direction, in ingress, tag packet.Tag) {
	f.locRely[ctxKey{in, tag, dir}] = struct{}{}
}

// LocReliant reports whether MarkLocReliant was called for the context.
func (f *FIB) LocReliant(dir Direction, in ingress, tag packet.Tag) bool {
	_, ok := f.locRely[ctxKey{in, tag, dir}]
	return ok
}

// SetDefault installs the tag-only (Type 2) rule. It returns the rule-count
// delta (1 when new, 0 when overwriting).
func (f *FIB) SetDefault(dir Direction, in ingress, tag packet.Tag, nh NextHop) int {
	st := f.state(dir, in, tag, true)
	delta := 0
	if !st.hasDef {
		delta = 1
	}
	if !st.hasDef || st.def != nh {
		f.version++
	}
	st.hasDef = true
	st.def = nh
	return delta
}

// InsertPrefix installs a (tag, prefix) Type 1 rule; merge selects
// contiguous-sibling aggregation (off only for the ablation).
func (f *FIB) InsertPrefix(dir Direction, in ingress, tag packet.Tag, p packet.Prefix, nh NextHop, merge bool) int {
	st := f.state(dir, in, tag, true)
	if st.prefix == nil {
		st.prefix = newPrefixTrie()
	}
	if merge {
		return f.inserted(st.prefix.Insert(p, nh))
	}
	return f.inserted(st.prefix.insertNoAgg(p, nh))
}

// InsertMobility installs a full-LocIP override for one tag (Fig. 3(b)).
// It returns the rule-count delta (1 when new, 0 when overwriting).
func (f *FIB) InsertMobility(dir Direction, in ingress, tag packet.Tag, loc packet.Addr, nh NextHop) int {
	k := mobKey{ctxKey{in, tag, dir}, loc}
	old, had := f.mob[k]
	if !had || old != nh {
		f.version++
	}
	f.mob[k] = nh
	if had {
		return 0
	}
	return 1
}

// RemoveMobility deletes a mobility override and reports whether it existed.
func (f *FIB) RemoveMobility(dir Direction, in ingress, tag packet.Tag, loc packet.Addr) bool {
	k := mobKey{ctxKey{in, tag, dir}, loc}
	_, had := f.mob[k]
	if had {
		f.version++
	}
	delete(f.mob, k)
	return had
}

// LookupMobility checks the mobility overrides of exactly the (dir, in,
// tag) context for loc; it does not fall through to the unqualified one.
func (f *FIB) LookupMobility(dir Direction, in ingress, tag packet.Tag, loc packet.Addr) (NextHop, bool) {
	if nh, ok := f.mob[mobKey{ctxKey{in, tag, dir}, loc}]; ok {
		return nh, true
	}
	return NextHop{Node: topo.None, MB: NoMB}, false
}

// Step is the written statement of this switch's match order: the decision
// for a packet addressed loc, carrying tag, that arrived through in. A
// mobility /32 of the arrival context wins, then an unqualified one; below
// them Type 1 over Type 2 over Type 3 in the arrival context, then the same
// in the unqualified one. That is the order bandOf hands the TCAM (the
// installer never puts a qualified and an unqualified override for one
// (tag, /32) on one switch, so the mobility band holds no tie to break).
// Everything that asks what a switch does with a packet — the walk, and
// through it the checker — asks here; Algorithm 1 alone reads GetNextHop
// directly, for a prefix rather than a packet.
func (f *FIB) Step(dir Direction, in ingress, tag packet.Tag, loc packet.Addr) (NextHop, bool) {
	if nh, ok := f.LookupMobility(dir, in, tag, loc); ok {
		return nh, true
	}
	if in != anyPort {
		if nh, ok := f.LookupMobility(dir, anyPort, tag, loc); ok {
			return nh, true
		}
	}
	return f.GetNextHop(dir, in, tag, packet.Prefix{Addr: loc, Len: 32})
}

// RuleBreakdown reports entries by SoftCell rule type: Type 1 (tag+prefix,
// including in-port-qualified and middlebox-return rules), Type 2
// (tag-only), Type 3 (location), and mobility overrides.
func (f *FIB) RuleBreakdown() (tagPrefix, tagOnly, location, mobility int) {
	for _, st := range f.rules {
		if st.prefix != nil {
			tagPrefix += st.prefix.count
		}
		if st.hasDef {
			tagOnly++
		}
	}
	for _, t := range f.loc {
		location += t.count
	}
	return tagPrefix, tagOnly, location, len(f.mob)
}

// NumRules counts installed TCAM entries across all contexts and bands.
func (f *FIB) NumRules() int {
	a, b, c, d := f.RuleBreakdown()
	return a + b + c + d
}

// RecentTags returns up to max of the most recently introduced tags here.
func (f *FIB) RecentTags(max int) []packet.Tag {
	if max <= 0 || max >= len(f.recentTags) {
		return f.recentTags
	}
	return f.recentTags[len(f.recentTags)-max:]
}

// ExportedRule is one abstract FIB entry flattened for materialisation into
// a concrete switch table (internal/dataplane).
type ExportedRule struct {
	Dir    Direction
	Band   RuleBand
	Tag    packet.Tag        // 0 for the location bands
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
	BandPort                      // in-port-qualified rules
	BandMBLoc                     // middlebox-return location
	BandMBTag                     // middlebox-return tag rules
	BandMobility                  // /32 overrides
)

// bandOf places a rule of the unqualified band 'kind' (BandLocation,
// BandTagOnly, BandTagPrefix or BandMobility) that sits in context 'in':
// every qualified context outranks the unqualified one it falls through to,
// and mobility overrides outrank everything.
func bandOf(kind RuleBand, in ingress) RuleBand {
	switch {
	case kind == BandMobility || in == anyPort:
		return kind
	case in.mb == NoMB:
		return BandPort
	case kind == BandLocation:
		return BandMBLoc
	default:
		return BandMBTag
	}
}

// Export visits every installed rule of this FIB.
func (f *FIB) Export(visit func(ExportedRule)) {
	emit := func(kind RuleBand, k ctxKey, p packet.Prefix, nh NextHop) {
		visit(ExportedRule{Dir: k.dir, Band: bandOf(kind, k.in), Tag: k.tag,
			Prefix: p, FromMB: k.in.mb, From: k.in.node, NH: nh})
	}
	for k, st := range f.rules {
		if st.hasDef {
			emit(BandTagOnly, k, packet.Prefix{}, st.def)
		}
		if st.prefix != nil {
			st.prefix.Walk(func(p packet.Prefix, nh NextHop) { emit(BandTagPrefix, k, p, nh) })
		}
	}
	for k, tr := range f.loc {
		tr.Walk(func(p packet.Prefix, nh NextHop) { emit(BandLocation, k, p, nh) })
	}
	for k, nh := range f.mob {
		emit(BandMobility, k.ctx, packet.Prefix{Addr: k.loc, Len: 32}, nh)
	}
}
