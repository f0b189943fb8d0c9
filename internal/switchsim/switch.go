package switchsim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/packet"
)

// RuleID identifies an installed rule within one switch.
type RuleID uint64

// Rule is one installed TCAM entry: a prioritised match with an action and
// traffic counters. Higher Priority wins; among rules Install put in, ties
// break toward the more recently installed one (like OpenFlow's
// overlapping-rule behaviour with distinct priorities, which SoftCell's
// controller always uses anyway).
type Rule struct {
	ID       RuleID
	Priority int
	Match    Match
	Action   Action
	Counters
}

// Counters are one entry's traffic counters, mutated with atomic adds (see
// Account) so both the locked Process path and lock-free fast-path
// snapshots can attribute traffic to the same live entry.
type Counters struct {
	Packets uint64
	Bytes   uint64
}

// Account attributes one packet of payloadBytes payload to the counters.
// The adds are atomic so compiled fast-path snapshots (internal/fastpath)
// can account without holding the switch lock.
func (c *Counters) Account(payloadBytes int) {
	atomic.AddUint64(&c.Packets, 1)
	atomic.AddUint64(&c.Bytes, uint64(payloadBytes)+24)
}

// AccountN attributes a batch of packets to the counters in one pair of
// atomic adds; the fast path tallies per burst and flushes here.
func (c *Counters) AccountN(pkts, bytes uint64) {
	atomic.AddUint64(&c.Packets, pkts)
	atomic.AddUint64(&c.Bytes, bytes)
}

// load reads the counters atomically.
func (c *Counters) load() Counters {
	return Counters{Packets: atomic.LoadUint64(&c.Packets), Bytes: atomic.LoadUint64(&c.Bytes)}
}

// snapshot copies the rule with atomically read counters.
//
// caller holds mu
func (r *Rule) snapshot() Rule {
	return Rule{ID: r.ID, Priority: r.Priority, Match: r.Match, Action: r.Action, Counters: r.Counters.load()}
}

func (r *Rule) String() string {
	return fmt.Sprintf("#%d prio=%d %s -> %s", r.ID, r.Priority, r.Match, r.Action)
}

// Priority bands for SoftCell's TCAM rule types (§7): mobility entries
// override tag+prefix entries, which override tag-only, which override
// prefix-only, with a default band at the bottom. Bands are 100 apart so
// longest-prefix-match within a band is expressed by adding the prefix
// length (0..32) to the band's base priority, as TCAM compilers do.
// Microflow entries need no band: the exact-match table is looked up
// before the TCAM.
const (
	PrioDefault   = 0
	PrioPrefix    = 100 // Type 3: location (LPM) rules
	PrioTag       = 200 // Type 2: tag-only rules
	PrioTagPrefix = 300 // Type 1: tag + prefix TCAM rules
	PrioPort      = 400 // in-port-qualified Type 1 rules
	PrioMBLoc     = 500 // middlebox-return location rules
	PrioMBTag     = 600 // middlebox-return tag rules
	PrioMobility  = 700 // per-UE mobility overrides
	PrioBinding   = 800 // gateway public-IP classifiers (§7)
)

// Verdict is the outcome of processing one packet. It names the entry whose
// action decided it: Rule for a TCAM rule, Flow for a microflow entry that
// did not resubmit; both are nil on a table miss.
type Verdict struct {
	Rule         *Rule
	Flow         *Flow
	Output       int // egress port, -1 if none
	Drop         bool
	ToController bool
	resubmit     bool
}

// Switch is a software model of one OpenFlow switch. It is safe for
// concurrent use.
type Switch struct {
	Name string

	mu      sync.RWMutex
	ordered []*Rule                  // guarded by mu; priority desc, see Install and ReplaceTCAM
	micro   map[packet.FlowKey]*Flow // guarded by mu
	// owned lists the microflow keys of each cookie owner, in install
	// order: every entry of micro whose cookie names an owner, once.
	// guarded by mu
	owned  map[packet.Addr][]packet.FlowKey
	nextID RuleID // guarded by mu
	// inOrder is true while ordered is what ReplaceTCAM and Splice made
	// it, in their order; Install and Remove clear it. guarded by mu
	inOrder bool

	// gen counts table mutations: every Install/Remove (TCAM or
	// microflow), ReplaceTCAM and Splice bumps it. Writes happen under mu;
	// reads go through Generation's atomic load, so fast-path snapshot
	// caches detect staleness without touching the lock. microGen and
	// tcamGen are the generations of each table's latest change, so a view
	// can leave out a table that did not move (see ViewChanged).
	gen      uint64
	microGen uint64 // guarded by mu
	tcamGen  uint64 // guarded by mu

	// log lists the changes to both tables after generation logFrom,
	// oldest first, so a compile holding the tables as of a generation in
	// [logFrom, gen] is handed its edits, not a copy (see ViewChanged).
	// Recording starts at the first ViewChanged (logging), so plant set-up
	// before any compile keeps no log. The log grows only at its end and
	// drops consumed entries only from its front, so a slice of it already
	// handed out stays valid. A ReplaceTCAM is not logged: tcamFrom is its
	// generation, and a compile older than it is handed the whole TCAM.
	// guarded by mu
	log      []Change
	logFrom  uint64 // guarded by mu
	tcamFrom uint64 // guarded by mu
	logging  bool   // guarded by mu

	// TableMiss is the verdict for packets no rule covers. The default
	// zero value drops; gateway/core switches usually leave it, access
	// switches punt to the local agent. Set it before traffic starts; it is
	// deliberately not guarded (agent.New assigns it during wiring).
	TableMiss Action

	// Stats, mutated with atomic adds (Process runs under a read lock,
	// and fast-path snapshots account bursts with no lock at all).
	Processed uint64
	Misses    uint64

	// obs is the optional telemetry handle set; see Instrument. All
	// handles are nil (no-op) until then.
	obs swObs
}

// Generation reports the table-mutation counter. A compiled snapshot taken
// at generation g is exactly the current tables iff Generation() == g; a
// mismatch means a TCAM or microflow mutation ran since and the snapshot
// must be recompiled rather than silently served.
func (s *Switch) Generation() uint64 {
	return atomic.LoadUint64(&s.gen)
}

// MaxChanges bounds a switch's change log. A change past the bound empties
// the log, and a compile then behind it copies the whole tables (see
// ViewChanged).
const MaxChanges = 128

// Change is one table change, logged at generation Gen. A microflow change
// (TCAM unset) says that the entry for Key became Flow, or with Flow nil was
// removed. A TCAM change says that Rule went into the TCAM at position At,
// or with Rule nil that the rule at At came out; a position counts in the
// table as the changes before it left it, so replaying the changes in order
// on a copy of the table gives the table after them.
type Change struct {
	Gen  uint64
	Key  packet.FlowKey
	At   int32
	TCAM bool
	Flow *Flow
	Rule *Rule
}

// logged appends c to the change log once a compile has asked for one.
//
// caller holds mu
func (s *Switch) logged(c Change) {
	if !s.logging {
		return
	}
	switch {
	case len(s.log) == MaxChanges:
		s.log, s.logFrom = nil, c.Gen
		return
	case len(s.log) == cap(s.log):
		// Consumed entries leave the front, so the block ahead shrinks:
		// grow it by a run of entries at once.
		s.log = append(make([]Change, 0, max(logBlock, 2*len(s.log))), s.log...)
	}
	s.log = append(s.log, c)
}

// logBlock is the fewest entries a change log allocates room for at once.
const logBlock = 16

// tcamChanged records one TCAM mutation: r went in at position at, or with
// r nil the rule at at came out.
//
// caller holds mu
func (s *Switch) tcamChanged(at int, r *Rule) {
	s.tcamGen = atomic.AddUint64(&s.gen, 1)
	s.logged(Change{Gen: s.tcamGen, At: int32(at), TCAM: true, Rule: r})
}

// microChanged records one microflow-table mutation: key's entry became f,
// or with f nil was removed.
//
// caller holds mu
func (s *Switch) microChanged(key packet.FlowKey, f *Flow) {
	s.microGen = atomic.AddUint64(&s.gen, 1)
	s.logged(Change{Gen: s.microGen, Key: key, Flow: f})
}

// BurstStats aggregates one burst's pipeline tallies so compiled fast
// paths can flush switch accounting once per burst instead of per packet.
type BurstStats struct {
	Packets   uint64 // packets entering the pipeline
	MicroHit  uint64 // microflow exact-match hits
	MicroMiss uint64 // packets falling through to the TCAM
	TCAMHit   uint64 // TCAM rule executions (resubmits count again)
	Miss      uint64 // table misses
	Punt      uint64 // final verdict: to controller/agent
	Drop      uint64 // final verdict: dropped
}

// AccountBurst adds a burst's tallies to the switch counters and telemetry.
// The switch's Processed/Misses counts and obs series therefore read the
// same whether packets took the locked Process path or a compiled
// fast-path burst. Zero tallies cost nothing (no atomic add), so a
// one-packet flush pays only for the outcomes that packet had.
func (s *Switch) AccountBurst(b BurstStats) {
	atomic.AddUint64(&s.Processed, b.Packets)
	if b.Miss != 0 {
		atomic.AddUint64(&s.Misses, b.Miss)
	}
	s.obs.packets.Add(b.Packets)
	s.obs.microHit.Add(b.MicroHit)
	s.obs.microMiss.Add(b.MicroMiss)
	s.obs.tcamHit.Add(b.TCAMHit)
	s.obs.miss.Add(b.Miss)
	s.obs.punt.Add(b.Punt)
	s.obs.drop.Add(b.Drop)
}

// TableView is a consistent export of the switch's tables for fast-path
// compilers: the generation it was taken at, each table whole or the changes
// to it since the caller's copy, and the table-miss action. The rule and
// flow pointers are the live entries — treat them as read-only except for
// the atomic traffic counters behind Counters.Account. An entry keeps its
// pointer for as long as it is installed, so equal pointers in two views are
// the same entry, unchanged.
type TableView struct {
	Gen uint64
	// Micro is the whole microflow table, and Ordered the whole TCAM in
	// match order. A table handed whole is never nil (an empty one is
	// empty); a nil one was left out, and Changes carries whatever moved
	// in it since the caller's copy.
	Micro   map[packet.FlowKey]*Flow
	Ordered []*Rule
	// Changes lists oldest first the changes after the caller's
	// generation: applied in order to the caller's copy of each table left
	// out, they give the table at Gen. Changes to a table handed whole are
	// listed too, and are to be skipped. The slice is the switch's own log;
	// read it, never write it.
	Changes []Change
	Miss    Action
}

// ViewChanged exports the tables under one lock for a caller that already
// holds them as of generation gen (^uint64(0) for none). A table that has
// not changed since gen is left out. A moved table comes as the changes
// since gen when the switch's log still holds them all, and whole when it
// does not: the first call, a gen older than the log or not of this switch,
// or a log that passed MaxChanges since; the TCAM also comes whole when a
// ReplaceTCAM ran since gen. Log entries up to gen are taken as consumed
// and dropped, so at steady state the log holds only the changes since the
// last compile.
func (s *Switch) ViewChanged(gen uint64) TableView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := TableView{Gen: s.Generation(), Miss: s.TableMiss}
	known := gen <= v.Gen
	logged := known && s.logging && s.logFrom <= gen
	if logged {
		i := 0
		for i < len(s.log) && s.log[i].Gen <= gen {
			i++
		}
		s.log, s.logFrom = s.log[i:], gen
		v.Changes = s.log
	}
	if !s.logging {
		s.logging, s.logFrom = true, v.Gen
	}
	if !logged && (!known || s.microGen > gen) {
		v.Micro = make(map[packet.FlowKey]*Flow, len(s.micro))
		for k, f := range s.micro {
			v.Micro[k] = f
		}
	}
	if (!logged || s.tcamFrom > gen) && (!known || s.tcamGen > gen) {
		v.Ordered = make([]*Rule, len(s.ordered))
		copy(v.Ordered, s.ordered)
	}
	return v
}

// NewSwitch returns an empty switch.
func NewSwitch(name string) *Switch {
	return &Switch{
		Name:      name,
		micro:     make(map[packet.FlowKey]*Flow),
		owned:     make(map[packet.Addr][]packet.FlowKey),
		TableMiss: Action{Output: -1, Drop: true},
	}
}

// Install adds a TCAM rule and returns its ID. It goes first among the
// rules of its priority.
func (s *Switch) Install(prio int, m Match, a Action) RuleID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inOrder = false
	s.nextID++
	r := &Rule{ID: s.nextID, Priority: prio, Match: m.normalised(), Action: a}
	i := sort.Search(len(s.ordered), func(i int) bool { return s.ordered[i].Priority <= prio })
	s.ordered = slices.Insert(s.ordered, i, r)
	s.tcamChanged(i, r)
	return r.ID
}

// Remove deletes a TCAM rule by ID. It reports whether the rule existed.
func (s *Switch) Remove(id RuleID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.indexLocked(id)
	if i < 0 {
		return false
	}
	s.inOrder = false
	s.ordered = slices.Delete(s.ordered, i, i+1)
	s.tcamChanged(i, nil)
	return true
}

// indexLocked finds a rule's position in the TCAM, -1 when absent. Rules
// are addressed by ID only from tests and probes, so a scan of the table
// serves where a second index would have to be rebuilt on every
// ReplaceTCAM.
//
// caller holds mu
func (s *Switch) indexLocked(id RuleID) int {
	return slices.IndexFunc(s.ordered, func(r *Rule) bool { return r.ID == id })
}

// Cookie names the owner of a microflow entry, as an OpenFlow cookie
// does: the UE whose flow it carries, by permanent address, and the
// policy clause that admitted the flow. The zero Cookie is owned by no UE.
type Cookie struct {
	Owner  packet.Addr
	Clause int32
}

// Flow is one microflow entry: what the switch does with the packets of
// one five-tuple, who owns the entry, and its traffic. The five-tuple is
// the entry's key and its match, so the entry keeps neither a Match nor a
// priority (the microflow table is looked up before the TCAM), and no ID:
// its pointer names it for as long as it is installed.
type Flow struct {
	Action Action
	Cookie Cookie
	Counters
}

// InstallMicroflow adds (or replaces) an exact-match microflow entry owned
// as c names. Access switches use these for the per-flow classification
// rules the local agent installs (§4.1: "one rule for each microflow at
// the access switch").
func (s *Switch) InstallMicroflow(key packet.FlowKey, a Action, c Cookie) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &Flow{Action: a, Cookie: c}
	var was packet.Addr
	if old, ok := s.micro[key]; ok {
		was = old.Cookie.Owner
	}
	s.micro[key] = f
	s.own(key, was, c.Owner)
	s.microChanged(key, f)
}

// RemoveMicroflow deletes an exact-match entry.
func (s *Switch) RemoveMicroflow(key packet.FlowKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.micro[key]
	if !ok {
		return false
	}
	delete(s.micro, key)
	s.own(key, f.Cookie.Owner, 0)
	s.microChanged(key, nil)
	return true
}

// own moves key in the owner index from owner was to owner now; the zero
// address is no owner.
//
// caller holds mu
func (s *Switch) own(key packet.FlowKey, was, now packet.Addr) {
	if was == now {
		return
	}
	if was != 0 {
		keys := s.owned[was]
		i := slices.Index(keys, key)
		if keys = slices.Delete(keys, i, i+1); len(keys) == 0 {
			delete(s.owned, was)
		} else {
			s.owned[was] = keys
		}
	}
	if now != 0 {
		s.owned[now] = append(s.owned[now], key)
	}
}

// Microflow is one microflow entry as Owned lists it.
type Microflow struct {
	Key    packet.FlowKey
	Action Action
	Cookie Cookie
}

// Owned appends to dst the microflow entries whose cookie names owner, in
// the order the owner got them (an entry re-installed for the same owner
// keeps its place).
func (s *Switch) Owned(dst []Microflow, owner packet.Addr) []Microflow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, k := range s.owned[owner] {
		f := s.micro[k]
		dst = append(dst, Microflow{Key: k, Action: f.Action, Cookie: f.Cookie})
	}
	return dst
}

// Owners appends to dst, ascending, every owner some microflow entry's
// cookie names.
func (s *Switch) Owners(dst []packet.Addr) []packet.Addr {
	s.mu.RLock()
	n := len(dst)
	for o := range s.owned {
		dst = append(dst, o)
	}
	s.mu.RUnlock()
	slices.Sort(dst[n:])
	return dst
}

// Microflow returns the live microflow entry for key, if present. Read its
// counters with atomic loads; its other fields never change.
func (s *Switch) Microflow(key packet.FlowKey) (*Flow, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.micro[key]
	return f, ok
}

// Process runs one packet through the pipeline: microflow exact match
// first, then the TCAM in priority order, then the table-miss action.
// Rewrites are applied to p in place. A Resubmit action re-runs the TCAM
// lookup (not the microflow table) with the rewritten headers, at most
// four times.
//
// The whole walk — microflow lookup, resubmit chain, miss — runs under a
// single read lock, so concurrent packets proceed in parallel and every
// packet observes one consistent table state; counters are atomic.
func (s *Switch) Process(p *packet.Packet, inPort int) Verdict {
	s.mu.RLock()
	defer s.mu.RUnlock()
	atomic.AddUint64(&s.Processed, 1)
	s.obs.packets.Inc()

	var v Verdict
	matched := false
	if f, ok := s.micro[p.Flow()]; ok {
		s.obs.microHit.Inc()
		v = execute(&f.Action, &f.Counters, p)
		v.Flow = f
		matched = true
	} else {
		s.obs.microMiss.Inc()
	}
	for depth := 0; depth < 4; depth++ {
		if matched && !v.resubmit {
			return s.finish(v)
		}
		matched = false
		for _, r := range s.ordered {
			if r.Match.Covers(p, inPort) {
				s.obs.tcamHit.Inc()
				v = execute(&r.Action, &r.Counters, p)
				v.Rule = r
				matched = true
				break
			}
		}
		if !matched {
			break
		}
	}
	if matched {
		return s.finish(v)
	}
	atomic.AddUint64(&s.Misses, 1)
	s.obs.miss.Inc()
	v = Verdict{Output: -1}
	a := s.TableMiss
	a.apply(p)
	v.Drop = a.Drop || (!a.ToController && a.Output < 0)
	v.ToController = a.ToController
	v.Output = a.Output
	return s.finish(v)
}

// finish counts the packet's final outcome.
func (s *Switch) finish(v Verdict) Verdict {
	switch {
	case v.ToController:
		s.obs.punt.Inc()
	case v.Drop:
		s.obs.drop.Inc()
	}
	return v
}

// execute applies one entry's action to the packet, accounts it to the
// entry's counters, and builds the verdict; the caller names the entry.
func execute(a *Action, c *Counters, p *packet.Packet) Verdict {
	c.Account(len(p.Payload))
	a.apply(p)
	return Verdict{
		Output:       a.Output,
		Drop:         a.Drop || (!a.ToController && !a.Resubmit && a.Output < 0),
		ToController: a.ToController,
		resubmit:     a.Resubmit,
	}
}

// NumRules reports TCAM entries (microflows excluded — the paper counts
// those separately because they live in cheap software hash tables).
func (s *Switch) NumRules() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ordered)
}

// NumMicroflows reports exact-match entries.
func (s *Switch) NumMicroflows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.micro)
}

// Rules returns a snapshot of the TCAM in match order.
//
//lint:ignore deadexport the data plane's and fast path's differential tests compare whole TCAMs through it; ViewChanged would move the switch's change log
func (s *Switch) Rules() []Rule {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Rule, len(s.ordered))
	for i, r := range s.ordered {
		out[i] = r.snapshot()
	}
	return out
}

// ReplaceTCAM makes rules the switch's whole TCAM in one step: Process,
// View and fast-path compiles see either the old table or the new one,
// never an empty or half-filled table in between, and the generation moves
// once. The microflow table is untouched — the dataplane uses this to
// re-materialise controller state without disturbing agent-installed flows.
//
// Only Priority, Match and Action of each element are read; IDs are
// assigned and counters start at zero. The match order is (priority desc,
// then the match fields), so it depends on the set of rules alone and not
// on the order they were collected in; rules equal in both keep their slice
// order, first wins. The switch keeps the slice as the rules' storage: the
// caller must not touch it afterwards.
func (s *Switch) ReplaceTCAM(rules []Rule) {
	ordered := make([]*Rule, len(rules))
	for i := range rules {
		r := &rules[i]
		r.Match = r.Match.normalised()
		atomic.StoreUint64(&r.Packets, 0)
		atomic.StoreUint64(&r.Bytes, 0)
		ordered[i] = r
	}
	slices.SortStableFunc(ordered, matchOrder)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.tcamGen = atomic.AddUint64(&s.gen, 1)
	s.tcamFrom = s.tcamGen
	for i, r := range ordered {
		r.ID = s.nextID + RuleID(i) + 1
	}
	s.nextID += RuleID(len(ordered))
	s.ordered = ordered
	s.inOrder = true
}

// matchOrder is ReplaceTCAM's order: priority descending, then the match.
func matchOrder(a, b *Rule) int {
	if a.Priority != b.Priority {
		return cmp.Compare(b.Priority, a.Priority)
	}
	return a.Match.compare(b.Match)
}

// Edit is one step of a Splice: Rule goes into the TCAM, or with Remove
// set, the rule of the same priority and match comes out of it.
type Edit struct {
	Remove bool
	Rule   Rule
}

// Splice applies edits, in order, to a TCAM that ReplaceTCAM built: each
// inserted rule lands where ReplaceTCAM's order puts it, so the table is
// the one ReplaceTCAM would build from the edited rule set, while the rules
// no edit names keep their IDs and counters. As for ReplaceTCAM, readers
// see the table before or after all the edits and the generation moves
// once. Only the Priority, Match and Action of each edit's rule are read
// (its Match is normalised in place); inserted rules get new IDs and zero
// counters.
//
// Splice changes nothing and reports false when it cannot give that table:
// Install or Remove edited the TCAM since ReplaceTCAM, a removed rule is
// absent, or an inserted rule's priority and match are already present.
func (s *Switch) Splice(edits []Edit) bool {
	inserts := 0
	for i := range edits {
		edits[i].Rule.Match = edits[i].Rule.Match.normalised()
		if !edits[i].Remove {
			inserts++
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inOrder {
		return false
	}
	for i := range edits {
		e := &edits[i]
		_, present := slices.BinarySearchFunc(s.ordered, &e.Rule, matchOrder)
		for j := range edits[:i] { // the latest earlier edit of the same rule decides
			if matchOrder(&edits[j].Rule, &e.Rule) == 0 {
				present = !edits[j].Remove
			}
		}
		if present != e.Remove {
			return false
		}
	}

	s.tcamGen = atomic.AddUint64(&s.gen, 1)
	added := make([]Rule, 0, inserts)
	for i := range edits {
		e := &edits[i]
		at, _ := slices.BinarySearchFunc(s.ordered, &e.Rule, matchOrder)
		if e.Remove {
			s.ordered = slices.Delete(s.ordered, at, at+1)
			s.logged(Change{Gen: s.tcamGen, At: int32(at), TCAM: true})
			continue
		}
		s.nextID++
		added = append(added, Rule{ID: s.nextID, Priority: e.Rule.Priority, Match: e.Rule.Match, Action: e.Rule.Action})
		s.ordered = slices.Insert(s.ordered, at, &added[len(added)-1])
		s.logged(Change{Gen: s.tcamGen, At: int32(at), TCAM: true, Rule: &added[len(added)-1]})
	}
	return true
}
