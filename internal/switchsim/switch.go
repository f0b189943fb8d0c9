package switchsim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dirty"
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
// Account) so both the locked Process path and the lock-free fast path
// can attribute traffic to the same live entry.
type Counters struct {
	Packets uint64
	Bytes   uint64
}

// Account attributes one packet of payloadBytes payload to the counters.
// The adds are atomic so the fast path (internal/fastpath) can account
// without holding the switch lock.
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

// Verdict is the outcome of one packet's walk through a switch, by Process
// or by the fast path over its View. It names the entry whose
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

	mu     sync.RWMutex
	tcam   []entry     // guarded by mu; priority desc, see Install and ReplaceTCAM
	micro  *microTable // guarded by mu; nil until a microflow write
	nextID RuleID      // guarded by mu
	// inOrder is true while tcam is what ReplaceTCAM and Splice made it,
	// in their order; Install and Remove clear it. guarded by mu
	inOrder bool
	// sealed is true while tcam is the table View last handed out, which
	// the next write copies (see edit). guarded by mu
	sealed  bool
	watchAt int32 // guarded by mu; see watch

	// gen counts table mutations: every Install, Remove, ReplaceTCAM,
	// Splice and microflow write bumps it. Writes happen under mu;
	// reads go through Generation's atomic load, so View tells its sealed
	// view current without touching the lock.
	gen uint64
	// view is the tables as View last sealed them; see View.
	view atomic.Pointer[TableView]
	// watch, when set, is marked at every generation step, as switch
	// watchAt (see Watch). guarded by mu
	watch *dirty.Set

	// TableMiss is the verdict for packets no rule covers. The default
	// zero value drops; gateway/core switches usually leave it, access
	// switches punt to the local agent. Set it before traffic starts and
	// before the first View, which seals it; it is deliberately not
	// guarded (agent.New assigns it during wiring).
	TableMiss Action

	// obs is the optional telemetry handle set; see Instrument. All
	// handles are nil (no-op) until then.
	obs swObs
}

// Generation reports the table-mutation counter. A view sealed at
// generation g is exactly the current tables iff Generation() == g.
func (s *Switch) Generation() uint64 {
	return atomic.LoadUint64(&s.gen)
}

// step advances the generation, marks the switch in its watcher's set and
// returns the new generation.
//
// caller holds mu
func (s *Switch) step() uint64 {
	g := atomic.AddUint64(&s.gen, 1)
	s.watch.Mark(int(s.watchAt))
	return g
}

// Watch makes the switch mark itself in c, as switch i, after every change
// of its tables, so that the reader draining c visits the switches that
// changed. A later Watch replaces c.
func (s *Switch) Watch(c *dirty.Set, i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watch, s.watchAt = c, int32(i)
}

// BurstStats aggregates one burst's pipeline tallies so the fast path can
// flush switch accounting once per burst instead of per packet.
type BurstStats struct {
	Packets   uint64 // packets entering the pipeline
	MicroHit  uint64 // microflow exact-match hits
	MicroMiss uint64 // packets falling through to the TCAM
	TCAMHit   uint64 // TCAM rule executions (resubmits count again)
	Miss      uint64 // table misses
	Punt      uint64 // final verdict: to controller/agent
	Drop      uint64 // final verdict: dropped
}

// AccountBurst adds a burst's tallies to the switch's telemetry, which
// therefore reads the same whether packets took the locked Process path or
// a fast-path burst. Zero tallies cost nothing (no atomic add), so a
// one-packet flush pays only for the outcomes that packet had.
func (s *Switch) AccountBurst(b BurstStats) {
	s.obs.packets.Add(b.Packets)
	s.obs.microHit.Add(b.MicroHit)
	s.obs.microMiss.Add(b.MicroMiss)
	s.obs.tcamHit.Add(b.TCAMHit)
	s.obs.miss.Add(b.Miss)
	s.obs.punt.Add(b.Punt)
	s.obs.drop.Add(b.Drop)
}

// TableView is the switch's tables at generation Gen, immutable after
// publish: the TCAM and microflow table as the switch sealed them, and
// the table-miss action. The rule and flow pointers are the live entries,
// read-only but for the atomic traffic counters; an entry keeps its
// pointer while it is installed, so equal pointers in two views are the
// same entry, unchanged.
type TableView struct {
	Gen   uint64
	TCAM  TCAM
	Flows Microflows
	Miss  Action
}

// View returns the switch's current tables: the view it last sealed,
// with one atomic load, while its generation has not moved, and otherwise
// a view sealed now, which every later caller shares until the next write.
//
// hotpath: no alloc, no lock
func (s *Switch) View() *TableView {
	if v := s.view.Load(); v != nil && v.Gen == s.Generation() {
		return v
	}
	return s.seal()
}

// seal seals the tables under the lock and publishes them as the view,
// unless a racing caller did so first. Sealing costs no copy: the writes
// after copy what they touch first, so a sealed table never changes.
//
// hotpath: cold
func (s *Switch) seal() *TableView {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.view.Load(); v != nil && v.Gen == s.Generation() {
		return v
	}
	s.sealed = true
	v := &TableView{Gen: s.Generation(), TCAM: TCAM{s.tcam}, Miss: s.TableMiss}
	if s.micro != nil {
		v.Flows = s.micro.seal(&s.obs)
	}
	s.view.Store(v)
	s.obs.sealedViews.Inc()
	return v
}

// NewSwitch returns an empty switch.
func NewSwitch(name string) *Switch {
	return &Switch{
		Name:      name,
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
	s.edit(sort.Search(len(s.tcam), func(i int) bool { return s.tcam[i].rule.Priority <= prio }), r)
	s.step()
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
	s.edit(i, nil)
	s.step()
	return true
}

// indexLocked finds a rule's position in the TCAM, -1 when absent. Rules
// are addressed by ID only from tests and probes, so a scan of the table
// serves where a second index would have to be rebuilt on every
// ReplaceTCAM.
//
// caller holds mu
func (s *Switch) indexLocked(id RuleID) int {
	return slices.IndexFunc(s.tcam, func(e entry) bool { return e.rule.ID == id })
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

// Microflow is one microflow entry as Owned lists it and WriteMicroflows
// writes it.
type Microflow struct {
	Key    packet.FlowKey
	Action Action
	Cookie Cookie
}

// WriteMicroflows takes the exact-match entries of remove's keys out, then
// puts set's entries in (replacing any of the same key), as one write: one
// lock, one generation step, and reports the entries it took out or put
// in. Access switches hold the per-flow classification rules the local
// agent installs (§4.1: "one rule for each microflow at the access
// switch"); a handoff moves a UE's flows in one write per switch.
func (s *Switch) WriteMicroflows(remove []packet.FlowKey, set []Microflow) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.micro == nil {
		s.micro = newMicroTable()
	}
	n := s.micro.write(remove, set, &s.obs)
	if n > 0 {
		s.step()
	}
	return n
}

// InstallMicroflow adds (or replaces) one exact-match entry owned as c
// names.
func (s *Switch) InstallMicroflow(key packet.FlowKey, a Action, c Cookie) {
	s.WriteMicroflows(nil, []Microflow{{Key: key, Action: a, Cookie: c}})
}

// RemoveMicroflow takes one exact-match entry out and reports whether it
// was there.
func (s *Switch) RemoveMicroflow(key packet.FlowKey) bool {
	return s.WriteMicroflows([]packet.FlowKey{key}, nil) == 1
}

// Owned appends to dst the microflow entries whose cookie names owner, in
// the order the owner got them (an entry re-installed for the same owner
// keeps its place).
func (s *Switch) Owned(dst []Microflow, owner packet.Addr) []Microflow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.micro == nil {
		return dst
	}
	for _, k := range s.micro.owned[owner] {
		f, _ := s.micro.flow(k)
		dst = append(dst, Microflow{Key: k, Action: f.Action, Cookie: f.Cookie})
	}
	return dst
}

// Owners appends to dst, ascending, every owner some microflow entry's
// cookie names.
func (s *Switch) Owners(dst []packet.Addr) []packet.Addr {
	s.mu.RLock()
	n := len(dst)
	if s.micro != nil {
		for o := range s.micro.owned {
			dst = append(dst, o)
		}
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
	return s.micro.flow(key)
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
	s.obs.packets.Inc()

	var v Verdict
	matched := false
	if f, ok := s.micro.flow(p.Flow()); ok {
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
		for _, e := range s.tcam {
			if r := e.rule; r.Match.Covers(p, inPort) {
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
	s.obs.miss.Inc()
	a := s.TableMiss
	a.Apply(p)
	return s.finish(a.Verdict(true))
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
	a.Apply(p)
	return a.Verdict(false)
}

// Verdict is the verdict of a packet whose last entry's action is a,
// naming no entry. A rule's resubmit hands the packet back to the TCAM,
// so it drops nothing for want of an output; the table-miss action (miss
// set) ends the walk, so it never resubmits.
func (a *Action) Verdict(miss bool) Verdict {
	resubmit := a.Resubmit && !miss
	return Verdict{
		Output:       a.Output,
		Drop:         a.Drop || (!a.ToController && !resubmit && a.Output < 0),
		ToController: a.ToController,
		resubmit:     resubmit,
	}
}

// NumRules reports TCAM entries (microflows excluded — the paper counts
// those separately because they live in cheap software hash tables).
func (s *Switch) NumRules() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tcam)
}

// NumMicroflows reports exact-match entries.
func (s *Switch) NumMicroflows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.micro == nil {
		return 0
	}
	return s.micro.live.Len()
}

// Rules returns a snapshot of the TCAM in match order.
//
//lint:ignore deadexport the data plane's and fast path's differential tests compare whole TCAMs through it; View would seal the TCAM, so a test's next write would copy it
func (s *Switch) Rules() []Rule {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Rule, len(s.tcam))
	for i, e := range s.tcam {
		out[i] = e.rule.snapshot()
	}
	return out
}

// ReplaceTCAM makes rules the switch's whole TCAM in one step: Process
// and View see either the old table or the new one,
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
	tcam := make([]entry, len(ordered))
	for i, r := range ordered {
		tcam[i] = entryOf(r)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.step()
	for i, e := range tcam {
		e.rule.ID = s.nextID + RuleID(i) + 1
	}
	s.nextID += RuleID(len(tcam))
	s.tcam, s.sealed, s.inOrder = tcam, false, true
}

// matchOrder is ReplaceTCAM's order: priority descending, then the match.
func matchOrder(a, b *Rule) int {
	if a.Priority != b.Priority {
		return cmp.Compare(b.Priority, a.Priority)
	}
	return a.Match.compare(b.Match)
}

// find returns where r's priority and match sit, or would, in the TCAM
// ReplaceTCAM built, and whether they are present.
//
// caller holds mu
func (s *Switch) find(r *Rule) (int, bool) {
	return slices.BinarySearchFunc(s.tcam, r, func(e entry, r *Rule) int { return matchOrder(e.rule, r) })
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
// once. Only the Priority, Match and Action of each edit's rule are read;
// inserted rules get new IDs and zero counters. Splice works on edits in
// place: it normalises their matches, writes the inserted rules' IDs into
// them and sorts them.
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
		_, present := s.find(&e.Rule)
		for j := range edits[:i] { // the latest earlier edit of the same rule decides
			if matchOrder(&edits[j].Rule, &e.Rule) == 0 {
				present = !edits[j].Remove
			}
		}
		if present != e.Remove {
			return false
		}
	}

	s.step()
	if len(edits) == 0 {
		return true
	}
	for i := range edits {
		if !edits[i].Remove {
			s.nextID++
			edits[i].Rule.ID = s.nextID
		}
	}
	// Each rule's last edit decides it: in match order, the edits merge
	// with the table into a new one in one pass.
	slices.SortStableFunc(edits, func(a, b Edit) int { return matchOrder(&a.Rule, &b.Rule) })
	added := make([]Rule, 0, inserts)
	tcam := make([]entry, 0, len(s.tcam)+inserts)
	from := 0
	for i := range edits {
		e := &edits[i].Rule
		if i+1 < len(edits) && matchOrder(&edits[i+1].Rule, e) == 0 {
			continue
		}
		at, present := s.find(e)
		tcam = append(tcam, s.tcam[from:at]...)
		if from = at; present {
			from++
		}
		if !edits[i].Remove {
			added = append(added, Rule{ID: e.ID, Priority: e.Priority, Match: e.Match, Action: e.Action})
			tcam = append(tcam, entryOf(&added[len(added)-1]))
		}
	}
	tcam = append(tcam, s.tcam[from:]...)
	s.obs.tcamCopy.Add(uint64(len(tcam) - len(added)))
	s.tcam, s.sealed = tcam, false
	return true
}
