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
// traffic counters. Higher Priority wins; ties break toward the more
// recently installed rule (like OpenFlow's overlapping-rule behaviour with
// distinct priorities, which SoftCell's controller always uses anyway).
type Rule struct {
	ID       RuleID
	Priority int
	Match    Match
	Action   Action

	// Packets and Bytes are traffic counters, mutated with atomic adds
	// (see Account) so both the locked Process path and lock-free
	// fast-path snapshots can attribute traffic to the same live rule.
	Packets uint64
	Bytes   uint64
	seq     uint64
}

// Account attributes one packet of payloadBytes payload to the rule's
// traffic counters. The adds are atomic so compiled fast-path snapshots
// (internal/fastpath) can account without holding the switch lock.
func (r *Rule) Account(payloadBytes int) {
	atomic.AddUint64(&r.Packets, 1)
	atomic.AddUint64(&r.Bytes, uint64(payloadBytes)+24)
}

// AccountN attributes a batch of packets to the rule's traffic counters in
// one pair of atomic adds; the fast path tallies per burst and flushes here.
func (r *Rule) AccountN(pkts, bytes uint64) {
	atomic.AddUint64(&r.Packets, pkts)
	atomic.AddUint64(&r.Bytes, bytes)
}

// snapshot copies the rule with atomically read counters.
//
// caller holds mu
func (r *Rule) snapshot() Rule {
	return Rule{
		ID: r.ID, Priority: r.Priority, Match: r.Match, Action: r.Action,
		Packets: atomic.LoadUint64(&r.Packets),
		Bytes:   atomic.LoadUint64(&r.Bytes),
		seq:     r.seq,
	}
}

func (r *Rule) String() string {
	return fmt.Sprintf("#%d prio=%d %s -> %s", r.ID, r.Priority, r.Match, r.Action)
}

// Priority bands for SoftCell's rule types (§7): microflow and mobility
// entries override tag+prefix entries, which override tag-only, which
// override prefix-only, with a default band at the bottom. Bands are 100
// apart so longest-prefix-match within a band is expressed by adding the
// prefix length (0..32) to the band's base priority, as TCAM compilers do.
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
	PrioMicroflow = 900 // exact-match microflows at access switches
)

// Verdict is the outcome of processing one packet.
type Verdict struct {
	Rule         *Rule // matching rule; nil when table-miss
	Output       int   // egress port, -1 if none
	Drop         bool
	ToController bool
	resubmit     bool
}

// Switch is a software model of one OpenFlow switch. It is safe for
// concurrent use.
type Switch struct {
	Name string

	mu      sync.RWMutex
	ordered []*Rule                  // guarded by mu; sorted by (priority desc, seq desc)
	micro   map[packet.FlowKey]*Rule // guarded by mu
	nextID  RuleID                   // guarded by mu
	nextSeq uint64                   // guarded by mu

	// gen counts table mutations: every Install/Remove (TCAM or
	// microflow) and ReplaceTCAM bumps it. Writes happen under mu;
	// reads go through Generation's atomic load, so fast-path snapshot
	// caches detect staleness without touching the lock.
	gen uint64

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
// mismatch means ReplaceTCAM/Install/Remove ran since and the snapshot
// must be recompiled rather than silently served.
func (s *Switch) Generation() uint64 {
	return atomic.LoadUint64(&s.gen)
}

// bumpGen records one table mutation.
//
// caller holds mu
func (s *Switch) bumpGen() {
	atomic.AddUint64(&s.gen, 1)
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
// compilers: the generation it was taken at, the microflow entries, the
// TCAM rules in match order, and the table-miss action. The rule pointers
// are the live rules — treat them as read-only except for the atomic
// traffic counters behind Rule.Account.
type TableView struct {
	Gen     uint64
	Micro   map[packet.FlowKey]*Rule
	Ordered []*Rule
	Miss    Action
}

// View snapshots the tables under one read lock.
func (s *Switch) View() TableView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	micro := make(map[packet.FlowKey]*Rule, len(s.micro))
	for k, r := range s.micro {
		micro[k] = r
	}
	return TableView{
		Gen:     s.Generation(),
		Micro:   micro,
		Ordered: append([]*Rule(nil), s.ordered...),
		Miss:    s.TableMiss,
	}
}

// NewSwitch returns an empty switch.
func NewSwitch(name string) *Switch {
	return &Switch{
		Name:      name,
		micro:     make(map[packet.FlowKey]*Rule),
		TableMiss: Action{Output: -1, Drop: true},
	}
}

// Install adds a TCAM rule and returns its ID.
func (s *Switch) Install(prio int, m Match, a Action) RuleID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bumpGen()
	s.nextID++
	s.nextSeq++
	r := &Rule{ID: s.nextID, Priority: prio, Match: m.normalised(), Action: a, seq: s.nextSeq}
	i := sort.Search(len(s.ordered), func(i int) bool {
		o := s.ordered[i]
		if o.Priority != r.Priority {
			return o.Priority < r.Priority
		}
		return o.seq < r.seq
	})
	s.ordered = append(s.ordered, nil)
	copy(s.ordered[i+1:], s.ordered[i:])
	s.ordered[i] = r
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
	s.bumpGen()
	s.ordered = append(s.ordered[:i], s.ordered[i+1:]...)
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

// InstallMicroflow adds (or replaces) an exact-match microflow entry.
// Access switches use these for the per-flow classification rules the local
// agent installs (§4.1: "one rule for each microflow at the access switch").
func (s *Switch) InstallMicroflow(key packet.FlowKey, a Action) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bumpGen()
	s.nextID++
	s.micro[key] = &Rule{ID: s.nextID, Priority: PrioMicroflow, Action: a}
}

// RemoveMicroflow deletes an exact-match entry.
func (s *Switch) RemoveMicroflow(key packet.FlowKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.micro[key]; !ok {
		return false
	}
	s.bumpGen()
	delete(s.micro, key)
	return true
}

// Microflow returns the microflow rule for key, if present.
func (s *Switch) Microflow(key packet.FlowKey) (*Rule, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.micro[key]
	return r, ok
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
	if r, ok := s.micro[p.Flow()]; ok {
		s.obs.microHit.Inc()
		v = s.execute(r, p)
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
				v = s.execute(r, p)
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

func (s *Switch) execute(r *Rule, p *packet.Packet) Verdict {
	r.Account(len(p.Payload))
	r.Action.apply(p)
	return Verdict{
		Rule:         r,
		Output:       r.Action.Output,
		Drop:         r.Action.Drop || (!r.Action.ToController && !r.Action.Resubmit && r.Action.Output < 0),
		ToController: r.Action.ToController,
		resubmit:     r.Action.Resubmit,
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
func (s *Switch) Rules() []Rule {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Rule, len(s.ordered))
	for i, r := range s.ordered {
		out[i] = r.snapshot()
	}
	return out
}

// Rule returns a snapshot of one rule by ID.
func (s *Switch) Rule(id RuleID) (Rule, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := s.indexLocked(id)
	if i < 0 {
		return Rule{}, false
	}
	return s.ordered[i].snapshot(), true
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
	slices.SortStableFunc(ordered, func(a, b *Rule) int {
		if a.Priority != b.Priority {
			return cmp.Compare(b.Priority, a.Priority)
		}
		return a.Match.compare(b.Match)
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	s.bumpGen()
	n := uint64(len(ordered))
	for i, r := range ordered {
		r.ID = s.nextID + RuleID(i) + 1
		r.seq = s.nextSeq + n - uint64(i) // descending, as ordered requires
	}
	s.nextID += RuleID(n)
	s.nextSeq += n
	s.ordered = ordered
}
