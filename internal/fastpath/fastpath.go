// Package fastpath is the burst-mode forwarding fast path: an immutable,
// compiled snapshot of a switchsim.Switch's three tables (microflow exact
// match, prioritised TCAM, table-miss default) published behind an
// atomic.Pointer and swapped whenever the switch's rule tables mutate,
// plus two ways to walk them: a Walker drives packet bursts through a
// whole topology with zero shared locks in steady state, and a
// single-packet step (FIB.Step) serves walks that cannot batch.
//
// The design follows production burst-oriented routers (per-walker
// pipelines over immutable FIB views) and the control/data decoupling the
// paper's architecture assumes: data-plane walkers classify from local
// snapshots; the control plane publishes new tables by bumping the
// switch's generation, never by taking a lock the walkers share. The
// differential guarantee — enforced by property tests, a fuzz target and
// the -race swap stress — is that every compiled walk equals the
// single-packet switchsim.Process walk over the same tables, including
// the header rewrites applied to the packet.
package fastpath

import (
	"slices"

	"repro/internal/cowindex"
	"repro/internal/packet"
	"repro/internal/switchsim"
)

// anyPort mirrors switchsim.AnyPort in the compiled matcher.
const anyPort = switchsim.AnyPort

// Verdict is the outcome of one packet's pipeline walk through a compiled
// snapshot. Like switchsim.Verdict it names the entry whose action decided
// it: a TCAM rule by its ID (Rule), a microflow entry that did not resubmit
// by its live pointer (Flow); both are zero on a table miss.
type Verdict struct {
	Rule         switchsim.RuleID
	Flow         *switchsim.Flow
	Output       int // egress port, -1 if none
	Drop         bool
	ToController bool
	resubmit     bool
}

// cmatch is a compiled TCAM predicate: the normalised match flattened to
// mask-and-compare fields, so a cover test is straight-line integer code
// with no normalisation and no method dispatch per packet. Its 32-bit
// in-port keeps it at 32 B.
type cmatch struct {
	inPort          int32
	srcVal, srcMask uint32
	dstVal, dstMask uint32
	sLo, sHi        uint16
	dLo, dHi        uint16
	proto           packet.Proto
}

// covers reports whether the compiled match accepts p arriving on inPort.
func (m *cmatch) covers(p *packet.Packet, inPort int) bool {
	if m.inPort != anyPort && int(m.inPort) != inPort {
		return false
	}
	if uint32(p.Src)&m.srcMask != m.srcVal || uint32(p.Dst)&m.dstMask != m.dstVal {
		return false
	}
	if p.SrcPort < m.sLo || p.SrcPort > m.sHi || p.DstPort < m.dLo || p.DstPort > m.dHi {
		return false
	}
	return m.proto == 0 || m.proto == p.Proto
}

// caction is a compiled action: rewrite flags flattened from the set mask
// of switchsim.Action, the tag rewrites pre-shifted, and the
// rule-verdict drop bit precomputed.
type caction struct {
	output       int
	drop         bool // effective rule drop: Drop || (!punt && !resubmit && output < 0)
	toController bool
	resubmit     bool

	hasSrc, hasDst     bool
	src, dst           packet.Addr
	hasSPort, hasDPort bool
	sport, dport       uint16
	hasSTag, hasDTag   bool
	stag, dtag         uint16 // pre-shifted tag field values
	ephMask            uint16 // low bits preserved by tag rewrites
	hasDSCP            bool
	dscp               uint8
}

// compileAction flattens a switchsim.Action.
func compileAction(a switchsim.Action) caction {
	c := caction{
		output:       a.Output,
		drop:         a.Drop || (!a.ToController && !a.Resubmit && a.Output < 0),
		toController: a.ToController,
		resubmit:     a.Resubmit,
	}
	if a.Set&switchsim.SetSrc != 0 {
		c.hasSrc, c.src = true, a.Src
	}
	if a.Set&switchsim.SetDst != 0 {
		c.hasDst, c.dst = true, a.Dst
	}
	if a.Set&switchsim.SetSrcPort != 0 {
		c.hasSPort, c.sport = true, a.SrcPort
	}
	if a.Set&switchsim.SetDstPort != 0 {
		c.hasDPort, c.dport = true, a.DstPort
	}
	if a.Set&(switchsim.SetSrcTag|switchsim.SetDstTag) != 0 {
		c.ephMask = uint16(1)<<a.TagEphBits - 1
	}
	if a.Set&switchsim.SetSrcTag != 0 {
		c.hasSTag, c.stag = true, uint16(a.SrcTag)<<a.TagEphBits
	}
	if a.Set&switchsim.SetDstTag != 0 {
		c.hasDTag, c.dtag = true, uint16(a.DstTag)<<a.TagEphBits
	}
	if a.Set&switchsim.SetDSCP != 0 {
		c.hasDSCP, c.dscp = true, a.DSCP
	}
	return c
}

// apply mutates the packet's headers exactly as switchsim.Action.apply.
func (c *caction) apply(p *packet.Packet) {
	if c.hasSrc {
		p.Src = c.src
	}
	if c.hasDst {
		p.Dst = c.dst
	}
	if c.hasSPort {
		p.SrcPort = c.sport
	}
	if c.hasDPort {
		p.DstPort = c.dport
	}
	if c.hasSTag {
		p.SrcPort = c.stag | p.SrcPort&c.ephMask
	}
	if c.hasDTag {
		p.DstPort = c.dtag | p.DstPort&c.ephMask
	}
	if c.hasDSCP {
		p.DSCP = c.dscp
	}
}

// flowKey is a five-tuple packed into the microflow index's two key words.
// The packing never sets lo's top bit; keyUsed sets it, so the zero
// flowKey, which the index takes for an empty slot, is no flow's key.
// Packing the key into two words and hashing it with one multiply-mix is
// severalfold cheaper per lookup than the generic map's hashing, which
// was the single largest line in the burst profile.
type flowKey struct{ hi, lo uint64 }

const keyUsed = 1 << 63

// Hash mixes a key into a probe start.
func (k flowKey) Hash() uint32 {
	x := k.hi ^ k.lo*0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return uint32(x)
}

// flowWords packs a packet's five-tuple into the index's key.
func flowWords(p *packet.Packet) flowKey {
	return flowKey{uint64(p.Src)<<32 | uint64(p.Dst),
		uint64(p.SrcPort)<<24 | uint64(p.DstPort)<<8 | uint64(p.Proto) | keyUsed}
}

// flowKeyWords packs a switchsim flow key the same way.
func flowKeyWords(k packet.FlowKey) flowKey {
	return flowKey{uint64(k.Src)<<32 | uint64(k.Dst),
		uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto) | keyUsed}
}

// microflows is the microflow index: a flow's packed five-tuple to its
// compiled microflow, which is immutable and shared by every index that
// holds it, so a page copy moves no rule. It is immutable after publish: a
// recompile writes a copy that copies only the pages it writes (see
// patched).
type microflows = cowindex.Index[flowKey, *rule]

// microLoad is the microflow index's load bound, in entries per 8 slots.
// Every packet at an access switch probes the index and many miss it, and
// a miss probes to the end of its chain: at half load it costs about a
// third of what it does at the default 7/8 (CHANGES.md).
const microLoad = 4

// microIndex compiles a whole microflow table into one block of rules; it
// also reports the rules it compiled. An empty table (core and gateway
// switches hold no microflows) allocates nothing.
func microIndex(micro map[packet.FlowKey]*switchsim.Flow) (microflows, int) {
	t := cowindex.New[flowKey, *rule](microLoad, len(micro))
	rules := make([]rule, 0, len(micro))
	for key, f := range micro {
		rules = append(rules, compileFlow(f))
		t.Put(nil, flowKeyWords(key), &rules[len(rules)-1])
	}
	return t, len(micro)
}

// patched returns t with the microflow changes among changes applied in
// order, sharing every page no change writes; edits counts those changes
// and inserts the ones that install an entry. It also reports the rules it
// compiled and the pages it copied. A patch that could leave more than a
// quarter of the pages loose (one per edit), and whose inserts cannot grow
// the index, lays the index out again in one block first, copying each
// page once, and then writes the block in place: pages strewn over the
// heap slowed forwarding by a tenth (EXPERIMENTS.md, "Microflow ledger").
// A relayout copies the index once per at least a quarter as many page
// copies, so a change's amortised cost stays proportional to its edits.
// An empty index is replaced by a fresh one sized for the inserts, so the
// index is always laid out in a block (cowindex.New), and grows into one.
func patched(t microflows, changes []switchsim.Change, edits, inserts int) (microflows, int, int) {
	p, base, copied := t, &t, 0
	switch {
	case t.Len() == 0:
		p, base = cowindex.New[flowKey, *rule](microLoad, inserts), nil
	case !t.WouldGrow(inserts) && 4*(t.Loose()+edits) > t.Pages():
		p, base, copied = t.LaidOut(), nil, t.Pages()
	}
	rules := make([]rule, 0, inserts)
	for _, c := range changes {
		loose := p.Loose()
		switch {
		case c.TCAM:
		case c.Flow == nil:
			p.Delete(base, flowKeyWords(c.Key))
		default:
			rules = append(rules, compileFlow(c.Flow))
			p.Put(base, flowKeyWords(c.Key), &rules[len(rules)-1])
		}
		if d := p.Loose() - loose; d > 0 { // a growth lays the index out afresh, copying nothing of base
			copied += d
		}
	}
	if 4*p.Loose() > p.Pages() { // a removal's backward shift wrote more pages than it had edits
		copied += p.Pages()
		p = p.LaidOut()
	}
	return p, len(rules), copied
}

// rule is what executing a compiled entry takes: its action, the live
// counters of the switch entry it was compiled from (for traffic
// attribution), and, for a microflow, the live entry a verdict names. It
// does not know its slot in the snapshot's flat rule numbering (TCAM
// first, then the microflow index's slots), so a later snapshot can share
// it wherever it lands there.
type rule struct {
	act  caction
	live *switchsim.Counters
	flow *switchsim.Flow // nil for a TCAM rule
}

// crule is one compiled TCAM rule as a snapshot's TCAM holds it: its match
// inline, for the scan, and the rest behind a pointer, so a recompile that
// copies the TCAM moves 40 B a rule and shares what the pointer names. A
// microflow needs no compiled match; its key is its match.
type crule struct {
	m cmatch
	r *tcamRule
}

// tcamRule is a compiled TCAM rule's rule and ID, immutable and shared by
// every snapshot that holds the rule.
type tcamRule struct {
	rule
	id switchsim.RuleID
}

// ruleAcc accumulates one burst's traffic against one compiled rule.
type ruleAcc struct {
	pkts, bytes uint64
}

// tally accumulates one burst's pipeline outcomes and per-rule traffic;
// flushed once per burst to the source switch (AccountBurst plus one
// atomic counter update per touched rule) and the fastpath telemetry.
// Batching here is what keeps the hot path free of per-packet atomics.
// A direct tally (FIB.Step's, one packet) has no per-rule accumulator: a
// hit goes straight to the live entry's counters, and only stats remain to
// flush.
type tally struct {
	stats   switchsim.BurstStats
	acc     []ruleAcc // indexed by flat rule slot; entries zero unless touched
	touched []int32
	direct  bool
}

// ensure sizes the per-rule accumulator for a snapshot with n slots.
// Entries are kept zeroed by flush, so re-slicing within capacity is safe.
func (t *tally) ensure(n int) {
	if cap(t.acc) < n {
		//lint:ignore hotpath grows only when a recompiled snapshot gains slots; steady state re-slices
		t.acc = make([]ruleAcc, n)
	}
	t.acc = t.acc[:n]
}

// account attributes one packet of payload bytes to a compiled rule in
// the given flat slot.
func (t *tally) account(r *rule, slot int32, payload int) {
	if t.direct {
		r.live.Account(payload)
		return
	}
	a := &t.acc[slot]
	if a.pkts == 0 {
		t.touched = append(t.touched, slot)
	}
	a.pkts++
	a.bytes += uint64(payload) + 24
}

// Snapshot is the compiled state of one switch's tables at a single
// generation; it is immutable after publish. All lookups are read-only;
// the only mutation a lookup performs outside its own packet is the
// atomic traffic counters of the live entries.
type Snapshot struct {
	// Gen is the switch generation the snapshot was compiled at. A FIB
	// serves the snapshot only while the switch still reports the same
	// generation; any table mutation since makes it stale, detected rather
	// than silently served. A recompile hands it to the switch to be given
	// the changes since.
	Gen uint64

	micro microflows // flow five-tuple -> compiled microflow
	tcam  []crule    // priority-sorted (same order as the switch)
	miss  caction
	// missDrop is the table-miss verdict's drop bit; the miss formula
	// ignores Resubmit, unlike rule verdicts, so it is compiled apart.
	missDrop bool
	src      *switchsim.Switch
}

// Compile flattens the switch's current tables into an immutable snapshot.
//
// hotpath: cold
func Compile(sw *switchsim.Switch) *Snapshot {
	s, _ := compile(sw, nil)
	return s
}

// work is what one compile did: the rules it compiled, and what it copied
// of the snapshot before it — compiled TCAM rules and microflow index
// pages.
type work struct {
	compiled, tcamCopied, pagesCopied int
}

// compile is Compile reusing prev, an earlier snapshot of the same switch
// (or nil); it also reports its work. A table that has not changed since
// prev is shared with it. A moved table the switch hands over as its
// changes since prev is prev's with the changes applied, and one it hands
// over whole is compiled afresh.
//
// hotpath: cold
func compile(sw *switchsim.Switch, prev *Snapshot) (*Snapshot, work) {
	gen := ^uint64(0)
	if prev != nil {
		gen = prev.Gen
	} else {
		prev = &Snapshot{}
	}
	v := sw.ViewChanged(gen)
	s := &Snapshot{
		Gen:      v.Gen,
		micro:    prev.micro,
		tcam:     prev.tcam,
		miss:     compileAction(v.Miss),
		missDrop: v.Miss.Drop || (!v.Miss.ToController && v.Miss.Output < 0),
		src:      sw,
	}
	var w work
	microInserts, micro, tcamInserts, tcam := 0, 0, 0, 0
	for i := range v.Changes {
		c := &v.Changes[i]
		switch {
		case !c.TCAM:
			micro++
			if c.Flow != nil {
				microInserts++
			}
		case v.Ordered == nil:
			tcam++
			if c.Rule != nil {
				tcamInserts++
			}
		}
	}
	switch {
	case v.Micro != nil:
		s.micro, w.compiled = microIndex(v.Micro)
	case micro > 0:
		s.micro, w.compiled, w.pagesCopied = patched(prev.micro, v.Changes, micro, microInserts)
	}
	switch {
	case v.Ordered != nil:
		s.tcam = make([]crule, len(v.Ordered))
		rules := make([]tcamRule, len(v.Ordered))
		for i, r := range v.Ordered {
			s.tcam[i] = compileRule(r, &rules[i])
		}
		w.compiled += len(v.Ordered)
	case tcam > 0:
		s.tcam = replayed(prev.tcam, v.Changes, tcamInserts, &w)
	}
	return s, w
}

// replayed returns prev's TCAM with the TCAM changes among changes
// replayed in order, by position, into one new slice; inserts counts the
// changes that insert a rule. A run of rules between two changes in
// ascending position is copied in bulk; a change behind an earlier one
// shifts the slice built so far.
func replayed(prev []crule, changes []switchsim.Change, inserts int, w *work) []crule {
	out := make([]crule, 0, len(prev)+inserts)
	rules := make([]tcamRule, inserts)
	src := 0 // the table as replayed so far is out, then prev[src:]
	for i := range changes {
		c := &changes[i]
		if !c.TCAM {
			continue
		}
		at := int(c.At)
		if k := at - len(out); k > 0 {
			out = append(out, prev[src:src+k]...)
			src += k
			w.tcamCopied += k
		}
		switch {
		case c.Rule == nil && at < len(out):
			out = slices.Delete(out, at, at+1)
		case c.Rule == nil:
			src++
		default:
			out = slices.Insert(out, at, compileRule(c.Rule, &rules[0]))
			rules = rules[1:]
			w.compiled++
		}
	}
	w.tcamCopied += len(prev) - src
	return append(out, prev[src:]...)
}

// slots reports the snapshot's flat rule-slot count: the TCAM's rules,
// then the microflow index's slots.
func (s *Snapshot) slots() int { return len(s.tcam) + s.micro.Slots() }

// ruleAt returns the compiled rule in a flat slot.
func (s *Snapshot) ruleAt(slot int32) *rule {
	if int(slot) < len(s.tcam) {
		return &s.tcam[slot].r.rule
	}
	return s.micro.At(int(slot) - len(s.tcam))
}

// flush drains a burst's tallies: per-rule traffic to the live entries'
// atomic counters, pipeline stats to the switch, and resets t for reuse.
func (s *Snapshot) flush(t *tally) {
	for _, slot := range t.touched {
		a := &t.acc[slot]
		s.ruleAt(slot).live.AccountN(a.pkts, a.bytes)
		*a = ruleAcc{}
	}
	t.touched = t.touched[:0]
	s.src.AccountBurst(t.stats)
	t.stats = switchsim.BurstStats{}
}

// compileFlow flattens one live microflow entry's action.
func compileFlow(f *switchsim.Flow) rule {
	return rule{act: compileAction(f.Action), live: &f.Counters, flow: f}
}

// compileRule flattens one live TCAM rule, its action and ID into dst.
func compileRule(r *switchsim.Rule, dst *tcamRule) crule {
	*dst = tcamRule{rule: rule{act: compileAction(r.Action), live: &r.Counters}, id: r.ID}
	return crule{m: compileMatch(r.Match), r: dst}
}

// compileMatch flattens a TCAM rule's match. The match was normalised at
// install time, so the compiled port bounds are the effective ones.
func compileMatch(m switchsim.Match) cmatch {
	return cmatch{
		inPort: m.InPort,
		srcVal: uint32(m.Src.Addr), srcMask: prefixMask(m.Src.Len),
		dstVal: uint32(m.Dst.Addr), dstMask: prefixMask(m.Dst.Len),
		sLo: m.SrcPortLo, sHi: m.SrcPortHi,
		dLo: m.DstPortLo, dHi: m.DstPortHi,
		proto: m.Proto,
	}
}

// prefixMask is the network mask of a CIDR length.
func prefixMask(length int) uint32 {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - length)
}

// exec applies one compiled entry, in flat slot slot, to the packet and
// builds its verdict, attributing traffic to the tally (flushed to the
// live entries' atomic counters once per burst, or at once for a direct
// tally). id names a TCAM rule; it is 0 for a microflow.
func (s *Snapshot) exec(r *rule, id switchsim.RuleID, slot int32, p *packet.Packet, t *tally) Verdict {
	t.account(r, slot, len(p.Payload))
	r.act.apply(p)
	return Verdict{
		Rule:         id,
		Flow:         r.flow,
		Output:       r.act.output,
		Drop:         r.act.drop,
		ToController: r.act.toController,
		resubmit:     r.act.resubmit,
	}
}

// lookup runs one packet through the compiled pipeline, mirroring
// switchsim.Process step for step: microflow exact match first, then the
// TCAM in priority order with at most four resubmits, then the table-miss
// action. Rewrites are applied to p in place. The tallies accrue in t;
// bursts flush them to the switch once per burst, FIB.Step once per
// packet. It is the one compiled match loop: burst walks and single
// steps both run it.
func (s *Snapshot) lookup(p *packet.Packet, inPort int, t *tally) Verdict {
	t.stats.Packets++

	var v Verdict
	matched := false
	// The empty-table guard skips the five-tuple hash entirely on core
	// and gateway switches, which never hold microflows.
	if s.micro.Len() == 0 {
		t.stats.MicroMiss++
	} else if i, r, ok := s.micro.Find(flowWords(p)); ok {
		t.stats.MicroHit++
		v = s.exec(r, 0, int32(len(s.tcam))+int32(i), p, t)
		matched = true
	} else {
		t.stats.MicroMiss++
	}
	for depth := 0; depth < 4; depth++ {
		if matched && !v.resubmit {
			return s.finish(v, t)
		}
		matched = false
		for i := range s.tcam {
			if s.tcam[i].m.covers(p, inPort) {
				t.stats.TCAMHit++
				r := s.tcam[i].r
				v = s.exec(&r.rule, r.id, int32(i), p, t)
				matched = true
				break
			}
		}
		if !matched {
			break
		}
	}
	if matched {
		return s.finish(v, t)
	}
	t.stats.Miss++
	v = Verdict{Output: -1}
	s.miss.apply(p)
	v.Drop = s.missDrop
	v.ToController = s.miss.toController
	v.Output = s.miss.output
	return s.finish(v, t)
}

// finish tallies the packet's final outcome.
func (s *Snapshot) finish(v Verdict, t *tally) Verdict {
	switch {
	case v.ToController:
		t.stats.Punt++
	case v.Drop:
		t.stats.Drop++
	}
	return v
}
