// Package fastpath is the burst-mode forwarding fast path: an immutable
// snapshot of a switchsim.Switch's three tables (the microflow exact-match
// table, the switch's own copy-on-write index as it sealed it; the
// prioritised TCAM, compiled; the table-miss default) published behind an
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

// drops reports whether a rule verdict of action a drops the packet.
func drops(a *switchsim.Action) bool {
	return a.Drop || (!a.ToController && !a.Resubmit && a.Output < 0)
}

// compileAction flattens a switchsim.Action.
func compileAction(a switchsim.Action) caction {
	c := caction{
		output:       a.Output,
		drop:         drops(&a),
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

// apply mutates the packet's headers exactly as switchsim.Action.Apply.
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

// crule is one compiled TCAM rule as a snapshot's TCAM holds it: its match
// inline, for the scan, and the rest behind a pointer, so a recompile that
// copies the TCAM moves 40 B a rule and shares what the pointer names.
type crule struct {
	m cmatch
	r *tcamRule
}

// tcamRule is a compiled TCAM rule's action, ID and live counters,
// immutable and shared by every snapshot that holds the rule wherever it
// lands in the snapshot's flat slot numbering (TCAM, then microflows).
type tcamRule struct {
	act  caction
	live *switchsim.Counters
	id   switchsim.RuleID
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

// account attributes one packet of payload bytes to the entry in the
// given flat slot, whose live counters are c.
func (t *tally) account(c *switchsim.Counters, slot int32, payload int) {
	if t.direct {
		c.Account(payload)
		return
	}
	a := &t.acc[slot]
	if a.pkts == 0 {
		t.touched = append(t.touched, slot)
	}
	a.pkts++
	a.bytes += uint64(payload) + 24
}

// Snapshot is one switch's tables at a single generation, immutable after
// publish: the switch's sealed microflow table and its compiled TCAM. A
// lookup mutates nothing outside its packet but the live entries' atomic
// traffic counters.
type Snapshot struct {
	// Gen is the switch generation the snapshot was compiled at. A FIB
	// serves the snapshot only while the switch still reports the same
	// generation; any table mutation since makes it stale, detected rather
	// than silently served. A recompile hands it to the switch to be given
	// the changes since.
	Gen uint64

	micro switchsim.Microflows // the switch's own, sealed at Gen
	tcam  []crule              // priority-sorted (same order as the switch)
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

// work is what one compile did: the rules it compiled, and the compiled
// TCAM rules it copied of the snapshot before it.
type work struct {
	compiled, tcamCopied int
}

// compile is Compile reusing prev, an earlier snapshot of the same switch
// (or nil); it also reports its work. It takes the switch's sealed
// microflow table as it is, shares prev's TCAM when it did not change,
// replays the changes the switch lists on it, or compiles a TCAM handed
// whole afresh.
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
		micro:    v.Flows,
		tcam:     prev.tcam,
		miss:     compileAction(v.Miss),
		missDrop: v.Miss.Drop || (!v.Miss.ToController && v.Miss.Output < 0),
		src:      sw,
	}
	var w work
	switch {
	case v.Ordered != nil:
		s.tcam = make([]crule, len(v.Ordered))
		rules := make([]tcamRule, len(v.Ordered))
		for i, r := range v.Ordered {
			s.tcam[i] = compileRule(r, &rules[i])
		}
		w.compiled = len(v.Ordered)
	case len(v.Changes) > 0:
		s.tcam = replayed(prev.tcam, v.Changes, &w)
	}
	return s, w
}

// replayed returns prev's TCAM with changes replayed in order, by
// position, into one new slice. A run of rules between two changes in
// ascending position is copied in bulk; a change behind an earlier one
// shifts the slice built so far.
func replayed(prev []crule, changes []switchsim.Change, w *work) []crule {
	inserts := 0
	for i := range changes {
		if changes[i].Rule != nil {
			inserts++
		}
	}
	out := make([]crule, 0, len(prev)+inserts)
	rules := make([]tcamRule, inserts)
	src := 0 // the table as replayed so far is out, then prev[src:]
	for i := range changes {
		c := &changes[i]
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
// then the microflow table's slots.
func (s *Snapshot) slots() int { return len(s.tcam) + s.micro.Slots() }

// countersAt returns the live counters of the entry in a flat slot.
func (s *Snapshot) countersAt(slot int32) *switchsim.Counters {
	if int(slot) < len(s.tcam) {
		return s.tcam[slot].r.live
	}
	return &s.micro.At(int(slot) - len(s.tcam)).Counters
}

// flush drains a burst's tallies: per-rule traffic to the live entries'
// atomic counters, pipeline stats to the switch, and resets t for reuse.
func (s *Snapshot) flush(t *tally) {
	for _, slot := range t.touched {
		a := &t.acc[slot]
		s.countersAt(slot).AccountN(a.pkts, a.bytes)
		*a = ruleAcc{}
	}
	t.touched = t.touched[:0]
	s.src.AccountBurst(t.stats)
	t.stats = switchsim.BurstStats{}
}

// compileRule flattens one live TCAM rule, its action and ID into dst.
func compileRule(r *switchsim.Rule, dst *tcamRule) crule {
	*dst = tcamRule{act: compileAction(r.Action), live: &r.Counters, id: r.ID}
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
	} else if i, f, ok := s.micro.Lookup(p); ok {
		t.stats.MicroHit++
		t.account(&f.Counters, int32(len(s.tcam)+i), len(p.Payload))
		a := &f.Action
		a.Apply(p)
		v = Verdict{Flow: f, Output: a.Output, Drop: drops(a), ToController: a.ToController, resubmit: a.Resubmit}
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
				t.account(r.live, int32(i), len(p.Payload))
				r.act.apply(p)
				v = Verdict{Rule: r.id, Output: r.act.output, Drop: r.act.drop, ToController: r.act.toController, resubmit: r.act.resubmit}
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
