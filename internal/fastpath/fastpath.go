// Package fastpath is the burst-mode forwarding fast path: an immutable,
// compiled snapshot of a switchsim.Switch's three tables (microflow exact
// match, prioritised TCAM, table-miss default) published behind an
// atomic.Pointer and swapped whenever the switch's rule tables mutate,
// plus a multi-worker engine that drives packet bursts through a whole
// topology with zero shared locks in steady state, and a single-packet
// step (FIB.Step) over the same snapshots for walks that cannot batch.
//
// The design follows production burst-oriented routers (per-worker
// pipelines over immutable per-worker FIB views) and the control/data
// decoupling the paper's architecture assumes: data-plane workers
// classify from local snapshots; the control plane publishes new tables
// by bumping the switch's generation, never by taking a lock the workers
// share. The differential guarantee — enforced by property tests, a fuzz
// target and the -race swap stress — is that every burst verdict equals
// the verdict of the single-packet switchsim.Process walk over the same
// tables, including the header rewrites applied to the packet.
package fastpath

import (
	"repro/internal/packet"
	"repro/internal/switchsim"
)

// anyPort mirrors switchsim.AnyPort in the compiled matcher.
const anyPort = switchsim.AnyPort

// Verdict is the outcome of one packet's pipeline walk through a compiled
// snapshot. It carries the matched rule's ID instead of a pointer so burst
// results stay flat and allocation-free; Rule is 0 on a table miss.
type Verdict struct {
	Rule         switchsim.RuleID
	Output       int // egress port, -1 if none
	Drop         bool
	ToController bool
	resubmit     bool
}

// cmatch is a compiled TCAM predicate: the normalised match flattened to
// mask-and-compare fields, so a cover test is straight-line integer code
// with no normalisation and no method dispatch per packet.
type cmatch struct {
	inPort          int
	srcVal, srcMask uint32
	dstVal, dstMask uint32
	sLo, sHi        uint16
	dLo, dHi        uint16
	proto           packet.Proto
}

// covers reports whether the compiled match accepts p arriving on inPort.
func (m *cmatch) covers(p *packet.Packet, inPort int) bool {
	if m.inPort != anyPort && m.inPort != inPort {
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

// caction is a compiled action: rewrite flags flattened from the pointer
// fields of switchsim.Action, the tag rewrites pre-shifted, and the
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
	if a.SetSrc != nil {
		c.hasSrc, c.src = true, *a.SetSrc
	}
	if a.SetDst != nil {
		c.hasDst, c.dst = true, *a.SetDst
	}
	if a.SetSrcPort != nil {
		c.hasSPort, c.sport = true, *a.SetSrcPort
	}
	if a.SetDstPort != nil {
		c.hasDPort, c.dport = true, *a.SetDstPort
	}
	if a.SetSrcTag != nil || a.SetDstTag != nil {
		c.ephMask = uint16(1)<<a.TagEphBits - 1
	}
	if a.SetSrcTag != nil {
		c.hasSTag, c.stag = true, uint16(*a.SetSrcTag)<<a.TagEphBits
	}
	if a.SetDstTag != nil {
		c.hasDTag, c.dtag = true, uint16(*a.SetDstTag)<<a.TagEphBits
	}
	if a.SetDSCP != nil {
		c.hasDSCP, c.dscp = true, *a.SetDSCP
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

// flowEntry is one probe slot of the microflow index.
type flowEntry struct {
	hi, lo uint64
	slot   int32 // index into mrul; -1 marks an empty probe slot
}

// flowTable is an immutable open-addressed microflow index specialised
// for the five-tuple. The generic map's hashing was the single largest
// line in the burst profile; packing the key into two words and probing a
// flat power-of-two table with one multiply-mix hash is severalfold
// cheaper per lookup. The table is built once at compile time and only
// read afterwards — it is immutable after publish — so it needs no
// tombstones and no resizing.
type flowTable struct {
	ent  []flowEntry
	mask uint32
	n    int
}

// flowWords packs a packet's five-tuple into the index's two key words.
func flowWords(p *packet.Packet) (uint64, uint64) {
	return uint64(p.Src)<<32 | uint64(p.Dst),
		uint64(p.SrcPort)<<24 | uint64(p.DstPort)<<8 | uint64(p.Proto)
}

// flowKeyWords packs a switchsim flow key the same way.
func flowKeyWords(k packet.FlowKey) (uint64, uint64) {
	return uint64(k.Src)<<32 | uint64(k.Dst),
		uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
}

// flowHash mixes the two key words into a probe start.
func flowHash(hi, lo uint64) uint32 {
	x := hi ^ lo*0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return uint32(x)
}

// init sizes the table for n flows at a <=50% load factor; init
// constructs flowTable state before the enclosing snapshot publishes.
func (t *flowTable) init(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	t.ent = make([]flowEntry, size)
	t.mask = uint32(size - 1)
	for i := range t.ent {
		t.ent[i].slot = -1
	}
}

// insert adds a key during compilation (duplicates overwrite); insert
// constructs flowTable state before the enclosing snapshot publishes.
func (t *flowTable) insert(hi, lo uint64, slot int32) {
	i := flowHash(hi, lo) & t.mask
	for t.ent[i].slot >= 0 {
		if t.ent[i].hi == hi && t.ent[i].lo == lo {
			t.ent[i].slot = slot
			return
		}
		i = (i + 1) & t.mask
	}
	t.ent[i] = flowEntry{hi: hi, lo: lo, slot: slot}
	t.n++
}

// find probes for a key; linear probing, guaranteed to terminate because
// the load factor leaves empty slots.
func (t *flowTable) find(hi, lo uint64) (int32, bool) {
	i := flowHash(hi, lo) & t.mask
	for {
		e := &t.ent[i]
		if e.slot < 0 {
			return 0, false
		}
		if e.hi == hi && e.lo == lo {
			return e.slot, true
		}
		i = (i + 1) & t.mask
	}
}

// crule is one compiled rule: match, action, and the live switchsim rule
// it was compiled from (for traffic-counter attribution). It does not know
// its slot in the snapshot's flat rule numbering (TCAM first, then
// microflows), so a later snapshot can share it wherever it lands there.
type crule struct {
	id   switchsim.RuleID
	m    cmatch
	act  caction
	live *switchsim.Rule
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
// hit goes straight to the live rule's counters, and only stats remain to
// flush.
type tally struct {
	stats   switchsim.BurstStats
	acc     []ruleAcc // indexed by crule slot; entries zero unless touched
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
func (t *tally) account(r *crule, slot int32, payload int) {
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
// atomic traffic counter on the live rules.
type Snapshot struct {
	// Gen is the switch generation the snapshot was compiled at. A FIB
	// serves the snapshot only while the switch still reports the same
	// generation; any table mutation since makes it stale, detected rather
	// than silently served.
	Gen uint64
	// microGen and tcamGen are the switch generations at each table's
	// latest change (switchsim.TableView); lastID is the largest TCAM rule
	// ID compiled. A recompile reads them to reuse what did not change.
	microGen, tcamGen uint64
	lastID            switchsim.RuleID

	micro flowTable // flow five-tuple -> index into mrul
	mrul  []crule   // compiled microflow entries
	tcam  []crule   // priority-sorted (same order as the switch)
	miss  caction
	// missDrop is the table-miss verdict's drop bit; the miss formula
	// ignores Resubmit, unlike rule verdicts, so it is compiled apart.
	missDrop bool
	src      *switchsim.Switch
}

// Compile flattens the switch's current tables into an immutable snapshot.
//
// hotpath: cold
func Compile(sw *switchsim.Switch) *Snapshot { return compile(sw, nil) }

// compile is Compile reusing prev, an earlier snapshot of the same switch
// (or nil): a table that has not changed since prev is shared with it, and
// a TCAM rule prev compiled is copied rather than compiled again. Its live
// rule pointer identifies it; a rule installed since has an ID above
// prev.lastID, and the rules still installed keep their order.
//
// hotpath: cold
func compile(sw *switchsim.Switch, prev *Snapshot) *Snapshot {
	if prev == nil {
		prev = &Snapshot{microGen: ^uint64(0), tcamGen: ^uint64(0)}
	}
	v := sw.ViewChanged(prev.microGen, prev.tcamGen)
	s := &Snapshot{
		Gen:      v.Gen,
		microGen: v.MicroGen,
		tcamGen:  v.TCAMGen,
		lastID:   prev.lastID,
		micro:    prev.micro,
		mrul:     prev.mrul,
		tcam:     prev.tcam,
		miss:     compileAction(v.Miss),
		missDrop: v.Miss.Drop || (!v.Miss.ToController && v.Miss.Output < 0),
		src:      sw,
	}
	if v.MicroGen != prev.microGen {
		s.mrul = make([]crule, 0, len(v.Micro))
		s.micro = flowTable{}
		s.micro.init(len(v.Micro))
		for key, r := range v.Micro {
			hi, lo := flowKeyWords(key)
			s.micro.insert(hi, lo, int32(len(s.mrul)))
			s.mrul = append(s.mrul, compileRule(r))
		}
	}
	if v.TCAMGen != prev.tcamGen {
		s.tcam = make([]crule, 0, len(v.Ordered))
		old := prev.tcam
		for _, r := range v.Ordered {
			if r.ID <= prev.lastID {
				for len(old) > 0 && old[0].live != r {
					old = old[1:] // removed since prev
				}
			}
			if len(old) > 0 && old[0].live == r {
				s.tcam = append(s.tcam, old[0])
				old = old[1:]
				continue
			}
			s.tcam = append(s.tcam, compileRule(r))
			s.lastID = max(s.lastID, r.ID)
		}
	}
	return s
}

// slots reports the snapshot's flat rule count (TCAM plus microflows).
func (s *Snapshot) slots() int { return len(s.tcam) + len(s.mrul) }

// ruleAt returns the compiled rule in a flat slot.
func (s *Snapshot) ruleAt(slot int32) *crule {
	if int(slot) < len(s.tcam) {
		return &s.tcam[slot]
	}
	return &s.mrul[int(slot)-len(s.tcam)]
}

// flush drains a burst's tallies: per-rule traffic to the live rules'
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

// compileRule flattens one live rule. The rule's match was normalised at
// install time, so the compiled port bounds are the effective ones.
func compileRule(r *switchsim.Rule) crule {
	m := r.Match
	return crule{
		id: r.ID,
		m: cmatch{
			inPort: m.InPort,
			srcVal: uint32(m.Src.Addr), srcMask: prefixMask(m.Src.Len),
			dstVal: uint32(m.Dst.Addr), dstMask: prefixMask(m.Dst.Len),
			sLo: m.SrcPortLo, sHi: m.SrcPortHi,
			dLo: m.DstPortLo, dHi: m.DstPortHi,
			proto: m.Proto,
		},
		act:  compileAction(r.Action),
		live: r,
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

// Switch returns the switch the snapshot was compiled from.
func (s *Snapshot) Switch() *switchsim.Switch { return s.src }

// NumRules reports compiled TCAM entries (microflows excluded).
func (s *Snapshot) NumRules() int { return len(s.tcam) }

// NumMicroflows reports compiled exact-match entries.
func (s *Snapshot) NumMicroflows() int { return len(s.mrul) }

// exec applies one compiled rule, in flat slot slot, to the packet and
// builds its verdict, attributing traffic to the tally (flushed to the
// live rules' atomic counters once per burst, or at once for a direct
// tally).
func (s *Snapshot) exec(r *crule, slot int32, p *packet.Packet, t *tally) Verdict {
	t.account(r, slot, len(p.Payload))
	r.act.apply(p)
	return Verdict{
		Rule:         r.id,
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
// packet. It is the one compiled match loop: bursts, engine walks and
// single steps all run it.
func (s *Snapshot) lookup(p *packet.Packet, inPort int, t *tally) Verdict {
	t.stats.Packets++

	var v Verdict
	matched := false
	// The empty-table guard skips the five-tuple hash entirely on core
	// and gateway switches, which never hold microflows.
	if s.micro.n == 0 {
		t.stats.MicroMiss++
	} else if i, ok := s.micro.find(flowWords(p)); ok {
		t.stats.MicroHit++
		v = s.exec(&s.mrul[i], int32(len(s.tcam))+i, p, t)
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
				v = s.exec(&s.tcam[i], int32(i), p, t)
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
