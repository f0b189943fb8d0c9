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

// The microflow index's slots live in pages of pageSize.
const (
	pageBits = 4
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// flowKey is a five-tuple packed into the index's two key words. The
// packing never sets lo's top bit; keyUsed sets it, so the zero flowKey
// marks an empty slot.
type flowKey struct{ hi, lo uint64 }

const keyUsed = 1 << 63

// flowPage is a fixed-size run of slots, the unit a patch copies. It keeps
// the slots' keys apart from their compiled microflows, so a probe reads
// only keys.
type flowPage struct {
	keys  [pageSize]flowKey
	rules [pageSize]rule
}

// flowTable is an open-addressed microflow index specialised for the
// five-tuple. The generic map's hashing was the single largest line in the
// burst profile; packing the key into two words and linearly probing a
// power-of-two table with one multiply-mix hash is severalfold cheaper per
// lookup. Each slot holds its compiled microflow. The slots live in pages
// behind a slice of page pointers, and a table is immutable after publish:
// a recompile patches a copy (flowPatch) that copies the page pointers and
// only the pages it writes, sharing every other page with the table it
// replaces. Removal shifts the rest of the probe chain back, so the index
// has no tombstones, and an insert that would take the load factor past
// half rebuilds it from its own entries at double size. Once patches have
// replaced more than a quarter of its pages, the table is laid out again
// in one block (patched).
type flowTable struct {
	pages []*flowPage
	mask  uint32
	n     int
	// block holds the pages as the table was last laid out, in one
	// allocation; loose counts the pages patches have replaced since by
	// copies of their own.
	block []flowPage
	loose int
}

// key returns slot i's key.
func (t *flowTable) key(i uint32) *flowKey {
	return &t.pages[i>>pageBits].keys[i&pageMask]
}

// rule returns slot i's compiled microflow.
func (t *flowTable) rule(i uint32) *rule {
	return &t.pages[i>>pageBits].rules[i&pageMask]
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

// flowHash mixes a key into a probe start.
func flowHash(k flowKey) uint32 {
	x := k.hi ^ k.lo*0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return uint32(x)
}

// find probes for a key and returns its slot, or with ok false the empty
// slot that ends its probe chain; the probe terminates because the load
// factor leaves empty slots. The table must have pages (n > 0).
func (t *flowTable) find(k flowKey) (i uint32, ok bool) {
	for i = flowHash(k) & t.mask; ; i = (i + 1) & t.mask {
		if e := t.pages[i>>pageBits].keys[i&pageMask]; e == k || e.lo == 0 {
			return i, e.lo != 0
		}
	}
}

// newFlowTable returns an empty table sized for n flows at a load factor
// of at most half.
func newFlowTable(n int) flowTable {
	size := pageSize
	for size < 2*n {
		size <<= 1
	}
	return inBlock(make([]flowPage, size/pageSize), 0)
}

// inBlock returns a table of n entries laid out in block.
func inBlock(block []flowPage, n int) flowTable {
	pages := make([]*flowPage, len(block))
	for i := range block {
		pages[i] = &block[i]
	}
	return flowTable{pages: pages, mask: uint32(len(block)*pageSize - 1), n: n, block: block}
}

// microIndex compiles a whole microflow table; it also reports the rules
// it compiled. An empty table (core and gateway switches hold no
// microflows) allocates nothing.
func microIndex(micro map[packet.FlowKey]*switchsim.Flow) (flowTable, int) {
	if len(micro) == 0 {
		return flowTable{}, 0
	}
	p := flowPatch{t: newFlowTable(len(micro))}
	for key, f := range micro {
		p.add(flowKeyWords(key), compileFlow(f))
	}
	return p.t, len(micro)
}

// patched returns the table with changes applied in order, sharing every
// page no change writes; it also reports the rules it compiled. Once more
// than a quarter of its pages are loose, it is laid out again in one
// block: pages strewn over the heap slowed forwarding by a tenth
// (EXPERIMENTS.md, "Microflow ledger"). A relayout copies the table once
// per at least a quarter as many page copies, so a change's amortised
// cost stays proportional to its edits.
func (t flowTable) patched(changes []switchsim.MicroChange) (flowTable, int) {
	p := flowPatch{t: t, base: t.pages}
	p.t.pages = slices.Clone(t.pages)
	compiled := 0
	for _, c := range changes {
		if c.Flow == nil {
			p.del(flowKeyWords(c.Key))
			continue
		}
		p.put(flowKeyWords(c.Key), compileFlow(c.Flow))
		compiled++
	}
	if 4*p.t.loose > len(p.t.pages) {
		block := make([]flowPage, len(p.t.pages))
		for i, pg := range p.t.pages {
			block[i] = *pg
		}
		p.t = inBlock(block, p.t.n)
	}
	return p.t, compiled
}

// flowPatch edits t, a copy of a published table whose page pointers are
// t's own but whose pages are still base's where they are equal: such a
// page is copied before its first write.
type flowPatch struct {
	t    flowTable
	base []*flowPage
}

// page returns the page holding slot i ready for writing, copying it out
// of base first if it is still shared; page constructs flowTable state
// before the enclosing snapshot publishes.
func (p *flowPatch) page(i uint32) *flowPage {
	pg := i >> pageBits
	if int(pg) < len(p.base) && p.t.pages[pg] == p.base[pg] {
		if p.t.pages[pg] == &p.t.block[pg] {
			p.t.loose++
		}
		cp := *p.t.pages[pg]
		p.t.pages[pg] = &cp
	}
	return p.t.pages[pg]
}

// put makes r the entry for k. A new key that would take the table past
// half full first rebuilds it from its own entries at double size (one
// page when empty). put constructs flowTable state before the enclosing
// snapshot publishes.
func (p *flowPatch) put(k flowKey, r rule) {
	if p.t.n > 0 {
		if i, ok := p.t.find(k); ok {
			p.page(i).rules[i&pageMask] = r
			return
		}
	}
	if 2*(p.t.n+1) > len(p.t.pages)*pageSize {
		old := p.t
		p.t, p.base = newFlowTable(len(old.pages)*pageSize), nil
		for _, pg := range old.pages {
			for j, k := range pg.keys {
				if k.lo != 0 {
					p.add(k, pg.rules[j])
				}
			}
		}
	}
	p.add(k, r)
}

// add puts a key the table does not hold in the first empty slot of its
// probe chain. add constructs flowTable state before the enclosing
// snapshot publishes.
func (p *flowPatch) add(k flowKey, r rule) {
	i := flowHash(k) & p.t.mask
	for p.t.key(i).lo != 0 {
		i = (i + 1) & p.t.mask
	}
	p.move(i, k, r)
	p.t.n++
}

// move writes slot i. move constructs flowTable state before the
// enclosing snapshot publishes.
func (p *flowPatch) move(i uint32, k flowKey, r rule) {
	pg := p.page(i)
	pg.keys[i&pageMask], pg.rules[i&pageMask] = k, r
}

// del removes k's entry, if any, by backward-shift deletion: each later
// entry of the probe chain whose home slot does not lie cyclically after
// the hole moves into it, so every remaining key stays reachable from its
// home slot with no tombstone left behind.
// del constructs flowTable state before the enclosing snapshot publishes.
func (p *flowPatch) del(k flowKey) {
	if p.t.n == 0 {
		return
	}
	hole, ok := p.t.find(k)
	if !ok {
		return
	}
	for j := (hole + 1) & p.t.mask; ; j = (j + 1) & p.t.mask {
		e := *p.t.key(j)
		if e.lo == 0 {
			break
		}
		home := flowHash(e) & p.t.mask
		// e may fill the hole unless its home is in (hole, j], cyclically.
		if (j-home)&p.t.mask >= (j-hole)&p.t.mask {
			p.move(hole, e, *p.t.rule(j))
			hole = j
		}
	}
	p.move(hole, flowKey{}, rule{})
	p.t.n--
}

// rule is what executing a compiled entry takes: its action, the live
// counters of the switch entry it was compiled from (for traffic
// attribution, and for a TCAM rule its identity: see compile), and, for a
// microflow, the live entry a verdict names. It does not know its slot in
// the snapshot's flat rule numbering (TCAM first, then the microflow
// index's slots), so a later snapshot can share it wherever it lands
// there.
type rule struct {
	act  caction
	live *switchsim.Counters
	flow *switchsim.Flow // nil for a TCAM rule
}

// crule is one compiled TCAM rule: a rule, its ID and its match. A
// microflow needs no compiled match; its key is its match.
type crule struct {
	m  cmatch
	id switchsim.RuleID
	rule
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
	// than silently served.
	Gen uint64
	// microGen and tcamGen are the switch generations at each table's
	// latest change (switchsim.TableView); lastID is the largest TCAM rule
	// ID compiled. A recompile reads them to reuse what did not change.
	microGen, tcamGen uint64
	lastID            switchsim.RuleID

	micro flowTable // flow five-tuple -> compiled microflow
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
func Compile(sw *switchsim.Switch) *Snapshot {
	s, _ := compile(sw, nil)
	return s
}

// compile is Compile reusing prev, an earlier snapshot of the same switch
// (or nil); it also reports how many rules it compiled. A table that has
// not changed since prev is shared with it. A moved microflow table the
// switch hands over as its changes since prev patches prev's index, and
// one it hands over whole is indexed afresh. A TCAM rule prev compiled is
// copied rather than compiled again: the address of its live counters
// identifies it, a rule installed since has an ID above prev.lastID, and
// the rules still installed keep their order.
//
// hotpath: cold
func compile(sw *switchsim.Switch, prev *Snapshot) (*Snapshot, int) {
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
		tcam:     prev.tcam,
		miss:     compileAction(v.Miss),
		missDrop: v.Miss.Drop || (!v.Miss.ToController && v.Miss.Output < 0),
		src:      sw,
	}
	compiled := 0
	switch {
	case v.MicroGen == prev.microGen:
	case len(v.MicroChanges) > 0:
		s.micro, compiled = prev.micro.patched(v.MicroChanges)
	default:
		s.micro, compiled = microIndex(v.Micro)
	}
	if v.TCAMGen != prev.tcamGen {
		s.tcam = make([]crule, 0, len(v.Ordered))
		old := prev.tcam
		for _, r := range v.Ordered {
			if r.ID <= prev.lastID {
				for len(old) > 0 && old[0].live != &r.Counters {
					old = old[1:] // removed since prev
				}
			}
			if len(old) > 0 && old[0].live == &r.Counters {
				s.tcam = append(s.tcam, old[0])
				old = old[1:]
				continue
			}
			s.tcam = append(s.tcam, crule{m: compileMatch(r.Match), id: r.ID, rule: rule{act: compileAction(r.Action), live: &r.Counters}})
			compiled++
			s.lastID = max(s.lastID, r.ID)
		}
	}
	return s, compiled
}

// slots reports the snapshot's flat rule-slot count: the TCAM's rules,
// then the microflow index's slots.
func (s *Snapshot) slots() int { return len(s.tcam) + len(s.micro.pages)*pageSize }

// ruleAt returns the compiled rule in a flat slot.
func (s *Snapshot) ruleAt(slot int32) *rule {
	if int(slot) < len(s.tcam) {
		return &s.tcam[slot].rule
	}
	return s.micro.rule(uint32(int(slot) - len(s.tcam)))
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

// compileMatch flattens a TCAM rule's match. The match was normalised at
// install time, so the compiled port bounds are the effective ones.
func compileMatch(m switchsim.Match) cmatch {
	return cmatch{
		inPort: int(m.InPort),
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

// NumRules reports compiled TCAM entries (microflows excluded).
func (s *Snapshot) NumRules() int { return len(s.tcam) }

// NumMicroflows reports compiled exact-match entries.
func (s *Snapshot) NumMicroflows() int { return s.micro.n }

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
	if s.micro.n == 0 {
		t.stats.MicroMiss++
	} else if i, ok := s.micro.find(flowWords(p)); ok {
		t.stats.MicroHit++
		v = s.exec(s.micro.rule(i), 0, int32(len(s.tcam))+int32(i), p, t)
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
				v = s.exec(&s.tcam[i].rule, s.tcam[i].id, int32(i), p, t)
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
