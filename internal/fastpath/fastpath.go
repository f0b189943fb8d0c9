// Package fastpath is the burst-mode forwarding fast path: an immutable
// snapshot of a switchsim.Switch's three tables (the prioritised TCAM and
// the microflow exact-match table, both the switch's own copy-on-write
// tables as it sealed them; the table-miss default) published behind an
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
	"repro/internal/packet"
	"repro/internal/switchsim"
)

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

// drops reports whether a rule verdict of action a drops the packet.
func drops(a *switchsim.Action) bool {
	return a.Drop || (!a.ToController && !a.Resubmit && a.Output < 0)
}

// ruleAcc accumulates one burst's traffic against one table entry.
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
// publish: the switch's own TCAM and microflow table as it sealed them,
// and its table-miss action. A lookup mutates nothing outside its packet
// but the live entries' atomic traffic counters.
type Snapshot struct {
	// Gen is the switch generation the snapshot was compiled at. A FIB
	// serves the snapshot only while the switch still reports the same
	// generation; any table mutation since makes it stale, detected rather
	// than silently served.
	Gen uint64

	tcam  switchsim.TCAM       // the switch's own, sealed at Gen
	micro switchsim.Microflows // the switch's own, sealed at Gen
	miss  switchsim.Action
	// missDrop is the table-miss verdict's drop bit; the miss formula
	// ignores Resubmit, unlike rule verdicts, so it is kept apart.
	missDrop bool
	src      *switchsim.Switch
}

// Compile takes the switch's current tables as an immutable snapshot. It
// copies and compiles nothing: the switch seals its tables and hands them
// over as they are.
//
// hotpath: cold
func Compile(sw *switchsim.Switch) *Snapshot {
	v := sw.View()
	return &Snapshot{
		Gen:      v.Gen,
		tcam:     v.TCAM,
		micro:    v.Flows,
		miss:     v.Miss,
		missDrop: v.Miss.Drop || (!v.Miss.ToController && v.Miss.Output < 0),
		src:      sw,
	}
}

// slots reports the snapshot's flat rule-slot count: the TCAM's rules,
// then the microflow table's slots.
func (s *Snapshot) slots() int { return s.tcam.Len() + s.micro.Slots() }

// countersAt returns the live counters of the entry in a flat slot.
func (s *Snapshot) countersAt(slot int32) *switchsim.Counters {
	if n := s.tcam.Len(); int(slot) >= n {
		return &s.micro.At(int(slot) - n).Counters
	}
	return &s.tcam.At(int(slot)).Counters
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
		t.account(&f.Counters, int32(s.tcam.Len()+i), len(p.Payload))
		a := &f.Action
		a.Apply(p)
		v = Verdict{Flow: f, Output: a.Output, Drop: drops(a), ToController: a.ToController, resubmit: a.Resubmit}
		matched = true
	} else {
		t.stats.MicroMiss++
	}
	for depth := 0; depth < 4 && (!matched || v.resubmit); depth++ {
		i, r, ok := s.tcam.Lookup(p, inPort)
		if matched = ok; !ok {
			break
		}
		t.stats.TCAMHit++
		t.account(&r.Counters, int32(i), len(p.Payload))
		a := &r.Action
		a.Apply(p)
		v = Verdict{Rule: r.ID, Output: a.Output, Drop: drops(a), ToController: a.ToController, resubmit: a.Resubmit}
	}
	if !matched {
		t.stats.Miss++
		s.miss.Apply(p)
		v = Verdict{Output: s.miss.Output, Drop: s.missDrop, ToController: s.miss.ToController}
	}
	switch {
	case v.ToController:
		t.stats.Punt++
	case v.Drop:
		t.stats.Drop++
	}
	return v
}
