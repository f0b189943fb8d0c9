// Package fastpath is the burst-mode forwarding fast path over each
// switch's own sealed tables (switchsim.Switch.View: the prioritised TCAM,
// the microflow exact-match table and the table-miss action), with two
// ways to walk them: a Walker drives packet bursts through a whole
// topology with zero shared locks in steady state, and Net.Step serves
// single-packet walks that cannot batch.
//
// The control plane publishes new tables by moving the switch's
// generation, never by taking a lock the walkers share; the first reader
// after a write seals the view once for all. The differential guarantee,
// enforced by property tests, fuzz targets and the -race stress tests, is
// that every walk equals the single-packet switchsim.Process walk over the
// same tables, header rewrites included.
package fastpath

import (
	"repro/internal/packet"
	"repro/internal/switchsim"
)

// ruleAcc accumulates one burst's traffic against one table entry.
type ruleAcc struct {
	pkts, bytes uint64
}

// tally accumulates one burst's pipeline outcomes and per-rule traffic;
// flushed once per burst to the source switch (AccountBurst plus one
// atomic counter update per touched rule) and the fastpath telemetry.
// Batching here is what keeps the hot path free of per-packet atomics.
// A direct tally (Net.Step's, one packet) has no per-rule accumulator: a
// hit goes straight to the live entry's counters, and only stats remain to
// flush.
type tally struct {
	stats   switchsim.BurstStats
	acc     []ruleAcc // indexed by flat rule slot; entries zero unless touched
	touched []int32
	direct  bool
}

// ensure sizes the per-rule accumulator for a view with n slots.
// Entries are kept zeroed by flush, so re-slicing within capacity is safe.
func (t *tally) ensure(n int) {
	if cap(t.acc) < n {
		//lint:ignore hotpath grows only when a newly sealed view gains slots; steady state re-slices
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

// Compile returns the switch's current view; the switch seals it, copying
// and compiling nothing.
//
// hotpath: cold
func Compile(sw *switchsim.Switch) *switchsim.TableView { return sw.View() }

// slots reports a view's flat rule-slot count: the TCAM's rules, then the
// microflow table's slots.
func slots(v *switchsim.TableView) int { return v.TCAM.Len() + v.Flows.Slots() }

// countersAt returns the live counters of the entry in a flat slot.
func countersAt(v *switchsim.TableView, slot int32) *switchsim.Counters {
	if n := v.TCAM.Len(); int(slot) >= n {
		return &v.Flows.At(int(slot) - n).Counters
	}
	return &v.TCAM.At(int(slot)).Counters
}

// flush drains a burst's tallies through view v of switch sw: per-rule
// traffic to the live entries' atomic counters, pipeline stats to the
// switch, and resets t for reuse.
func flush(sw *switchsim.Switch, v *switchsim.TableView, t *tally) {
	for _, slot := range t.touched {
		a := &t.acc[slot]
		countersAt(v, slot).AccountN(a.pkts, a.bytes)
		*a = ruleAcc{}
	}
	t.touched = t.touched[:0]
	sw.AccountBurst(t.stats)
	t.stats = switchsim.BurstStats{}
}

// lookup runs one packet through view v, mirroring switchsim.Process step
// for step: microflow exact match first, then the TCAM in priority order
// with at most four resubmits, then the table-miss action. Rewrites are
// applied to p in place. The tallies accrue in t; bursts flush them to the
// switch once per burst, Net.Step once per packet. It is the one fast-path
// match loop: burst walks and single steps both run it.
func lookup(v *switchsim.TableView, p *packet.Packet, inPort int, t *tally) switchsim.Verdict {
	t.stats.Packets++

	var out switchsim.Verdict
	matched, resubmit := false, false
	// The empty-table guard skips the five-tuple hash entirely on core
	// and gateway switches, which never hold microflows.
	if v.Flows.Len() == 0 {
		t.stats.MicroMiss++
	} else if i, f, ok := v.Flows.Lookup(p); ok {
		t.stats.MicroHit++
		t.account(&f.Counters, int32(v.TCAM.Len()+i), len(p.Payload))
		a := &f.Action
		a.Apply(p)
		out = a.Verdict(false)
		out.Flow = f
		matched, resubmit = true, a.Resubmit
	} else {
		t.stats.MicroMiss++
	}
	for depth := 0; depth < 4 && (!matched || resubmit); depth++ {
		i, r, ok := v.TCAM.Lookup(p, inPort)
		if matched = ok; !ok {
			break
		}
		t.stats.TCAMHit++
		t.account(&r.Counters, int32(i), len(p.Payload))
		a := &r.Action
		a.Apply(p)
		out = a.Verdict(false)
		out.Rule = r
		resubmit = a.Resubmit
	}
	if !matched {
		t.stats.Miss++
		v.Miss.Apply(p)
		out = v.Miss.Verdict(true)
	}
	switch {
	case out.ToController:
		t.stats.Punt++
	case out.Drop:
		t.stats.Drop++
	}
	return out
}
