package fastpath

import (
	"sync/atomic"

	"repro/internal/packet"
	"repro/internal/switchsim"
)

// FIB publishes the compiled snapshot of one switch behind an atomic
// pointer. Readers acquire the current snapshot with one atomic load plus
// one atomic generation check; a stale snapshot (the switch mutated since
// it was compiled) is never served — Acquire recompiles and swaps it with
// a compare-and-swap, so concurrent acquirers converge on the newest
// generation without any lock.
type FIB struct {
	sw   *switchsim.Switch
	snap atomic.Pointer[Snapshot]
	o    *fpObs
}

// NewFIB wraps a switch. The first Acquire compiles the initial snapshot.
func NewFIB(sw *switchsim.Switch) *FIB {
	return &FIB{sw: sw}
}

// instrument attaches telemetry; see Net/Engine instrumentation.
func (f *FIB) instrument(o *fpObs) { f.o = o }

// Acquire returns a snapshot that is current as of the call: its
// generation equals the switch's at the moment of the check. Steady state
// is two atomic loads; after a table mutation the first acquirer pays one
// compile and publishes for everyone.
//
// hotpath: no alloc, no lock
func (f *FIB) Acquire() *Snapshot {
	cur := f.snap.Load()
	gen := f.sw.Generation()
	if cur != nil && cur.Gen == gen {
		return cur
	}
	if cur != nil {
		f.o.stale()
	}
	ns, rules := compile(f.sw, cur)
	f.o.compiled(rules)
	for {
		cur = f.snap.Load()
		if cur != nil && cur.Gen >= ns.Gen {
			// Someone published the same or a newer generation first.
			return cur
		}
		if f.snap.CompareAndSwap(cur, ns) {
			return ns
		}
	}
}

// Step runs one packet arriving on inPort through the switch's current
// snapshot: the single-packet form of ProcessBurst, with the same verdict
// and header rewrites as switchsim.Process. It needs no handle: a hit is
// accounted straight to the live rule and the pipeline stats to the
// switch, so nothing is left to flush. A stale snapshot is recompiled
// first, exactly as for a burst.
//
// hotpath: no alloc, no lock
func (f *FIB) Step(p *packet.Packet, inPort int) Verdict {
	snap := f.Acquire()
	t := tally{direct: true}
	v := snap.lookup(p, inPort, &t)
	snap.src.AccountBurst(t.stats)
	return v
}

// Proc is one worker's processing handle on a FIB: it owns the reusable
// verdict scratch and the burst tally, so steady-state burst processing
// allocates nothing and shares no mutable state with other workers.
type Proc struct {
	fib      *FIB
	verdicts []Verdict
	t        tally
}

// NewProc returns a processing handle. Each concurrent worker needs its
// own; handles are cheap.
func (f *FIB) NewProc() *Proc {
	return &Proc{fib: f}
}

// ProcessBurst runs a burst of packets arriving on inPort through the
// switch's compiled tables: the snapshot is acquired once for the whole
// burst, verdicts land in the handle's reusable scratch (valid until the
// next call), and switch accounting plus telemetry flush once per burst.
// Header rewrites are applied to the packets in place, exactly as the
// single-packet Process path would.
//
// hotpath: no alloc, no lock
func (p *Proc) ProcessBurst(pkts []*packet.Packet, inPort int) []Verdict {
	snap := p.fib.Acquire()
	if cap(p.verdicts) < len(pkts) {
		//lint:ignore hotpath scratch growth on the first oversized burst only; steady state reuses it
		p.verdicts = make([]Verdict, len(pkts))
	}
	p.verdicts = p.verdicts[:len(pkts)]
	//lint:ignore hotpath accumulator grows only when a recompiled snapshot gains slots (see tally.ensure)
	p.t.ensure(snap.slots())
	for i, pkt := range pkts {
		p.verdicts[i] = snap.lookup(pkt, inPort, &p.t)
	}
	snap.flush(&p.t)
	p.fib.o.burst(len(pkts))
	return p.verdicts
}
