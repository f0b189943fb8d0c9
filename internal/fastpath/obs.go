package fastpath

import (
	"repro/internal/obs"
)

// fpObs is the fast path's telemetry: snapshot lifecycle (compiles and
// stale detections), burst shape, and walk outcomes. A nil *fpObs is a
// no-op, so uninstrumented nets run at zero cost; every hot-path update
// is an atomic add or a fixed-bucket histogram observe — 0 allocs.
type fpObs struct {
	compile  *obs.Counter   // snapshots compiled
	rules    *obs.Counter   // rules compiled
	tcamCopy *obs.Counter   // compiled TCAM rules copied from the snapshot before
	staleHit *obs.Counter   // stale snapshots detected (generation moved)
	bursts   *obs.Counter   // bursts processed (per-switch acquisitions)
	burstSz  *obs.Histogram // burst sizes in packets
	pkts     *obs.Counter   // packets entering burst walks
	slow     *obs.Counter   // packets handed to the slow path
	looped   *obs.Counter   // packets exceeding the hop budget
}

// newFPObs registers the fast path's series on reg; nil reg returns nil.
func newFPObs(reg *obs.Registry) *fpObs {
	if reg == nil {
		return nil
	}
	return &fpObs{
		compile:  reg.Counter("fastpath.snapshot.compile"),
		rules:    reg.Counter("fastpath.rules.compiled"),
		tcamCopy: reg.Counter("fastpath.rules.copied"),
		staleHit: reg.Counter("fastpath.snapshot.stale"),
		bursts:   reg.Counter("fastpath.bursts"),
		burstSz:  reg.Histogram("fastpath.burst.size", 1, 2, 4, 8, 16, 32, 64, 128, 256),
		pkts:     reg.Counter("fastpath.packets"),
		slow:     reg.Counter("fastpath.slowpath"),
		looped:   reg.Counter("fastpath.looped"),
	}
}

// compiled counts one snapshot compile and its work.
func (o *fpObs) compiled(w work) {
	if o != nil {
		o.compile.Inc()
		o.rules.Add(uint64(w.compiled))
		o.tcamCopy.Add(uint64(w.tcamCopied))
	}
}

func (o *fpObs) stale() {
	if o != nil {
		o.staleHit.Inc()
	}
}

func (o *fpObs) burst(n int) {
	if o != nil {
		o.bursts.Inc()
		o.burstSz.Observe(int64(n))
	}
}

func (o *fpObs) walked(n int) {
	if o != nil {
		o.pkts.Add(uint64(n))
	}
}

func (o *fpObs) slowPath() {
	if o != nil {
		o.slow.Inc()
	}
}

func (o *fpObs) loop() {
	if o != nil {
		o.looped.Inc()
	}
}
