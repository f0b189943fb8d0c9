package fastpath

import (
	"repro/internal/obs"
)

// fpObs is the fast path's telemetry: burst shape and walk outcomes. A nil
// *fpObs is a no-op, so uninstrumented nets run at zero cost; every
// hot-path update is an atomic add or a fixed-bucket histogram observe —
// 0 allocs.
type fpObs struct {
	bursts  *obs.Counter   // bursts processed (per-switch view loads)
	burstSz *obs.Histogram // burst sizes in packets
	pkts    *obs.Counter   // packets entering burst walks
	slow    *obs.Counter   // packets handed to the slow path
	looped  *obs.Counter   // packets exceeding the hop budget
}

// newFPObs registers the fast path's series on reg; nil reg returns nil.
func newFPObs(reg *obs.Registry) *fpObs {
	if reg == nil {
		return nil
	}
	return &fpObs{
		bursts:  reg.Counter("fastpath.bursts"),
		burstSz: reg.Histogram("fastpath.burst.size", 1, 2, 4, 8, 16, 32, 64, 128, 256),
		pkts:    reg.Counter("fastpath.packets"),
		slow:    reg.Counter("fastpath.slowpath"),
		looped:  reg.Counter("fastpath.looped"),
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
