package dataplane

import (
	"repro/internal/obs"
)

// dpObs is the data plane's telemetry: burst shape at the network entry
// points, slow-path fallbacks, and how Sync updated each changed switch. A nil *dpObs is a no-op;
// every hot-path update is an atomic add or a fixed-bucket observe.
type dpObs struct {
	bursts  *obs.Counter   // bursts injected via BurstSender.Send
	burstSz *obs.Histogram // injected burst sizes in packets
	pkts    *obs.Counter   // packets injected through burst sends
	slow    *obs.Counter   // packets replayed on the stateful slow path
	delta   *obs.Counter   // switches Sync updated by a splice
	rebuild *obs.Counter   // switches Sync rebuilt whole
	// looked counts the switches Sync examined: a FIB version compared
	// and a switch's view sealed by the fast path's Warm each count one.
	looked *obs.Counter
}

// newDPObs registers the data plane's series on reg; nil reg returns nil.
func newDPObs(reg *obs.Registry) *dpObs {
	if reg == nil {
		return nil
	}
	return &dpObs{
		bursts:  reg.Counter("dataplane.bursts"),
		burstSz: reg.Histogram("dataplane.burst.size", 1, 2, 4, 8, 16, 32, 64, 128, 256),
		pkts:    reg.Counter("dataplane.burst.packets"),
		slow:    reg.Counter("dataplane.slowpath"),
		delta:   reg.Counter("dataplane.sync.delta"),
		rebuild: reg.Counter("dataplane.sync.rebuild"),

		looked: reg.Counter("dataplane.sync.examined"),
	}
}

func (o *dpObs) burst(n int) {
	if o != nil {
		o.bursts.Inc()
		o.burstSz.Observe(int64(n))
		o.pkts.Add(uint64(n))
	}
}

func (o *dpObs) slowPath() {
	if o != nil {
		o.slow.Inc()
	}
}

// synced counts one switch Sync updated, by a splice or a whole rebuild.
func (o *dpObs) synced(spliced bool) {
	switch {
	case o == nil:
	case spliced:
		o.delta.Inc()
	default:
		o.rebuild.Inc()
	}
}

// examined counts k switches Sync looked at.
func (o *dpObs) examined(k int) {
	if o != nil {
		o.looked.Add(uint64(k))
	}
}

// dpSpans names the spans a handoff and a Sync record. The zero value,
// all nil, records nothing: a nil *obs.SpanName opens only unsampled spans.
type dpSpans struct {
	handoff *obs.SpanName // a whole Network.Handoff
	agents  *obs.SpanName // the agents' part of a handoff: AdmitUE and MigrateFlows
	sync    *obs.SpanName // a whole Sync
	splice  *obs.SpanName // one switch's splice, tried by Sync
	replace *obs.SpanName // one switch's table rebuilt by Sync
	compile *obs.SpanName // the fast path's Warm at the end of a Sync
}

// Instrument registers the data plane's burst telemetry, its handoff and
// Sync spans and every switch's pipeline counters on reg. Call it before
// EnableFastPath so the fast path inherits the same registry.
func (n *Network) Instrument(reg *obs.Registry) {
	n.obs = newDPObs(reg)
	n.spans = dpSpans{
		handoff: reg.SpanName("dataplane.handoff"),
		agents:  reg.SpanName("dataplane.handoff.agents"),
		sync:    reg.SpanName("dataplane.sync"),
		splice:  reg.SpanName("dataplane.sync.splice"),
		replace: reg.SpanName("dataplane.sync.replace"),
		compile: reg.SpanName("dataplane.sync.compile"),
	}
	n.reg = reg
	for _, sw := range n.Switches {
		sw.Instrument(reg)
	}
}
