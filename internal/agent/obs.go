package agent

import (
	"repro/internal/obs"
)

// agentObs mirrors the mutex-guarded Stats counters onto lock-free obs
// counters so a live registry can watch classifier-cache behaviour
// without taking the agent's lock. All handles nil (no-op) until
// Instrument is called.
type agentObs struct {
	packetIns  *obs.Counter
	cacheHits  *obs.Counter
	cacheMiss  *obs.Counter
	denied     *obs.Counter
	microflows *obs.Counter
	publishes  *obs.Counter
	staleDrops *obs.Counter
	rejected   *obs.Counter
	replayed   *obs.Counter
	tornDown   *obs.Counter
	version    *obs.Gauge

	portsExhausted *obs.Counter

	// spPublish times validate+swap+reconcile of one snapshot publication.
	// Publications are controller-pushed, not request-scoped, so each one
	// roots its own trace under the sampling knob.
	spPublish *obs.SpanName
}

// Instrument registers the agent's telemetry on reg. Call it before the
// agent starts handling packets (it swaps the handle set unlocked).
// Callers wanting per-agent series pass a Sub-scoped view; registration
// is get-or-create, so a restarted agent re-instrumenting on the same
// registry keeps counting in the same series.
func (a *Agent) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	a.obs = agentObs{
		packetIns:  reg.Counter("agent.packet_in"),
		cacheHits:  reg.Counter("agent.cache.hit"),
		cacheMiss:  reg.Counter("agent.cache.miss"),
		denied:     reg.Counter("agent.denied"),
		microflows: reg.Counter("agent.microflows.installed"),
		publishes:  reg.Counter("agent.snapshot.publish"),
		staleDrops: reg.Counter("agent.snapshot.stale"),
		rejected:   reg.Counter("agent.snapshot.rejected"),
		replayed:   reg.Counter("agent.reconcile.replayed"),
		tornDown:   reg.Counter("agent.reconcile.torndown"),
		version:    reg.Gauge("agent.snapshot.version"),

		portsExhausted: reg.Counter("agent.flows.ports_exhausted"),

		spPublish: reg.SpanName("agent.publish"),
	}
	reg.Doc("agent.snapshot.publish", "Snapshots accepted and swapped in as LKG state")
	reg.Doc("agent.snapshot.stale", "Snapshot publications refused for stale versions")
	reg.Doc("agent.snapshot.version", "Version of the agent's current LKG snapshot")
}
