package shard

import (
	"strconv"

	"repro/internal/obs"
)

// dispObs bundles the dispatcher's observability handles (nil-safe
// no-ops when Config.Obs is unset). Dispatcher-wide metrics register on
// the root registry; per-shard occupancy metrics register through a
// "shard.<id>" Sub view, and each shard's controller instruments itself
// under the same view — so one registry carries, e.g.,
// shard.0.queue.depth next to shard.0.core.tagcache.hit.
type dispObs struct {
	reg        *obs.Registry
	crossLat   *obs.Histogram // cross-shard handoff latency (ns)
	crossDone  *obs.Counter
	localDone  *obs.Counter
	evFailover *obs.EventType

	// Span sections (DESIGN.md §16). The dispatcher is where in-process
	// callers enter the control plane, so its entry points make the
	// root-sampling decision; requests arriving over the wire join their
	// frame's trace through the Ctx variants instead.
	spPath    *obs.SpanName // shard.path — sharded path request, end to end
	spAttach  *obs.SpanName // shard.attach
	spHandoff *obs.SpanName // shard.handoff — local or cross-shard move
}

func newDispObs(reg *obs.Registry) dispObs {
	if reg == nil {
		return dispObs{}
	}
	reg.Doc("shard.handoff.cross", "Cross-shard two-phase UE migrations completed")
	reg.Doc("shard.handoff.local", "Handoffs served entirely inside one shard")
	return dispObs{
		reg: reg,
		crossLat: reg.Histogram("shard.handoff.cross_ns",
			10000, 100000, 1000000, 10000000, 100000000),
		crossDone:  reg.Counter("shard.handoff.cross"),
		localDone:  reg.Counter("shard.handoff.local"),
		evFailover: reg.EventType("shard.failover", "shard", "stations", "reported", "lost"),

		spPath:    reg.SpanName("shard.path"),
		spAttach:  reg.SpanName("shard.attach"),
		spHandoff: reg.SpanName("shard.handoff"),
	}
}

// shardObs holds one shard's occupancy telemetry, registered on the
// dispatcher registry's "shard.<id>" view. The span name registers on
// the root registry instead: every shard's admission lands in one
// waterfall segment, not a per-shard sliver.
type shardObs struct {
	depth *obs.Gauge // operations inside the shard or waiting at its bound

	spAdmit *obs.SpanName // shard.admission — the admission pipeline
}

func newShardObs(reg *obs.Registry, id int) shardObs {
	if reg == nil {
		return shardObs{}
	}
	return shardObs{
		depth:   reg.Sub("shard." + strconv.Itoa(id)).Gauge("queue.depth"),
		spAdmit: reg.SpanName("shard.admission"),
	}
}

// admObs holds one shard's admission-control telemetry: shed counts by
// request class, token-bucket refusals, and the circuit breaker's state
// machine, all under the same "shard.<id>" view as the occupancy gauge.
// Handles are nil-safe no-ops when the dispatcher runs uninstrumented.
type admObs struct {
	shed            [numClasses]*obs.Counter
	throttled       *obs.Counter
	breakerState    *obs.Gauge // 0 closed, 1 open, 2 half-open
	breakerTrips    *obs.Counter
	breakerFastFail *obs.Counter
}

func newAdmObs(reg *obs.Registry, id int) admObs {
	if reg == nil {
		return admObs{}
	}
	sub := reg.Sub("shard." + strconv.Itoa(id))
	return admObs{
		shed: [numClasses]*obs.Counter{
			ClassBearer:  sub.Counter("admission.shed.bearer"),
			ClassAttach:  sub.Counter("admission.shed.attach"),
			ClassHandoff: sub.Counter("admission.shed.handoff"),
		},
		throttled:       sub.Counter("admission.throttled"),
		breakerState:    sub.Gauge("breaker.state"),
		breakerTrips:    sub.Counter("breaker.trips"),
		breakerFastFail: sub.Counter("breaker.fastfail"),
	}
}
