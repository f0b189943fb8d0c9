package core

import (
	"repro/internal/obs"
)

// coreObs bundles the controller's observability handles. With no
// registry configured every handle is nil, and obs methods on nil
// handles are no-ops — the fast path stays branch-light and allocation
// free either way (BenchmarkRequestPath pins this with instrumentation
// enabled).
type coreObs struct {
	reg *obs.Registry

	// Tag-cache effectiveness on the RequestPath fast path.
	cacheHit  *obs.Counter
	cacheMiss *obs.Counter

	// Algorithm 1 rule placement: TCAM entries actually installed vs the
	// entries multi-dimensional aggregation avoided (§4.3's saving).
	rulesAdded *obs.Counter
	rulesSaved *obs.Counter

	// Sampled ruleMu acquisition wait — lock-domain contention on the
	// install path (one in eight slow requests measures).
	ruleWait *obs.Histogram

	// Memory-layout gauges (DESIGN.md §14), refreshed by each
	// Controller.MemStats call.
	memAttached  *obs.Gauge
	memSlabBytes *obs.Gauge
	memFreeSlots *obs.Gauge
	memAttrs     *obs.Gauge

	// Trace events: path install, tag publish/evict, handoff phases. An
	// evict reports the served tags a rebuild did not carry over
	// (RemovePolicyPaths, failure recomputation); its bs is always -1.
	evInstall  *obs.EventType
	evTagPub   *obs.EventType
	evTagEvict *obs.EventType
	evHandoff  *obs.EventType
	evRelease  *obs.EventType

	// Span sections (DESIGN.md §16): recorded only for requests whose
	// incoming context is sampled, one child per lock domain so the
	// critical-path waterfall attributes wait + hold time to the lock that
	// caused it.
	spPath        *obs.SpanName // whole RequestPathCtx resolution
	spPathRule    *obs.SpanName // ruleMu wait + hold on the install path
	spAttach      *obs.SpanName // ueMu-held admission
	spHandoff     *obs.SpanName // ueMu-held move
	spHandoffRule *obs.SpanName // ruleMu retarget section of a handoff
}

// boolInt renders a bool as a trace-event argument.
func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ruleWaitSampleEvery is the slow-path sampling stride for the ruleMu
// wait histogram: cheap enough to leave always-on, frequent enough to
// surface contention.
const ruleWaitSampleEvery = 8

// newCoreObs registers the controller's metrics. Registration is
// get-or-create, so several controllers sharing one registry (or a
// registry Sub view per shard) coexist; per-shard distinction comes from
// the caller passing a Sub-scoped registry.
func newCoreObs(reg *obs.Registry) coreObs {
	if reg == nil {
		return coreObs{}
	}
	reg.Doc("core.tagcache.hit", "RequestPath answered from the lock-free tag cache")
	reg.Doc("core.tagcache.miss", "RequestPath that fell through to the install slow path")
	reg.Doc("core.rules.added", "TCAM entries installed by Algorithm 1 placement")
	reg.Doc("core.rules.saved", "TCAM entries avoided by multi-dimensional aggregation")
	reg.Doc("core.lock.rule_wait_ns", "Sampled ruleMu acquisition wait on the install path")
	return coreObs{
		reg:        reg,
		cacheHit:   reg.Counter("core.tagcache.hit"),
		cacheMiss:  reg.Counter("core.tagcache.miss"),
		rulesAdded: reg.Counter("core.rules.added"),
		rulesSaved: reg.Counter("core.rules.saved"),
		ruleWait: reg.Histogram("core.lock.rule_wait_ns",
			1000, 10000, 100000, 1000000, 10000000),
		memAttached:  reg.Gauge("core.mem.attached"),
		memSlabBytes: reg.Gauge("core.mem.table_bytes"),
		memFreeSlots: reg.Gauge("core.mem.free_slots"),
		memAttrs:     reg.Gauge("core.mem.interned_attrs"),
		evInstall:    reg.EventType("core.path.install", "bs", "clause", "tag", "rules"),
		evTagPub:     reg.EventType("core.tag.publish", "bs", "clause", "tag"),
		evTagEvict:   reg.EventType("core.tag.evict", "bs", "dropped"),
		evHandoff:    reg.EventType("core.handoff.move", "old_bs", "new_bs", "shortcuts"),
		evRelease:    reg.EventType("core.handoff.release", "loc", "reserved"),

		spPath:        reg.SpanName("core.path"),
		spPathRule:    reg.SpanName("core.lock.rule"),
		spAttach:      reg.SpanName("core.attach"),
		spHandoff:     reg.SpanName("core.handoff"),
		spHandoffRule: reg.SpanName("core.handoff.rule"),
	}
}
