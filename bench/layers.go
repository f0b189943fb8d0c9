package main

// The per-layer side of the benchmark: the per-layer metric catalogue and
// the traced run that produces it. Layers are the internal/ package names.
// README.md has the table of which end-to-end metric each layer metric
// should move, on which workload.

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/obs"
)

// layerMetrics is the per-layer catalogue. All timings are taken from
// outside the layer, as medians over many calls (probes.go); *count* and
// ratio entries come from the traced rounds themselves.
var layerMetrics = []metricDoc{
	{"workload.gen_us_per_simsec", "us", "lower", 0},
	{"topo.generate_ms", "ms", "lower", 0},
	{"routing.plan_us", "us", "lower", 0},
	{"policy.compile_us", "us", "lower", 0},
	{"policy.match_ns", "ns", "lower", 0},

	{"core.request_path_hit_ns", "ns", "lower", 0},
	{"core.request_path_miss_us", "us", "lower", 0},
	{"core.attach_us", "us", "lower", 0},
	{"core.handoff_us", "us", "lower", 0},
	{"core.detach_us", "us", "lower", 0},
	{"core.register_us", "us", "lower", 0},
	{"core.agent_view_us", "us", "lower", 0},
	{"core.tagcache_hit_ratio", "ratio", "higher", 0},
	{"core.rules_added", "count", "lower", 0},
	{"core.rules_saved", "count", "higher", 0},
	{"core.rule_table_median", "count", "lower", 0},
	{"core.table_bytes_per_subscriber", "B", "lower", 0},

	{"store.put_us", "us", "lower", 0},
	{"store.get_ns", "ns", "lower", 0},

	{"shard.request_path_us", "us", "lower", 0},
	{"shard.queue_overhead_us", "us", "lower", 0},
	{"shard.attach_us", "us", "lower", 0},
	{"shard.handoff_local_us", "us", "lower", 0},
	{"shard.handoff_cross_us", "us", "lower", 0},
	{"shard.detach_us", "us", "lower", 0},
	{"shard.register_us", "us", "lower", 0},
	{"shard.agent_view_us", "us", "lower", 0},
	{"shard.cross_handoff_share", "ratio", "lower", 0},
	{"shard.refused", "count", "lower", 0},
	{"shard.served_imbalance", "ratio", "lower", 0},

	{"ctrlproto.echo_rtt_us", "us", "lower", 0},
	{"ctrlproto.path_rtt_us", "us", "lower", 0},
	{"ctrlproto.wire_self_us", "us", "lower", 0},
	{"ctrlproto.allocs_per_req", "count", "lower", 0},
	{"ctrlproto.bytes_per_req", "B", "lower", 0},
	{"ctrlproto.writes_per_req", "ratio", "lower", 0},
	{"ctrlproto.push_snapshot_us", "us", "lower", 0},
	{"ctrlproto.errors", "count", "lower", 0},

	{"agent.classify_ns", "ns", "lower", 0},
	{"agent.packet_in_hit_us", "us", "lower", 0},
	{"agent.packet_in_miss_us", "us", "lower", 0},
	{"agent.admit_us", "us", "lower", 0},
	{"agent.publish_us", "us", "lower", 0},
	{"agent.migrate_flows_us", "us", "lower", 0},
	{"agent.cache_hit_ratio", "ratio", "higher", 0},

	{"switchsim.process_ns", "ns", "lower", 0},
	{"switchsim.install_ns", "ns", "lower", 0},

	{"dataplane.single_up_ns_per_pkt", "ns", "lower", 0},
	{"dataplane.down_ns_per_pkt", "ns", "lower", 0},
	{"dataplane.sync_us", "us", "lower", 0},
	{"dataplane.attach_us", "us", "lower", 0},
	{"dataplane.handoff_us", "us", "lower", 0},
	{"dataplane.allocs_per_pkt", "count", "lower", 0},
	{"dataplane.slow_share", "ratio", "lower", 0},
	{"dataplane.hops_per_pkt", "count", "lower", 0},
	{"dataplane.up_pkts_per_s", "1/s", "higher", 0},
	{"dataplane.down_pkts_per_s", "1/s", "higher", 0},

	{"fastpath.burst1_ns_per_pkt", "ns", "lower", 0},
	{"fastpath.burst32_ns_per_pkt", "ns", "lower", 0},
	{"fastpath.burst128_ns_per_pkt", "ns", "lower", 0},
	{"fastpath.burst1_vs_single", "ratio", "lower", 0},
	{"fastpath.compile_us", "us", "lower", 0},
	{"fastpath.warm_us", "us", "lower", 0},

	{"mbox.firewall_ns", "ns", "lower", 0},
	{"mbox.transcoder_ns", "ns", "lower", 0},
	{"mbox.violations", "count", "lower", 0},
	{"mbox.old_flow_bypasses", "count", "lower", 0},

	{"packet.marshal_ns", "ns", "lower", 0},
	{"packet.unmarshal_ns", "ns", "lower", 0},

	{"obs.trace_overhead_pct", "%", "lower", 0},
}

var allPerLayer = append(append([]metricDoc{}, layerMetrics...), demotedP99...)

func perLayerDocs() []metricDoc { return allPerLayer }

// Span log layout of a traced run: one log per generator, then the wire
// decorator's server-side log per generator, then the server side of the
// probes' stand-in wire.
const (
	logServerSide = wireMaxConns * wireSlotsPerConn
	logProbeSrv   = 2 * logServerSide
	traceLogs     = logProbeSrv + 1
	tracedRounds  = 2
)

// layerInputs is what a workload hands the per-layer stage after its traced
// rounds: the warm plant pieces it has (probes run on them; the pieces it
// lacks are built as standard small plants) and the per-layer values only
// the workload itself can know.
type layerInputs struct {
	ctrl   *ctrlPlant
	wire   *wirePlant
	deco   *tracedControlPlane
	net    *netPlant
	flows  [][]flow // established middlebox-free flows per station on net
	k, c   int      // the workload's topology shape
	values map[string]float64
}

// runTraced produces one workload's per-layer metrics: set-up, warm-up,
// tracedRounds untraced rounds alternating with as many rounds in which
// every op and every call into a layer is recorded as a span, the
// correctness gate, the span ledger, then the isolated per-layer probes on
// the warm plant.
func runTraced(name string, cfg runConfig) (*result, error) {
	res := newResult(name, cfg)
	reg := obs.New()
	tr := newTracer(traceLogs)
	w, err := newWorkload(name, cfg, reg, tr)
	if err != nil {
		return nil, err
	}
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	defer w.close()
	if _, err := w.round(true); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	for _, r := range w.recorders() {
		r.reset()
	}
	// Untraced and traced rounds alternate, so a drift of the host's speed
	// does not read as tracing overhead.
	base := reg.Snapshot()
	var total, tt tally // all rounds; the traced rounds
	var plain, traced []float64
	for i := 0; i < 2*tracedRounds; i++ {
		on := i%2 == 1
		tr.on.Store(on)
		rs, err := w.round(false)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d (traced=%v): %w", name, i+1, on, err)
		}
		total.add(&rs.tally)
		rate := float64(rs.bulkOps) / (float64(rs.bulkNS) / 1e9)
		if on {
			tt.add(&rs.tally)
			traced = append(traced, rate)
		} else {
			plain = append(plain, rate)
		}
	}
	tr.on.Store(false)
	if err := w.verify(); err != nil {
		return nil, fmt.Errorf("%s: correctness gate: %w", name, err)
	}
	res.Attempted, res.Failed, res.Correct = total.attempted(), total.failed, true

	led := tr.fold()
	if led.SelfSumNS != led.RootNS {
		return nil, fmt.Errorf("%s: span ledger does not add up: self times %d ns, op roots %d ns", name, led.SelfSumNS, led.RootNS)
	}
	res.Ledger = led.String()

	in := w.layerInputs()
	v := in.values
	v["obs.trace_overhead_pct"] = 100 * (median(plain) - median(traced)) / median(plain)
	res.Rounds["obs.trace_overhead_pct"] = append(append([]float64{}, plain...), traced...)
	if tt.n[kUp] > 0 && tt.n[kDown] > 0 {
		v["dataplane.up_pkts_per_s"] = float64(tt.n[kUp]) / (float64(tt.ns[kUp]) / 1e9)
		v["dataplane.down_pkts_per_s"] = float64(tt.n[kDown]) / (float64(tt.ns[kDown]) / 1e9)
	}
	v["shard.refused"] = float64(total.refused)
	_, med := w.ruleTable()
	v["core.rule_table_median"] = float64(med)
	snap := reg.Snapshot()
	v["core.rules_added"] = sumCounters(snap, "core.rules.added")
	v["core.rules_saved"] = sumCounters(snap, "core.rules.saved")
	// Tag-cache effectiveness over the rounds only: set-up's warming is all
	// misses by construction.
	hit := sumCounters(snap, "core.tagcache.hit") - sumCounters(base, "core.tagcache.hit")
	miss := sumCounters(snap, "core.tagcache.miss") - sumCounters(base, "core.tagcache.miss")
	if hit+miss > 0 {
		v["core.tagcache_hit_ratio"] = hit / (hit + miss)
	}

	// The latency percentiles the untraced run reports, from the traced
	// run's own (reference + traced) rounds: the p99s are per-layer metrics.
	var lat [nLat]samples
	for _, r := range w.recorders() {
		for i := range lat {
			lat[i] = append(lat[i], r.lat[i]...)
		}
	}
	for i, n := range [nLat]string{mAttachP99, mHandoffP99, mFlowP99} {
		slices.Sort(lat[i])
		v[n] = lat[i].percentile(99) / 1e3
		res.Samples[n] = len(lat[i])
	}

	notes, err := runProbes(&in, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: per-layer probes: %w", name, err)
	}
	res.Notes = append(res.Notes, notes...)

	attr := obs.Attribute(reg.SpanRecords())
	path, written, err := tr.write(cfg.outDir, name, cfg.seed, led, &attr)
	if err != nil {
		return nil, fmt.Errorf("%s: span file: %w", name, err)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("span file: %s (%d of %d spans, whole traces; the ledger covers all of them)", path, written, led.Spans))
	for _, d := range perLayerDocs() {
		res.set(d.Name, v[d.Name])
	}
	return res, nil
}

// sumCounters adds every counter whose name is base or ends in "."+base
// (sharded plants register theirs under shard.<id>. sub-views).
func sumCounters(s obs.Snapshot, base string) float64 {
	var sum uint64
	for name, n := range s.Counters {
		if name == base || strings.HasSuffix(name, "."+base) {
			sum += n
		}
	}
	return float64(sum)
}
