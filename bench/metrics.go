package main

// The benchmark's catalogue: workload names and rationales, end-to-end
// metrics with direction and regression bound, per-layer metric names.
// BENCHMARK.json at the repo root is this catalogue rendered (-manifest);
// TestManifestMatchesCatalogue keeps the two identical.

import (
	"encoding/json"
	"math"
	"sort"
)

// Workload names.
const (
	wlCity    = "city_churn"
	wlWire    = "wire_storm"
	wlForward = "forward_plain"
	wlE2E     = "e2e_mobility"
)

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDocs = []workloadDoc{
	{wlCity, "The paper's 6.1 LTE event stream on a 384-station, 200k-subscriber sharded controller, in process: shard and core do all the work; wire, agent and data plane do none."},
	{wlWire, "Cbench (6.2) as agents reach the controller: tag-cache-hit requests over ctrlproto on loopback, so framing, group commit and the dispatcher hop are the whole cost."},
	{wlForward, "Steady forwarding of established middlebox-free flows: fast path, FIB snapshots and switchsim do all the work; control ops run only between forwarding rounds."},
	{wlE2E, "Attach, flow set-up, forwarding, handoff and detach interleaved on one plant with half the flows on the middlebox slow path: control writes beside data-plane reads."},
}

// metricDoc is one catalogue entry. Bound is 0 for per-layer metrics (they
// are never gated).
type metricDoc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// End-to-end metric names. Every workload reports every one of them (the
// driver's contract); README.md says what each means on each workload, and
// why the timing bounds are as wide as the contract allows.
const (
	mSetup       = "setup_s"
	mOps         = "ops_per_s"
	mAttachP50   = "attach_p50_us"
	mAttachP99   = "attach_p99_us"
	mHandoffP50  = "handoff_p50_us"
	mHandoffP99  = "handoff_p99_us"
	mFlowP50     = "flow_setup_p50_us"
	mFlowP99     = "flow_setup_p99_us"
	mBytesPerSub = "bytes_per_subscriber"
	mRuleMax     = "rule_table_max"
	mAllocs      = "allocs_per_op"
)

var endToEnd = []metricDoc{
	{mSetup, "s", "lower", 0.25},
	{mOps, "1/s", "higher", 0.25},
	{mAttachP50, "us", "lower", 0.25},
	{mHandoffP50, "us", "lower", 0.25},
	{mFlowP50, "us", "lower", 0.25},
	{mBytesPerSub, "B", "lower", 0.05},
	{mRuleMax, "count", "lower", 0.02},
	{mAllocs, "count", "lower", 0.10},
}

// demotedP99 are the end-to-end p99 latencies, reported (same names) in the
// per-layer list because they do not repeat within a tenth on a shared
// 2-core host; see README.md "Demoted p99".
var demotedP99 = []metricDoc{
	{mAttachP99, "us", "lower", 0},
	{mHandoffP99, "us", "lower", 0},
	{mFlowP99, "us", "lower", 0},
}

// manifest is BENCHMARK.json. Per-layer entries have no bound (it is zero,
// and omitted).
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDoc   `json:"end_to_end"`
	PerLayer   []metricDoc   `json:"per_layer"`
}

// runSeconds is the measured length of one driver run.
const runSeconds = 10

func buildManifest() manifest {
	return manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDocs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayerDocs(),
	}
}

func manifestJSON() []byte {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		panic("bench: manifest marshal: " + err.Error()) // scalars and slices only
	}
	return append(b, '\n')
}

// metricValue is one reported number in the driver's result form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// --- statistics helpers ---

func maxInt(v []int) int {
	m := 0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func medianInt(v []int) int {
	if len(v) == 0 {
		return 0
	}
	s := append([]int(nil), v...)
	sort.Ints(s)
	return s[len(s)/2]
}

// median of float64s (mean of the middle pair for even counts); 0 when
// empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// samples is a pooled latency sample set in nanoseconds.
type samples []int32

// percentile is the nearest-rank pick from an ascending-sorted pool; 0 when
// empty.
func (s samples) percentile(pct float64) float64 {
	if len(s) == 0 {
		return 0
	}
	idx := int(math.Ceil(pct/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(s[idx])
}

// nsSample clamps a duration into the sample type (a 2 s op would be a
// failure long before it overflowed).
func nsSample(d int64) int32 {
	if d > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(d)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
