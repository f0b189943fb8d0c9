package shard

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/topo"
)

// Both layers must satisfy the span-aware control-plane surface so a
// ctrlproto server can forward wire-decoded trace contexts into them.
var (
	_ ctrlproto.TracedControlPlane = (*Dispatcher)(nil)
	_ ctrlproto.TracedControlPlane = (*core.Controller)(nil)
)

// tracedOps builds a single-shard dispatcher with sampling 1 and a
// virtual clock, drives one attach, one path request, and one handoff,
// and returns the registry holding the recorded spans. Ops run strictly
// sequentially, so every clock read is totally ordered and two calls
// with the same seed topology produce identical span dumps.
func tracedOps(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.New()
	var tick atomic.Int64
	reg.SetClock(func() int64 { return tick.Add(1) })
	reg.SetSpanSampling(1)

	g, err := topo.Generate(topo.GenParams{K: 2, ClusterSize: 10, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Topology: g.Topology,
		Gateway:  g.GatewayID,
		Policy:   policy.ExampleCarrierPolicy(),
		MBTypes: map[string]topo.MBType{
			policy.MBFirewall: 0, policy.MBTranscoder: 1, policy.MBEchoCancel: 2,
		},
		Shards: 1,
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	if err := d.RegisterSubscriber("tracee", policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
		t.Fatal(err)
	}
	bsA, bsB := g.Stations[0].ID, g.Stations[1].ID
	if _, _, err := d.Attach("tracee", bsA); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RequestPath(bsA, allowClauses(t, d)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Handoff("tracee", bsB); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestSpanTreeEndToEnd drives sampled requests through the dispatcher
// and asserts the acceptance contract of DESIGN.md §16: every trace is
// complete (root present, no orphan parents), each layer shows up as a
// child segment under its shard root, and the per-segment self times
// sum exactly to the summed root durations — the waterfall accounts for
// every virtual nanosecond of end-to-end latency.
func TestSpanTreeEndToEnd(t *testing.T) {
	reg := tracedOps(t)
	recs := reg.SpanRecords()
	if len(recs) == 0 {
		t.Fatal("no spans recorded at sampling 1")
	}
	if n := reg.SpanDropped(); n != 0 {
		t.Fatalf("%d spans dropped in a sequential run", n)
	}

	a := obs.Attribute(recs)
	if a.Incomplete != 0 {
		t.Fatalf("%d incomplete traces, want 0:\n%s", a.Incomplete, reg.SpanJSON())
	}
	if a.Traces != 3 { // attach, path request, handoff — one root each
		t.Fatalf("attribution folded %d traces, want 3:\n%s", a.Traces, reg.SpanJSON())
	}
	if a.SelfSumNS != a.TotalNS {
		t.Fatalf("self times sum to %dns but roots total %dns — lost latency:\n%s",
			a.SelfSumNS, a.TotalNS, a.Waterfall())
	}

	segments := make(map[string]bool, len(a.Segments))
	for _, seg := range a.Segments {
		segments[seg.Name] = true
	}
	// Dispatcher roots plus the shared per-shard admission segment.
	for _, want := range []string{
		"shard.attach", "shard.path", "shard.handoff", "shard.admission",
	} {
		if !segments[want] {
			t.Errorf("segment %q missing from attribution:\n%s", want, a.Waterfall())
		}
	}
	// Controller children live under the per-shard Sub prefix; match by
	// suffix so the assertion holds for any shard id.
	for _, want := range []string{
		"core.attach", "core.path", "core.handoff", "core.handoff.rule",
	} {
		found := false
		for name := range segments {
			if strings.HasSuffix(name, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no segment ends in %q:\n%s", want, a.Waterfall())
		}
	}
}

// TestSpanDumpDeterministic runs the same traced schedule twice and
// requires byte-identical span dumps: IDs come from counters, times
// from the injected clock, and the dump is sorted and hand-encoded, so
// nothing about a same-seed rerun may differ.
func TestSpanDumpDeterministic(t *testing.T) {
	first := tracedOps(t).SpanJSON()
	second := tracedOps(t).SpanJSON()
	if !bytes.Equal(first, second) {
		t.Fatalf("same-seed span dumps differ:\nrun 1:\n%srun 2:\n%s", first, second)
	}
}
