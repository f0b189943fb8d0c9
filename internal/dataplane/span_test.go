package dataplane

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// TestHandoffRecordsItsSpanTree samples one handoff and checks the tree it
// records: the controller's move, the agents' part and the resync under one
// dataplane.handoff root, with one splice span per switch whose FIB the
// handoff changed and one fast-path compile under the resync. With
// sampling off, a Sync with nothing to do still allocates nothing.
func TestHandoffRecordsItsSpanTree(t *testing.T) {
	fig := newFig3(t)
	reg := obs.New()
	reg.SetSpanSampling(0)
	net := netOnObs(t, fig.Topology, fig.gw, packet.Prefix{}, packet.Plan{}, reg)
	net.Instrument(reg)
	net.EnableFastPath(1)
	defer net.DisableFastPath()
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := net.SendUpstream(0, webPacket(ue, 40000)); err != nil || res.Disposition != ExitedNet {
		t.Fatalf("flow: %v %v", res.Disposition, err)
	}
	versions := make([]uint64, len(net.Switches))
	for i := range net.Switches {
		versions[i] = net.Ctrl.Installer.FIB(topo.NodeID(i)).Version()
	}

	reg.SetSpanSampling(1)
	if _, err := net.Handoff("a", 1); err != nil {
		t.Fatal(err)
	}
	reg.SetSpanSampling(0)
	changed := 0
	for i := range net.Switches {
		if net.Ctrl.Installer.FIB(topo.NodeID(i)).Version() != versions[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("the handoff changed no switch's FIB")
	}

	recs := reg.SpanRecords()
	names := make(map[obs.SpanID]string, len(recs))
	for _, r := range recs {
		names[r.Span] = r.Name
	}
	var got []string
	for _, r := range recs {
		if r.Trace != recs[0].Trace {
			t.Fatalf("the handoff recorded more than one trace:\n%s", reg.SpanJSON())
		}
		got = append(got, fmt.Sprintf("%s <- %s", r.Name, names[r.Parent]))
	}
	want := []string{
		"dataplane.handoff <- ",
		"core.handoff <- dataplane.handoff",
		"core.handoff.rule <- core.handoff",
		"dataplane.handoff.agents <- dataplane.handoff",
		"dataplane.sync <- dataplane.handoff",
		"dataplane.sync.compile <- dataplane.sync",
	}
	for range changed {
		want = append(want, "dataplane.sync.splice <- dataplane.sync")
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("span tree:\n%q\nwant:\n%q", got, want)
	}
	t.Logf("%d spans, %d splices", len(got), changed)
	if a := obs.Attribute(recs); a.Traces != 1 || a.Incomplete != 0 {
		t.Fatalf("attribution folded %d traces, %d incomplete", a.Traces, a.Incomplete)
	}

	if allocs := testing.AllocsPerRun(20, func() { _ = net.Sync() }); allocs != 0 {
		t.Fatalf("an unsampled Sync with nothing to do allocates %.1f objects", allocs)
	}
}
