package ctrlproto

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/packet"

	"repro/internal/core"
	"repro/internal/policy"
)

// tracedPlane wraps a controller and records the span context the
// server hands it, standing in for the span-aware shard dispatcher.
type tracedPlane struct {
	*core.Controller
	gotPath    obs.SpanContext
	gotHandoff obs.SpanContext
	gotAttach  obs.SpanContext
}

func (p *tracedPlane) RequestPathCtx(sc obs.SpanContext, bs packet.BSID, clause int) (packet.Tag, error) {
	p.gotPath = sc
	return p.Controller.RequestPath(bs, clause)
}

func (p *tracedPlane) HandoffCtx(sc obs.SpanContext, imsi string, newBS packet.BSID) (core.HandoffResult, error) {
	p.gotHandoff = sc
	return p.Controller.Handoff(imsi, newBS)
}

func (p *tracedPlane) AttachCtx(sc obs.SpanContext, imsi string, bs packet.BSID) (core.UE, []core.Classifier, error) {
	p.gotAttach = sc
	return p.Controller.Attach(imsi, bs)
}

// TestSpanContextOverWire proves end-to-end propagation: a trace rooted
// on the client side rides the frame's span-context header, the server
// opens a wire.serve child under it and forwards the context to a
// TracedControlPlane, and the registry ends up holding the client rtt
// span, the serve span and at least one flush span — all on one trace.
func TestSpanContextOverWire(t *testing.T) {
	reg := obs.New()
	reg.SetSpanSampling(1)
	root := reg.SpanName("test.wire.op")

	ctrl := lineController(t)
	plane := &tracedPlane{Controller: ctrl}
	srv := NewServer(plane)
	srv.Instrument(reg)
	cl := pipePair(t, srv)
	cl.Instrument(reg)

	_ = ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	sp := root.Root()
	if !sp.Context().Sampled() {
		t.Fatal("sampling 1 must trace the first op")
	}
	ue, _, err := cl.AttachCtx(sp.Context(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	clause, _ := ctrl.Policy.Match(ue.Attr, policy.AppWeb)
	if _, err := cl.RequestPathCtx(sp.Context(), 0, clause); err != nil {
		t.Fatal(err)
	}
	sp.End()

	want := sp.Context().Trace
	if plane.gotAttach.Trace != want || plane.gotPath.Trace != want {
		t.Fatalf("control plane saw traces attach=%d path=%d, want %d",
			plane.gotAttach.Trace, plane.gotPath.Trace, want)
	}
	// The forwarded context is the serve span, not the raw client span:
	// controller child spans must nest under the wire.serve section.
	if plane.gotPath.Span == sp.Context().Span {
		t.Fatal("server forwarded the client span, not its serve span")
	}

	byName := map[string]int{}
	for _, rec := range reg.SpanRecords() {
		if rec.Trace == want {
			byName[rec.Name]++
		}
	}
	if byName["wire.rtt"] != 2 || byName["wire.serve"] != 2 {
		t.Fatalf("span tree missing wire sections: %v", byName)
	}
	if byName["wire.flush"] == 0 {
		t.Fatalf("no flush span recorded: %v", byName)
	}
	if byName["test.wire.op"] != 1 {
		t.Fatalf("root span missing: %v", byName)
	}
}

// TestUntracedRequestsCarryNoContext pins the steady state: without a
// sampled root, frames stay untraced and the control plane sees the
// zero context.
func TestUntracedRequestsCarryNoContext(t *testing.T) {
	reg := obs.New()
	reg.SetSpanSampling(0)
	ctrl := lineController(t)
	plane := &tracedPlane{Controller: ctrl}
	srv := NewServer(plane)
	srv.Instrument(reg)
	cl := pipePair(t, srv)
	cl.Instrument(reg)

	_ = ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	if _, _, err := cl.Attach("a", 0); err != nil {
		t.Fatal(err)
	}
	if plane.gotAttach.Sampled() {
		t.Fatalf("untraced request delivered context %+v", plane.gotAttach)
	}
	if n := len(reg.SpanRecords()); n != 0 {
		t.Fatalf("%d spans recorded with tracing disabled", n)
	}
}
