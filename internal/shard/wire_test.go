package shard

import (
	"errors"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/policy"
)

// The sharded dispatcher is a drop-in control plane for the wire protocol.
var _ ctrlproto.ControlPlane = (*Dispatcher)(nil)

// TestDispatcherServesWireProtocol runs an agent conversation — attach,
// path request, cross-shard handoff, resolve — through ctrlproto framing
// against a sharded dispatcher instead of a bare controller.
func TestDispatcherServesWireProtocol(t *testing.T) {
	d, g := newTestDispatcher(t, 4)
	bsA, bsB := twoShardStations(t, d, g)
	if err := d.RegisterSubscriber("wired", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}

	srv := ctrlproto.NewServer(d)
	a, b := net.Pipe()
	go srv.ServeConn(a)
	cl := ctrlproto.NewClient(b)
	defer cl.Close()

	if err := cl.Hello(bsA); err != nil {
		t.Fatal(err)
	}
	ue, cls, err := cl.Attach("wired", bsA)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) == 0 {
		t.Fatal("attach over the wire returned no classifiers")
	}
	tag, err := cl.RequestPath(bsA, cls[0].Clause)
	if err != nil || tag == 0 {
		t.Fatalf("RequestPath over the wire = %d, %v", tag, err)
	}
	hr, err := cl.Handoff("wired", bsB)
	if err != nil {
		t.Fatalf("cross-shard handoff over the wire: %v", err)
	}
	if hr.UE.PermIP != ue.PermIP || hr.UE.BS != bsB {
		t.Fatalf("handoff reply %+v", hr.UE)
	}
	loc, err := cl.ResolveLocIP(ue.PermIP)
	if err != nil || loc != hr.UE.LocIP {
		t.Fatalf("ResolveLocIP over the wire = %s, %v; want %s", loc, err, hr.UE.LocIP)
	}
}

// TestShardDownSurvivesTheWire: a request a closed dispatcher refuses
// reaches an agent across TCP still carrying core.ErrShardDown, so the
// agent can tell a failover window from any other refusal.
func TestShardDownSurvivesTheWire(t *testing.T) {
	d, _ := newTestDispatcher(t, 2)
	clause := allowClauses(t, d)[0]
	d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- ctrlproto.NewServer(d).Serve(ln) }()
	cl, err := ctrlproto.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.RequestPath(0, clause)
	_ = cl.Close()
	_ = ln.Close()
	<-served
	if !errors.Is(err, core.ErrShardDown) {
		t.Fatalf("request to a closed dispatcher over TCP: %v, want core.ErrShardDown", err)
	}
}
