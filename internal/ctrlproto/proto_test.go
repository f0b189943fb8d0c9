package ctrlproto

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

func TestFrameRoundTrip(t *testing.T) {
	f := func(typ uint8, resp bool, reqID uint32, payload []byte) bool {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		in := frame{typ: MsgType(typ), resp: resp, reqID: reqID, payload: payload}
		if err := writeFrame(&buf, in); err != nil {
			return false
		}
		out, err := readFrame(&buf)
		if err != nil {
			return false
		}
		return out.typ == in.typ && out.resp == in.resp && out.reqID == in.reqID &&
			bytes.Equal(out.payload, in.payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRejectsBadLength(t *testing.T) {
	// Length below the header minimum.
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 2, 0, 0})); err == nil {
		t.Fatal("short frame accepted")
	}
	// Length above the cap.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated stream.
	var buf bytes.Buffer
	_ = writeFrame(&buf, frame{typ: MsgEcho, payload: []byte("abc")})
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := readFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestPathMessagesRoundTrip(t *testing.T) {
	req := PathRequest{BS: 77, Clause: 5}
	got, err := parsePathRequest(req.appendTo(nil))
	if err != nil || got != req {
		t.Fatalf("request: %+v %v", got, err)
	}
	rep := PathReply{Tag: 1234}
	gotR, err := parsePathReply(rep.appendTo(nil))
	if err != nil || gotR != rep {
		t.Fatalf("reply: %+v %v", gotR, err)
	}
	if _, err := parsePathRequest([]byte{1}); err == nil {
		t.Fatal("short request accepted")
	}
	if _, err := parsePathReply([]byte{1}); err == nil {
		t.Fatal("short reply accepted")
	}
}

// lineController builds a minimal controller for protocol tests.
func lineController(t *testing.T) *core.Controller {
	t.Helper()
	tp := topo.New()
	gw := tp.AddNode(topo.Gateway, "gw")
	c1 := tp.AddNode(topo.Core, "c1")
	as := tp.AddNode(topo.Access, "as")
	_ = tp.Connect(gw, c1)
	_ = tp.Connect(c1, as)
	_ = tp.AddBaseStation(0, as)
	if _, err := tp.AttachMiddlebox(0, c1); err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewController(tp, core.ControllerConfig{
		Gateway: gw,
		Policy:  policy.ExampleCarrierPolicy(),
		MBTypes: map[string]topo.MBType{
			policy.MBFirewall: 0, policy.MBTranscoder: 0, policy.MBEchoCancel: 0,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// pipePair wires a client to a server over net.Pipe.
func pipePair(t *testing.T, srv *Server) *Client {
	t.Helper()
	a, b := net.Pipe()
	go srv.ServeConn(a)
	cl := NewClient(b)
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

func TestClientServerPathRequest(t *testing.T) {
	ctrl := lineController(t)
	srv := NewServer(ctrl)
	cl := pipePair(t, srv)

	if err := cl.Hello(0); err != nil {
		t.Fatal(err)
	}
	_ = ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, cls, err := cl.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ue.IMSI != "a" || ue.LocIP == 0 || len(cls) == 0 {
		t.Fatalf("attach reply: %+v cls=%d", ue, len(cls))
	}
	clause, _ := ctrl.Policy.Match(ue.Attr, policy.AppWeb)
	tag, err := cl.RequestPath(0, clause)
	if err != nil {
		t.Fatal(err)
	}
	if tag == 0 {
		t.Fatal("no tag")
	}
	tag2, err := cl.RequestPath(0, clause)
	if err != nil || tag2 != tag {
		t.Fatalf("repeat request: %d %v", tag2, err)
	}
	if n := srv.Requests.Load(); n != 2 {
		t.Fatalf("server requests = %d", n)
	}
}

func TestClientServerErrors(t *testing.T) {
	ctrl := lineController(t)
	srv := NewServer(ctrl)
	cl := pipePair(t, srv)
	if _, err := cl.RequestPath(0, 999); err == nil {
		t.Fatal("unknown clause should propagate an error")
	}
	if _, _, err := cl.Attach("ghost", 0); err == nil {
		t.Fatal("unknown subscriber should propagate")
	}
	// The connection survives errors.
	if _, err := cl.Echo([]byte("still alive")); err != nil {
		t.Fatal(err)
	}
}

// refusingPlane refuses every attach and handoff with err.
type refusingPlane struct {
	*constPlane
	err error
}

func (p refusingPlane) Attach(string, packet.BSID) (core.UE, []core.Classifier, error) {
	return core.UE{}, nil, p.err
}

func (p refusingPlane) Handoff(string, packet.BSID) (core.HandoffResult, error) {
	return core.HandoffResult{}, p.err
}

// wireSentinels are the refusals a requester tells apart with errors.Is.
var wireSentinels = []error{core.ErrNotAttached, core.ErrNotOwned, core.ErrPermPoolExhausted}

// TestRefusalsKeepTheirIdentityOnTheWire pins that an attach or handoff
// refused with one of core's sentinels is still that sentinel, and no
// other, to errors.Is on the far side of the wire, over net.Pipe and TCP.
func TestRefusalsKeepTheirIdentityOnTheWire(t *testing.T) {
	for _, tr := range []struct {
		name string
		pair func(*testing.T, *Server) *Client
	}{{"pipe", pipePair}, {"tcp", tcpPair}} {
		for _, sentinel := range wireSentinels {
			refusal := fmt.Errorf("core: UE %q: %w", "x", sentinel)
			cl := tr.pair(t, NewServer(refusingPlane{newConstPlane(), refusal}))
			_, _, aerr := cl.Attach("x", 1)
			_, herr := cl.Handoff("x", 2)
			for op, err := range map[string]error{"attach": aerr, "handoff": herr} {
				if err == nil || !strings.Contains(err.Error(), refusal.Error()) {
					t.Fatalf("%s %s: err = %v, want the text of %q", tr.name, op, err, refusal)
				}
				for _, s := range wireSentinels {
					if got := errors.Is(err, s); got != (s == sentinel) {
						t.Errorf("%s %s refused with %q: errors.Is(err, %q) = %v", tr.name, op, sentinel, s, got)
					}
				}
			}
		}
	}
}

// TestUnknownErrorCodeIsPlain pins that a code the sentinel table does not
// list decodes as a plain remote error carrying the peer's text.
func TestUnknownErrorCodeIsPlain(t *testing.T) {
	for _, code := range []uint8{0, uint8(len(errorCodes)), 255} {
		err := decodeRemoteError(append([]byte{code}, "refused"...))
		if err == nil || err.Error() != "ctrlproto: remote error: refused" {
			t.Fatalf("code %d: err = %v", code, err)
		}
		for _, s := range wireSentinels {
			if errors.Is(err, s) {
				t.Errorf("code %d decodes as %q", code, s)
			}
		}
	}
	if err := decodeRemoteError(nil); err == nil {
		t.Fatal("an empty error payload decoded")
	}
}

func TestEcho(t *testing.T) {
	srv := NewServer(lineController(t))
	cl := pipePair(t, srv)
	got, err := cl.Echo([]byte("ping"))
	if err != nil || string(got) != "ping" {
		t.Fatalf("echo = %q %v", got, err)
	}
}

func TestHandoffOverWire(t *testing.T) {
	// Two-station line so a handoff is possible.
	tp := topo.New()
	gw := tp.AddNode(topo.Gateway, "gw")
	c1 := tp.AddNode(topo.Core, "c1")
	as0 := tp.AddNode(topo.Access, "as0")
	as1 := tp.AddNode(topo.Access, "as1")
	_ = tp.Connect(gw, c1)
	_ = tp.Connect(c1, as0)
	_ = tp.Connect(c1, as1)
	_ = tp.AddBaseStation(0, as0)
	_ = tp.AddBaseStation(1, as1)
	_, _ = tp.AttachMiddlebox(0, c1)
	ctrl, err := core.NewController(tp, core.ControllerConfig{
		Gateway: gw, Policy: policy.ExampleCarrierPolicy(),
		MBTypes: map[string]topo.MBType{policy.MBFirewall: 0, policy.MBTranscoder: 0, policy.MBEchoCancel: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctrl)
	cl := pipePair(t, srv)
	_ = ctrl.RegisterSubscriber("m", policy.Attributes{Provider: "A"})
	if _, _, err := cl.Attach("m", 0); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Handoff("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.UE.BS != 1 || res.OldBS != 0 {
		t.Fatalf("handoff result: %+v", res)
	}
}

func TestLocationQueryRecovery(t *testing.T) {
	ctrl := lineController(t)
	srv := NewServer(ctrl)
	cl := pipePair(t, srv)
	_ = ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _, err := cl.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	cl.Reporter = func() core.AgentLocationReport {
		return core.AgentLocationReport{BS: 0, UEs: []core.UE{ue}}
	}
	// Failover wipes and recovers via the wire.
	if _, err := ctrl.Store.Failover(); err != nil {
		t.Fatal(err)
	}
	n, err := srv.QueryLocations()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("agents answered = %d", n)
	}
	got, ok := ctrl.LookupUE("a")
	if !ok || got.LocIP != ue.LocIP {
		t.Fatalf("recovered UE = %+v %v", got, ok)
	}
}

func TestConcurrentClients(t *testing.T) {
	ctrl := lineController(t)
	srv := NewServer(ctrl)
	_ = ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _, _ := ctrl.Attach("a", 0)
	clause, _ := ctrl.Policy.Match(ue.Attr, policy.AppWeb)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		cl := pipePair(t, srv)
		wg.Add(1)
		go func(cl *Client) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := cl.RequestPath(0, clause); err != nil {
					t.Errorf("request: %v", err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	if n := srv.Requests.Load(); n != 200 {
		t.Fatalf("requests = %d, want 200", n)
	}
}

func TestTCPTransport(t *testing.T) {
	ctrl := lineController(t)
	srv := NewServer(ctrl)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer ln.Close()

	cl, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Echo([]byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	_ = ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _, err := cl.Attach("a", 0)
	if err != nil || ue.LocIP == 0 {
		t.Fatalf("attach over tcp: %+v %v", ue, err)
	}
	_ = packet.BSID(0)
}

func TestClosedConnectionFailsRequests(t *testing.T) {
	srv := NewServer(lineController(t))
	cl := pipePair(t, srv)
	_ = cl.Close()
	if _, err := cl.Echo([]byte("x")); err == nil {
		t.Fatal("request on closed connection should fail")
	}
}

func TestResolveLocIPOverWire(t *testing.T) {
	ctrl := lineController(t)
	srv := NewServer(ctrl)
	cl := pipePair(t, srv)
	_ = ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _, err := cl.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := cl.ResolveLocIP(ue.PermIP)
	if err != nil {
		t.Fatal(err)
	}
	if loc != ue.LocIP {
		t.Fatalf("resolved %s, want %s", loc, ue.LocIP)
	}
	if _, err := cl.ResolveLocIP(packet.AddrFrom4(9, 9, 9, 9)); err == nil {
		t.Fatal("unknown permanent IP should fail")
	}
}
