package ctrlproto

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
)

// scriptPlane is a ControlPlane that records the order path requests
// reach it and can hold one station's requests until released.
type scriptPlane struct {
	mu    sync.Mutex
	calls []PathRequest

	blockBS packet.BSID   // requests for this station wait on release
	entered chan struct{} // signalled when a blocked request has arrived
	release chan struct{}
}

func (p *scriptPlane) RequestPath(bs packet.BSID, clause int) (packet.Tag, error) {
	p.mu.Lock()
	p.calls = append(p.calls, PathRequest{BS: bs, Clause: uint32(clause)})
	p.mu.Unlock()
	if p.release != nil && bs == p.blockBS {
		p.entered <- struct{}{}
		<-p.release
	}
	return packet.Tag(clause + 1), nil
}

func (p *scriptPlane) Attach(string, packet.BSID) (core.UE, []core.Classifier, error) {
	return core.UE{}, nil, nil
}
func (p *scriptPlane) Handoff(string, packet.BSID) (core.HandoffResult, error) {
	return core.HandoffResult{}, nil
}
func (p *scriptPlane) ResolveLocIP(packet.Addr) (packet.Addr, error)     { return 0, nil }
func (p *scriptPlane) RecoverLocations([]core.AgentLocationReport) error { return nil }

// rawPair serves one end of a net.Pipe and hands the test the other end
// bare, so the test controls exactly which bytes each transport write
// carries.
func rawPair(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(a)
	}()
	t.Cleanup(func() {
		_ = b.Close()
		<-done
	})
	return b
}

// writeAsync writes p from its own goroutine (a net.Pipe write returns
// only once the peer has read everything) and reports the result on the
// returned channel.
func writeAsync(w net.Conn, p []byte) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := w.Write(p)
		errc <- err
	}()
	return errc
}

// TestPipelinedBurstServedInOrder: n requests arriving in one transport
// read reach the control plane in send order, are answered in send order,
// and leave in a single group-commit write.
func TestPipelinedBurstServedInOrder(t *testing.T) {
	const n = 16
	reg := obs.New()
	plane := &scriptPlane{}
	srv := NewServer(plane)
	srv.Instrument(reg)
	raw := rawPair(t, srv)

	var burst []byte
	for i := 0; i < n; i++ {
		var err error
		burst, err = appendFrame(burst, frame{typ: MsgPathRequest, reqID: uint32(100 + i),
			payload: PathRequest{BS: 7, Clause: uint32(i)}.appendTo(nil)})
		if err != nil {
			t.Fatal(err)
		}
	}
	wrote := writeAsync(raw, burst)
	for i := 0; i < n; i++ {
		f, err := readFrame(raw)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		rep, err := parsePathReply(f.payload)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !f.resp || f.reqID != uint32(100+i) || rep.Tag != packet.Tag(i+1) {
			t.Fatalf("reply %d = id %d tag %d resp %v, want id %d tag %d", i, f.reqID, rep.Tag, f.resp, 100+i, i+1)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	plane.mu.Lock()
	defer plane.mu.Unlock()
	if len(plane.calls) != n {
		t.Fatalf("control plane saw %d requests, want %d", len(plane.calls), n)
	}
	for i, c := range plane.calls {
		if c.Clause != uint32(i) {
			t.Fatalf("control plane call %d was clause %d: served out of order", i, c.Clause)
		}
	}
	// The server read the whole burst before any reply could leave (the
	// test had not started reading), so all n replies share one flush.
	h := reg.Histogram("wire.flush.frames", 1, 2, 4, 8, 16, 32, 64)
	var flushes uint64
	for _, c := range h.Counts() {
		flushes += c
	}
	if flushes != 1 || h.Sum() != n {
		t.Fatalf("burst of %d left in %d flushes carrying %d frames, want 1 flush of %d", n, flushes, h.Sum(), n)
	}
}

// TestBlockedHandlerDoesNotDelayOtherConnection: serving is serial per
// connection, parallel across connections.
func TestBlockedHandlerDoesNotDelayOtherConnection(t *testing.T) {
	plane := &scriptPlane{blockBS: 1, entered: make(chan struct{}), release: make(chan struct{})}
	srv := NewServer(plane)
	connA := pipePair(t, srv)
	connB := pipePair(t, srv)

	held := make(chan error, 1)
	go func() {
		_, err := connA.RequestPath(1, 0)
		held <- err
	}()
	<-plane.entered // A's read loop is now inside the handler

	if tag, err := connB.RequestPath(2, 4); err != nil || tag != 5 {
		t.Fatalf("round trip on B while A is blocked: tag %d, %v", tag, err)
	}
	select {
	case err := <-held:
		t.Fatalf("blocked request on A returned early: %v", err)
	default:
	}
	close(plane.release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestSplitFrameFlushesBeforeBlocking: a transport write ending mid-frame
// leaves the read loop about to block on the rest; the replies it has
// already buffered must leave first, and the split frame is served once
// its second half arrives.
func TestSplitFrameFlushesBeforeBlocking(t *testing.T) {
	srv := NewServer(&scriptPlane{})
	raw := rawPair(t, srv)

	first, err := appendFrame(nil, frame{typ: MsgEcho, reqID: 1, payload: []byte("whole")})
	if err != nil {
		t.Fatal(err)
	}
	second, err := appendFrame(nil, frame{typ: MsgEcho, reqID: 2, payload: []byte("split in two")})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(second) / 2

	wrote := writeAsync(raw, append(first, second[:cut]...))
	// Nothing more is sent until reply 1 has been read: it can only
	// arrive if the loop flushed before waiting for the rest of frame 2.
	f, err := readFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.reqID != 1 || string(f.payload) != "whole" {
		t.Fatalf("first reply = id %d %q", f.reqID, f.payload)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	wrote = writeAsync(raw, second[cut:])
	f, err = readFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.reqID != 2 || string(f.payload) != "split in two" {
		t.Fatalf("second reply = id %d %q", f.reqID, f.payload)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

// TestServeLeavesNoGoroutines: once its connections and its listener are
// closed, Serve returns and nothing it (or the clients) started is left
// running.
func TestServeLeavesNoGoroutines(t *testing.T) {
	const conns = 8
	baseline := runtime.NumGoroutine()

	srv := NewServer(&scriptPlane{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	clients := make([]*Client, conns)
	for i := range clients {
		cl, err := Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
		if err := cl.Hello(packet.BSID(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.RequestPath(packet.BSID(i), i); err != nil {
			t.Fatal(err)
		}
	}
	for _, cl := range clients {
		_ = cl.Close()
	}
	_ = ln.Close()
	select {
	case <-served: // Serve waits for every connection goroutine it started
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its listener and connections closed")
	}
	// The client read loops have no join point; they exit on their own
	// once the closed socket fails their read.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines running, %d before the test:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRequestsCrossInBothDirections: agent requests and controller
// location queries in flight on one TCP connection at the same time, so
// both read loops are answering while the other side is asking. (This
// needs a buffering transport; see readLoop.)
func TestRequestsCrossInBothDirections(t *testing.T) {
	srv := NewServer(&scriptPlane{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = srv.Serve(ln) }()
	cl, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Hello(1); err != nil {
		t.Fatal(err)
	}

	asked := make(chan error, 1)
	go func() {
		for i := 0; i < 2000; i++ {
			if _, err := cl.Echo([]byte("x")); err != nil {
				asked <- err
				return
			}
		}
		asked <- nil
	}()
	for queries := 0; ; queries++ {
		select {
		case err := <-asked:
			if err != nil {
				t.Fatal(err)
			}
			if queries == 0 {
				t.Fatal("no location query overlapped the requests")
			}
			return
		default:
		}
		if n, err := srv.QueryLocations(); err != nil || n != 1 {
			t.Fatalf("location query answered by %d agents: %v", n, err)
		}
	}
}
