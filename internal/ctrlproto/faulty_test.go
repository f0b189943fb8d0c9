package ctrlproto

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
)

// sinkConn is a net.Conn that records writes; reads block forever.
type sinkConn struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *sinkConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}
func (s *sinkConn) bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}
func (s *sinkConn) Read(p []byte) (int, error)         { select {} }
func (s *sinkConn) Close() error                       { return nil }
func (s *sinkConn) LocalAddr() net.Addr                { return nil }
func (s *sinkConn) RemoteAddr() net.Addr               { return nil }
func (s *sinkConn) SetDeadline(t time.Time) error      { return nil }
func (s *sinkConn) SetReadDeadline(t time.Time) error  { return nil }
func (s *sinkConn) SetWriteDeadline(t time.Time) error { return nil }

func mustFrame(t *testing.T, f frame) []byte {
	t.Helper()
	b, err := appendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFaultyConnMechanics drives the wrapper byte-for-byte: drop, duplicate,
// hold-then-release, and fragmented writes, asserting the exact stream the
// peer observes.
func TestFaultyConnMechanics(t *testing.T) {
	f1 := mustFrame(t, frame{typ: MsgEcho, reqID: 1, payload: []byte("one")})
	f2 := mustFrame(t, frame{typ: MsgEcho, reqID: 2, payload: []byte("two")})
	f3 := mustFrame(t, frame{typ: MsgEcho, reqID: 3, payload: []byte("three")})

	script := map[uint32]FaultAction{1: FaultHold, 2: FaultDrop, 3: FaultDuplicate}
	var infos []FrameInfo
	sink := &sinkConn{}
	fc := NewFaultyConn(sink, func(i FrameInfo) FaultAction {
		infos = append(infos, i)
		return script[i.ReqID]
	})

	// Fragmented write: frame 1 split mid-header, then the rest plus 2 and 3.
	if _, err := fc.Write(f1[:3]); err != nil {
		t.Fatal(err)
	}
	if got := sink.bytes(); len(got) != 0 {
		t.Fatalf("partial frame leaked %d bytes", len(got))
	}
	rest := append(append(append([]byte(nil), f1[3:]...), f2...), f3...)
	if n, err := fc.Write(rest); err != nil || n != len(rest) {
		t.Fatalf("write = %d %v", n, err)
	}

	// Frame 2 dropped; frame 3 delivered twice; held frame 1 released after.
	want := append(append(append([]byte(nil), f3...), f3...), f1...)
	if got := sink.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("stream = %x\nwant %x", got, want)
	}
	if len(infos) != 3 || infos[0].ReqID != 1 || infos[2].ReqID != 3 || infos[0].Type != MsgEcho || infos[0].Resp {
		t.Fatalf("decide saw %+v", infos)
	}
}

// TestFaultyConnPassthroughGarbage: bytes that do not frame must flow
// through rather than wedge the stream.
func TestFaultyConnPassthroughGarbage(t *testing.T) {
	sink := &sinkConn{}
	fc := NewFaultyConn(sink, func(FrameInfo) FaultAction { return FaultDrop })
	junk := []byte{0, 0, 0, 1, 'x'} // length 1 < minimum 6
	if _, err := fc.Write(junk); err != nil {
		t.Fatal(err)
	}
	if got := sink.bytes(); !bytes.Equal(got, junk) {
		t.Fatalf("garbage rewritten: %x", got)
	}
}

// faultyPair wires a client to a server through a FaultyConn on the
// client->server direction.
func faultyPair(t *testing.T, srv *Server, decide func(FrameInfo) FaultAction) *Client {
	t.Helper()
	a, b := net.Pipe()
	go srv.ServeConn(a)
	cl := NewClient(NewFaultyConn(b, decide))
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// TestFaultyDropTriggersRetry: the first transmission of each request is
// dropped; the client's retransmission (same request id) must complete it.
func TestFaultyDropTriggersRetry(t *testing.T) {
	srv := NewServer(lineController(t))
	sends := make(map[uint32]int)
	var mu sync.Mutex
	cl := faultyPair(t, srv, func(i FrameInfo) FaultAction {
		mu.Lock()
		defer mu.Unlock()
		sends[i.ReqID]++
		if sends[i.ReqID] == 1 {
			return FaultDrop
		}
		return FaultDeliver
	})
	cl.Timeout = 20 * time.Millisecond
	cl.Attempts = 10

	got, err := cl.Echo([]byte("lossy"))
	if err != nil || string(got) != "lossy" {
		t.Fatalf("echo over lossy link = %q %v", got, err)
	}
	mu.Lock()
	defer mu.Unlock()
	for id, n := range sends {
		if n < 2 {
			t.Fatalf("request %d sent %d times; the retry never fired", id, n)
		}
	}
}

// TestFaultyDuplicateIsCorrelatedAway: a duplicated request is processed
// twice by the server, but the client sees exactly one reply (the late
// duplicate's response targets an already-completed request id and is
// discarded by the read loop).
func TestFaultyDuplicateIsCorrelatedAway(t *testing.T) {
	ctrl := lineController(t)
	srv := NewServer(ctrl)
	cl := faultyPair(t, srv, func(i FrameInfo) FaultAction {
		if i.Type == MsgPathRequest {
			return FaultDuplicate
		}
		return FaultDeliver
	})
	_ = ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A"})
	ue, _, err := cl.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	clause, _ := ctrl.Policy.Match(ue.Attr, policy.AppWeb)
	tag, err := cl.RequestPath(0, clause)
	if err != nil || tag == 0 {
		t.Fatalf("path over duplicating link = %d %v", tag, err)
	}
	// Both copies reached the handler; memoisation makes them agree.
	waitFor(t, func() bool { return srv.Requests.Load() == 2 })
	// The connection is still usable: the duplicate reply did not desync it.
	if _, err := cl.Echo([]byte("after")); err != nil {
		t.Fatal(err)
	}
}

// TestFaultyReorderKeepsCorrelation: two concurrent requests with the first
// frame held until the second passes; each caller still gets its own answer.
func TestFaultyReorderKeepsCorrelation(t *testing.T) {
	srv := NewServer(lineController(t))
	var mu sync.Mutex
	held := false
	cl := faultyPair(t, srv, func(i FrameInfo) FaultAction {
		mu.Lock()
		defer mu.Unlock()
		if !held {
			held = true
			return FaultHold
		}
		return FaultDeliver
	})

	var wg sync.WaitGroup
	payloads := []string{"first", "second"}
	errs := make([]error, len(payloads))
	for i, p := range payloads {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			got, err := cl.Echo([]byte(p))
			if err == nil && string(got) != p {
				err = errors.New("echo answered with " + string(got))
			}
			errs[i] = err
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("echo %q: %v", payloads[i], err)
		}
	}
}

// TestFaultyRetriesExhausted: a link that drops everything must surface
// ErrTimeout, not hang.
func TestFaultyRetriesExhausted(t *testing.T) {
	srv := NewServer(lineController(t))
	cl := faultyPair(t, srv, func(FrameInfo) FaultAction { return FaultDrop })
	cl.Timeout = 5 * time.Millisecond
	cl.Attempts = 3
	_, err := cl.Echo([]byte("void"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// A clean link after the fault clears: same client keeps working once
	// frames flow again (the request id space was not corrupted).
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
