package ctrlproto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// constPlane is a ControlPlane that allocates nothing: path requests get
// clause+1, attach and handoff a fixed record, so whatever a wire round trip
// allocates is the wire's own.
type constPlane struct {
	ue  core.UE
	cls []core.Classifier
	res core.HandoffResult
}

func newConstPlane() *constPlane {
	ue := core.UE{IMSI: "001010000000042", Attr: policy.Attributes{Provider: "A", Plan: "gold", DeviceType: "phone"},
		PermIP: packet.AddrFrom4(100, 64, 0, 9), BS: 3, UEID: 9, LocIP: packet.AddrFrom4(10, 0, 3, 9)}
	cls := []core.Classifier{
		{App: policy.AppWeb, Clause: 1, Tag: 17, Allow: true},
		{App: policy.AppVideo, Clause: 2, Tag: 18, Allow: true, QoS: policy.QoSVideo},
		{App: policy.AppSSH, Clause: -1},
	}
	sc := &core.Shortcut{Loc: ue.LocIP, Route: []topo.NodeID{4, 2, 7}, BranchMB: core.NoMB,
		PathTags: []packet.Tag{17, 33}, Delivery: 21}
	return &constPlane{ue: ue, cls: cls, res: core.HandoffResult{UE: ue, OldBS: 2,
		OldLocIP: packet.AddrFrom4(10, 0, 2, 5), Classifiers: cls, Shortcuts: []*core.Shortcut{sc, sc}}}
}

func (p *constPlane) RequestPath(bs packet.BSID, clause int) (packet.Tag, error) {
	return packet.Tag(clause + 1), nil
}
func (p *constPlane) Attach(string, packet.BSID) (core.UE, []core.Classifier, error) {
	return p.ue, p.cls, nil
}
func (p *constPlane) Handoff(string, packet.BSID) (core.HandoffResult, error) {
	return p.res, nil
}
func (p *constPlane) ResolveLocIP(packet.Addr) (packet.Addr, error)     { return 0, nil }
func (p *constPlane) RecoverLocations([]core.AgentLocationReport) error { return nil }

// tcpPair serves srv on a loopback listener and dials one client to it.
func tcpPair(t *testing.T, srv *Server) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	cl, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = ln.Close()
		<-served
	})
	return cl
}

// Ceilings on the allocations of one wire attach and one wire handoff,
// both ends included, against constPlane (two shortcuts).
const (
	maxAttachAllocs  = 3
	maxHandoffAllocs = 7
)

// TestWireRequestPathZeroAllocs pins the §6.2 steady state: a path request
// over TCP loopback allocates nothing anywhere in the process — client,
// both read loops and the server's handler together. The same measurement
// bounds an attach and a handoff.
func TestWireRequestPathZeroAllocs(t *testing.T) {
	cl := tcpPair(t, NewServer(newConstPlane()))
	warm := func() {
		for i := 0; i < 16; i++ {
			if _, err := cl.RequestPath(3, i); err != nil {
				t.Fatal(err)
			}
			if _, _, err := cl.Attach("001010000000042", 3); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Handoff("001010000000042", 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm()

	clause := 0
	path := testing.AllocsPerRun(2000, func() {
		clause++
		tag, err := cl.RequestPath(3, clause)
		if err != nil || tag != packet.Tag(clause+1) {
			t.Fatalf("path request = %d, %v; want %d", tag, err, clause+1)
		}
	})
	if path != 0 {
		t.Errorf("a wire path request allocates %.0f times, want 0", path)
	}

	attach := testing.AllocsPerRun(500, func() {
		if _, _, err := cl.Attach("001010000000042", 3); err != nil {
			t.Fatal(err)
		}
	})
	handoff := testing.AllocsPerRun(500, func() {
		if _, err := cl.Handoff("001010000000042", 4); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per wire op: path %.0f, attach %.0f, handoff %.0f", path, attach, handoff)
	if attach > maxAttachAllocs {
		t.Errorf("a wire attach allocates %.0f times, ceiling %d", attach, maxAttachAllocs)
	}
	if handoff > maxHandoffAllocs {
		t.Errorf("a wire handoff allocates %.0f times, ceiling %d", handoff, maxHandoffAllocs)
	}
}

// TestPipelinedRepliesMatchRequests: four goroutines keep echoes and path
// requests with distinct payloads in flight on one connection at once, so
// read buffers and pooled calls are reused under every interleaving; each
// reply must be its own request's.
func TestPipelinedRepliesMatchRequests(t *testing.T) {
	const workers, perWorker = 4, 128
	cl := tcpPair(t, NewServer(newConstPlane()))
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				want := fmt.Sprintf("worker %d request %d %s", w, i, strings.Repeat("x", i))
				got, err := cl.Echo([]byte(want))
				if err != nil || string(got) != want {
					errs <- fmt.Errorf("echo %q = %q, %v", want, got, err)
					return
				}
				clause := w*perWorker + i
				tag, err := cl.RequestPath(packet.BSID(w), clause)
				if err != nil || tag != packet.Tag(clause+1) {
					errs <- fmt.Errorf("path request clause %d = tag %d, %v", clause, tag, err)
					return
				}
				if string(got) != want {
					errs <- fmt.Errorf("echo result %q changed to %q after a later request", want, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTimedOutCallIsNotReused: the server's first path reply is held back
// until its next write, so the client's single attempt times out. The next
// request's reply releases the stale one behind it; the stale reply finds
// no waiter and is dropped, the new request gets its own tag, and the
// timed-out call never reaches the free list.
func TestTimedOutCallIsNotReused(t *testing.T) {
	srv := NewServer(newConstPlane())
	a, b := net.Pipe()
	held := false // touched only by the server's read loop, which does every server write here
	go srv.ServeConn(NewFaultyConn(a, func(i FrameInfo) FaultAction {
		if i.Resp && i.Type == MsgPathRequest && !held {
			held = true
			return FaultHold
		}
		return FaultDeliver
	}))
	cl := NewClient(b)
	t.Cleanup(func() { _ = cl.Close() })
	cl.Timeout = 20 * time.Millisecond
	cl.Attempts = 1

	if _, err := cl.RequestPath(0, 1); !errors.Is(err, ErrTimeout) {
		t.Fatalf("held reply: err = %v, want ErrTimeout", err)
	}
	if tag, err := cl.RequestPath(0, 2); err != nil || tag != 3 {
		t.Fatalf("request after the timeout = tag %d, %v; want 3", tag, err)
	}
	if tag, err := cl.RequestPath(0, 7); err != nil || tag != 8 {
		t.Fatalf("third request = tag %d, %v; want 8", tag, err)
	}
	cl.c.mu.Lock()
	free, pending := len(cl.c.free), len(cl.c.pending)
	cl.c.mu.Unlock()
	if free != 1 || pending != 0 {
		t.Fatalf("free list %d calls, pending %d; want 1 and 0 (the timed-out call dropped)", free, pending)
	}
}

// TestDeadConnectionFailsPendingRequests: every request in flight when the
// connection dies fails with the connection's error, and so does the next.
func TestDeadConnectionFailsPendingRequests(t *testing.T) {
	const inflight = 3
	a, b := net.Pipe()
	cl := NewClient(b)
	t.Cleanup(func() { _ = cl.Close() })
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			_, err := cl.RequestPath(0, i)
			errs <- err
		}(i)
	}
	// Every request is registered before its frame is written, and a pipe
	// write returns only once read: after these reads all are pending.
	for i := 0; i < inflight; i++ {
		if _, err := readFrame(a); err != nil {
			t.Fatal(err)
		}
	}
	_ = a.Close()
	for i := 0; i < inflight; i++ {
		if err := <-errs; !errors.Is(err, io.EOF) {
			t.Errorf("pending request failed with %v, want the connection's %v", err, io.EOF)
		}
	}
	if _, err := cl.RequestPath(0, 9); !errors.Is(err, io.EOF) {
		t.Errorf("request on the dead connection failed with %v, want %v", err, io.EOF)
	}
}

// TestLargeFramesAreNotRetained: a snapshot push of more than 256 KiB
// between small frames decodes whole, a large echo round-trips, and neither
// leaves a buffer above maxRetained on the connection or its free list.
func TestLargeFramesAreNotRetained(t *testing.T) {
	srv := NewServer(newConstPlane())
	cl := tcpPair(t, srv)
	var got []SnapshotNotify
	cl.OnSnapshot = func(n SnapshotNotify) error {
		got = append(got, n)
		return nil
	}
	if err := cl.Hello(5); err != nil {
		t.Fatal(err)
	}
	view := core.AgentView{BS: 5}
	for i := 0; i < 3000; i++ {
		view.UEs = append(view.UEs, core.AgentViewUE{UE: core.UE{IMSI: fmt.Sprintf("00101%010d", i), BS: 5, UEID: packet.UEID(i)}})
	}
	push := SnapshotNotify{Version: 9, View: view}
	if n := len(marshalJSON(push)); n < 256<<10 {
		t.Fatalf("snapshot encodes to %d bytes, want at least 256 KiB", n)
	}
	if _, err := cl.Echo([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if n, err := srv.PushSnapshot(push); n != 1 || err != nil {
		t.Fatalf("PushSnapshot = %d, %v", n, err)
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), 20<<10)
	if echoed, err := cl.Echo(big); err != nil || !bytes.Equal(echoed, big) {
		t.Fatalf("large echo: %d bytes back, %v", len(echoed), err)
	}
	if after, err := cl.Echo([]byte("after")); err != nil || string(after) != "after" {
		t.Fatalf("echo after the large frames = %q, %v", after, err)
	}
	// The echo replies are the barrier: the push was handled before them.
	if len(got) != 1 || got[0].Version != 9 || len(got[0].View.UEs) != 3000 ||
		got[0].View.UEs[2999].UE.IMSI != view.UEs[2999].UE.IMSI {
		t.Fatalf("snapshot decoded as %d notifications", len(got))
	}
	if c := cap(cl.c.body); c > maxRetained {
		t.Fatalf("read buffer kept %d bytes after the large frames, bound %d", c, maxRetained)
	}
	cl.c.mu.Lock()
	defer cl.c.mu.Unlock()
	for _, r := range cl.c.free {
		if cap(r.buf) > maxRetained {
			t.Fatalf("a pooled call kept a %d-byte reply buffer, bound %d", cap(r.buf), maxRetained)
		}
	}
}
