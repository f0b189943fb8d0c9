package ctrlproto

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
)

// TestPushSnapshotDeliversInOrder covers the push path: snapshots reach
// only the connection that declared the target station, arrive in send
// order, and an Echo issued after a push is answered only after the
// snapshot has been handled (the read loop serves frames in order — the
// pusher's publish barrier).
func TestPushSnapshotDeliversInOrder(t *testing.T) {
	srv := NewServer(lineController(t))
	cl := pipePair(t, srv)
	other := pipePair(t, srv)

	var mu sync.Mutex
	var got []uint64
	cl.OnSnapshot = func(n SnapshotNotify) error {
		mu.Lock()
		got = append(got, n.Version)
		mu.Unlock()
		return nil
	}
	other.OnSnapshot = func(SnapshotNotify) error {
		t.Error("snapshot delivered to an agent for a different station")
		return nil
	}
	if err := cl.Hello(3); err != nil {
		t.Fatal(err)
	}
	if err := other.Hello(4); err != nil {
		t.Fatal(err)
	}

	view := core.AgentView{BS: 3, Tags: []core.TagGrant{{Clause: 5, Tag: 2}}}
	for v := uint64(1); v <= 3; v++ {
		n, err := srv.PushSnapshot(SnapshotNotify{Version: v, View: view})
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("push v%d reached %d conns, want 1", v, n)
		}
	}
	// Barrier: the echo response cannot overtake the pushes on the wire.
	if _, err := cl.Echo(nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivered versions = %v, want [1 2 3]", got)
	}
}

// TestPushSnapshotNoAgent: pushing at a station with no connected agent is
// a dropped notification, not an error — the agent rides its LKG state.
func TestPushSnapshotNoAgent(t *testing.T) {
	srv := NewServer(lineController(t))
	cl := pipePair(t, srv)
	if err := cl.Hello(1); err != nil {
		t.Fatal(err)
	}
	n, err := srv.PushSnapshot(SnapshotNotify{Version: 1,
		View: core.AgentView{BS: packet.BSID(99)}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("pushed to %d conns, want 0", n)
	}
	// A client with no OnSnapshot handler just drops pushes; the
	// connection stays healthy.
	if _, err := srv.PushSnapshot(SnapshotNotify{Version: 1,
		View: core.AgentView{BS: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Echo([]byte("alive")); err != nil {
		t.Fatal(err)
	}
}

// severableConn is a net.Conn whose writes can be made to fail while its
// reads stay blocked in the transport: what a server-side connection looks
// like between its peer going away and its read loop noticing.
type severableConn struct {
	net.Conn
	severed atomic.Bool
}

func (c *severableConn) Write(p []byte) (int, error) {
	if c.severed.Load() {
		return 0, io.ErrClosedPipe
	}
	return c.Conn.Write(p)
}

// severedAgent connects an agent for bs through a severableConn and severs
// it once announced. The client stays open, so the server's read loop on
// the connection is still blocked in Read and has not deregistered it.
func severedAgent(t *testing.T, srv *Server, bs packet.BSID) {
	t.Helper()
	sa, ca := net.Pipe()
	a := &severableConn{Conn: sa}
	go srv.ServeConn(a)
	cl := NewClient(ca)
	t.Cleanup(func() { _ = cl.Close() })
	if err := cl.Hello(bs); err != nil {
		t.Fatal(err)
	}
	a.severed.Store(true)
}

// TestPushSnapshotSkipsDeadConnection: an agent that reconnects leaves its
// old server-side connection registered until that connection's read loop
// reaches forget. A push in that window must count only the live
// connection, succeed, and drop the dead one from the registry — its write
// error is not the push's error.
func TestPushSnapshotSkipsDeadConnection(t *testing.T) {
	srv := NewServer(lineController(t))

	severedAgent(t, srv, 7)
	// The reconnected agent.
	clB := pipePair(t, srv)
	var delivered atomic.Uint64
	clB.OnSnapshot = func(n SnapshotNotify) error {
		delivered.Store(n.Version)
		return nil
	}
	if err := clB.Hello(7); err != nil {
		t.Fatal(err)
	}

	n, err := srv.PushSnapshot(SnapshotNotify{Version: 5, View: core.AgentView{BS: 7}})
	if n != 1 || err != nil {
		t.Fatalf("PushSnapshot = (%d, %v), want (1, nil)", n, err)
	}
	if _, err := clB.Echo(nil); err != nil { // barrier
		t.Fatal(err)
	}
	if got := delivered.Load(); got != 5 {
		t.Fatalf("live connection saw snapshot v%d, want v5", got)
	}
	srv.mu.Lock()
	registered := 0
	for _, bs := range srv.conns {
		if bs == 7 {
			registered++
		}
	}
	srv.mu.Unlock()
	if registered != 1 {
		t.Fatalf("%d connections registered for station 7 after the push, want 1 (the dead one forgotten)", registered)
	}
}

// TestPushSnapshotAllConnectionsDead: when the only registered connection
// for a station refuses the frame, nobody took the snapshot and the push
// reports the write error.
func TestPushSnapshotAllConnectionsDead(t *testing.T) {
	srv := NewServer(lineController(t))
	severedAgent(t, srv, 7)
	n, err := srv.PushSnapshot(SnapshotNotify{Version: 1, View: core.AgentView{BS: 7}})
	if n != 0 || !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("PushSnapshot = (%d, %v), want (0, %v)", n, err, io.ErrClosedPipe)
	}
}

// TestUndecodableSnapshotIsCounted: a pushed snapshot the client cannot
// decode never reaches OnSnapshot, so the agent cannot count it; the
// client's wire.snapshot.undecodable counter does, and the next valid push
// is delivered as usual.
func TestUndecodableSnapshotIsCounted(t *testing.T) {
	sa, ca := net.Pipe()
	cl := NewClient(ca)
	t.Cleanup(func() { _ = cl.Close(); _ = sa.Close() })
	reg := obs.New()
	cl.Instrument(reg)
	var calls atomic.Int32
	handled := make(chan uint64, 2)
	cl.OnSnapshot = func(n SnapshotNotify) error {
		calls.Add(1)
		handled <- n.Version
		return nil
	}

	view := core.AgentView{BS: 7, UEs: []core.AgentViewUE{{UE: core.UE{IMSI: "001010000000001", BS: 7, UEID: 1}}}}
	whole := appendSnapshotNotify(nil, SnapshotNotify{Version: 1, View: view})
	if err := writeFrame(sa, frame{typ: MsgSnapshot, payload: whole[:len(whole)-1]}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(sa, frame{typ: MsgSnapshot, payload: appendSnapshotNotify(nil, SnapshotNotify{Version: 2, View: view})}); err != nil {
		t.Fatal(err)
	}
	// Frames are handled in order: once the valid push is in, so is the
	// garbage before it.
	if v := <-handled; v != 2 {
		t.Fatalf("OnSnapshot saw version %d, want 2", v)
	}
	_ = cl.Close()
	if n := calls.Load(); n != 1 {
		t.Fatalf("OnSnapshot ran %d times, want once", n)
	}
	if n := reg.Counter("wire.snapshot.undecodable").Value(); n != 1 {
		t.Fatalf("wire.snapshot.undecodable = %d, want 1", n)
	}
}
