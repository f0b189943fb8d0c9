package ctrlproto

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
)

// ControlPlane is the slice of controller behaviour the wire protocol
// needs. Both a bare *core.Controller and a sharded shard.Dispatcher
// satisfy it, so one server fronts either deployment shape.
type ControlPlane interface {
	Attach(imsi string, bs packet.BSID) (core.UE, []core.Classifier, error)
	Handoff(imsi string, newBS packet.BSID) (core.HandoffResult, error)
	RequestPath(bs packet.BSID, clause int) (packet.Tag, error)
	ResolveLocIP(perm packet.Addr) (packet.Addr, error)
	RecoverLocations(reports []core.AgentLocationReport) error
}

// TracedControlPlane is the optional span-aware extension of
// ControlPlane. The server type-asserts it and forwards the span
// context decoded from traced frames, so a trace rooted on the agent
// side of the wire continues through dispatcher and controller layers.
// Control planes without it still work — remote traces just end at the
// wire.serve span.
type TracedControlPlane interface {
	AttachCtx(sc obs.SpanContext, imsi string, bs packet.BSID) (core.UE, []core.Classifier, error)
	HandoffCtx(sc obs.SpanContext, imsi string, newBS packet.BSID) (core.HandoffResult, error)
	RequestPathCtx(sc obs.SpanContext, bs packet.BSID, clause int) (packet.Tag, error)
}

// Server exposes a ControlPlane over the control channel. Each connection
// is served by one goroutine, its read loop: requests are handled inline,
// in arrival order. Parallelism comes from the number of connections (one
// per base station's agent, as with the thousand emulated switches of the
// paper's Cbench experiment), not from concurrency inside one.
type Server struct {
	Ctrl ControlPlane

	mu    sync.Mutex
	conns map[*conn]packet.BSID // hello-declared base station
	wg    sync.WaitGroup

	// Requests counts path requests served (all connections).
	Requests atomic.Uint64

	// Wire telemetry handles (nil-safe no-ops); set by Instrument.
	obsFrames    *obs.Counter
	obsRequests  *obs.Counter
	obsFlush     *obs.Histogram
	obsServe     *obs.SpanName
	obsFlushSpan *obs.SpanName
}

// NewServer wraps a control plane (a controller or a shard dispatcher).
func NewServer(ctrl ControlPlane) *Server {
	return &Server{Ctrl: ctrl, conns: make(map[*conn]packet.BSID)}
}

// Serve accepts connections until the listener closes, then waits for the
// connections it accepted to finish.
func (s *Server) Serve(ln net.Listener) error {
	for {
		raw, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(raw)
		}()
	}
}

// ServeConn serves a single established connection on the caller's
// goroutine until it dies (Serve runs it per accepted connection; tests
// and in-process benches hand it one end of a net.Pipe).
func (s *Server) ServeConn(raw net.Conn) {
	c := newConn(raw)
	c.flushFrames = s.obsFlush
	c.flushSpan = s.obsFlushSpan
	s.setStation(c, 0)
	c.readLoop(func(f frame) { s.handle(c, f) })
	s.forget(c)
	_ = c.Close()
}

// setStation records the base station a connection speaks for (0 until
// its Hello), which also registers the connection for pushes and queries.
func (s *Server) setStation(c *conn, bs packet.BSID) {
	s.mu.Lock()
	s.conns[c] = bs
	s.mu.Unlock()
}

// stationConns snapshots the connections registered for bs.
func (s *Server) stationConns(bs packet.BSID) []*conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := make([]*conn, 0, 1)
	for c, at := range s.conns {
		if at == bs {
			conns = append(conns, c)
		}
	}
	return conns
}

func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// handle serves one request frame; the reply is buffered for the read
// loop's next flush. f.payload lives in the connection's read buffer, so
// everything a handler keeps is decoded out of it first.
func (s *Server) handle(c *conn, f frame) {
	s.obsFrames.Inc()
	// Continue the frame's trace: handler work nests under a wire.serve
	// span, and replies echo the context so the response flush is
	// attributed too. A frame from an untraced client makes the server
	// the entry point, so wire.serve takes its own sampling decision
	// there — a daemon serving only plain clients still populates
	// /debug/spans. The steady state (unsampled either way) sees only
	// the zero-span no-op branches.
	sc := obs.SpanContext{Trace: obs.TraceID(f.trace), Span: obs.SpanID(f.span)}
	var sp obs.Span
	if sc.Sampled() {
		sp = s.obsServe.Start(sc)
	} else {
		sp = s.obsServe.Root()
	}
	defer sp.End()
	if sp.Context().Sampled() {
		sc = sp.Context()
	}
	switch f.typ {
	case MsgHello:
		if len(f.payload) == 4 {
			s.setStation(c, packet.BSID(binary.BigEndian.Uint32(f.payload)))
		}
		_ = c.reply(f, MsgHello, nil)
	case MsgEcho:
		_ = c.reply(f, MsgEcho, f.payload)
	case MsgResolve:
		if len(f.payload) != 4 {
			_ = c.replyError(f, errSize("resolve payload", len(f.payload)))
			return
		}
		loc, err := s.Ctrl.ResolveLocIP(packet.Addr(binary.BigEndian.Uint32(f.payload)))
		if err != nil {
			_ = c.replyError(f, err)
			return
		}
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(loc))
		_ = c.reply(f, MsgResolve, b[:])
	case MsgPathRequest:
		s.servePath(c, f, sc)
	case MsgAttach:
		req, err := parseAttachRequest(f.payload)
		if err != nil {
			_ = c.replyError(f, err)
			return
		}
		var (
			ue  core.UE
			cls []core.Classifier
		)
		if t, ok := s.Ctrl.(TracedControlPlane); ok {
			ue, cls, err = t.AttachCtx(sc, req.IMSI, req.BS)
		} else {
			ue, cls, err = s.Ctrl.Attach(req.IMSI, req.BS)
		}
		if err != nil {
			_ = c.replyError(f, err)
			return
		}
		c.out = AttachReply{UE: ue, Classifiers: cls}.appendTo(c.out[:0])
		_ = c.reply(f, MsgAttach, c.out)
	case MsgHandoff:
		req, err := parseHandoffRequest(f.payload)
		if err != nil {
			_ = c.replyError(f, err)
			return
		}
		var res core.HandoffResult
		if t, ok := s.Ctrl.(TracedControlPlane); ok {
			res, err = t.HandoffCtx(sc, req.IMSI, req.NewBS)
		} else {
			res, err = s.Ctrl.Handoff(req.IMSI, req.NewBS)
		}
		if err != nil {
			_ = c.replyError(f, err)
			return
		}
		c.out = appendHandoffResult(c.out[:0], res)
		_ = c.reply(f, MsgHandoff, c.out)
	default:
		_ = c.replyError(f, fmt.Errorf("unknown message type %s", f.typ))
	}
}

// servePath answers one path request: the steady state of §6.2's
// controller benchmark, so it allocates nothing on a tag-cache hit.
//
// hotpath: no alloc
func (s *Server) servePath(c *conn, f frame, sc obs.SpanContext) {
	req, err := parsePathRequest(f.payload)
	if err != nil {
		_ = c.replyError(f, err)
		return
	}
	var tag packet.Tag
	if t, ok := s.Ctrl.(TracedControlPlane); ok {
		tag, err = t.RequestPathCtx(sc, req.BS, int(req.Clause))
	} else {
		tag, err = s.Ctrl.RequestPath(req.BS, int(req.Clause))
	}
	if err != nil {
		_ = c.replyError(f, err)
		return
	}
	s.Requests.Add(1)
	s.obsRequests.Inc()
	var b [4]byte
	_ = c.reply(f, MsgPathRequest, PathReply{Tag: tag}.appendTo(b[:0]))
}

// PushSnapshot sends one station's versioned snapshot to every connected
// agent that declared that base station in its Hello, reusing the
// group-commit write path (buffer, then one flush per connection). It
// reports how many connections the push was written to; zero with a nil
// error means no agent for that station is connected — the push is simply
// dropped, and the agent keeps serving its last-known-good state until it
// reconnects and a fresh snapshot reaches it.
//
// A connection whose peer just went away stays registered until its read
// loop notices, so a push right after an agent reconnects can also reach
// the dead connection. A failed write means that connection is gone, not
// that the push failed: it is torn down, forgotten and not counted, and an
// error is returned only when no connection took the frame and at least
// one refused it.
func (s *Server) PushSnapshot(n SnapshotNotify) (int, error) {
	f := frame{typ: MsgSnapshot, payload: appendSnapshotNotify(nil, n)}
	pushed := 0
	var firstErr error
	for _, c := range s.stationConns(n.View.BS) {
		if err := c.buffer(f); err != nil {
			return pushed, err // unencodable for every connection alike
		}
		if err := c.flush(); err != nil {
			c.fail(err)
			s.forget(c)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		pushed++
	}
	if pushed > 0 {
		return pushed, nil
	}
	return 0, firstErr
}

// QueryLocations asks every connected agent for its location report and
// feeds the answers to the controller's recovery (§5.2). It returns the
// number of agents that answered.
func (s *Server) QueryLocations() (int, error) {
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var reports []core.AgentLocationReport
	answered := 0
	for _, c := range conns {
		r, err := c.request(obs.SpanContext{}, MsgLocationQuery, nil, 0, 1)
		if err != nil {
			continue // dead agents are skipped; their UEs re-attach later
		}
		rep, err := parseLocationReport(r.buf)
		c.release(r)
		if err != nil {
			continue
		}
		reports = append(reports, rep)
		answered++
	}
	if err := s.Ctrl.RecoverLocations(reports); err != nil {
		return answered, err
	}
	return answered, nil
}
