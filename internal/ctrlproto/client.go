package ctrlproto

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
)

// Client is an agent's connection to the central controller. It implements
// agent.ControllerClient, so an agent is wired identically whether the
// controller is in-process or across the network.
type Client struct {
	c *conn
	// Reporter answers the controller's location queries during failover
	// recovery (§5.2). Nil clients answer with an empty report.
	Reporter func() core.AgentLocationReport

	// Timeout and Attempts configure per-request retransmission over lossy
	// transports (the chaos harness's faulty links): a request unanswered
	// within Timeout is resent with the same request id, up to Attempts
	// sends, then fails with ErrTimeout. The zero values keep the default
	// behaviour — one send that blocks until the connection dies. Set them
	// before issuing requests; they are read without synchronisation.
	Timeout  time.Duration
	Attempts int

	// OnSnapshot receives controller-pushed agent snapshots
	// (Server.PushSnapshot). It runs synchronously on the read loop, so a
	// snapshot is fully handled before any later frame on the connection —
	// that ordering is the pusher's publish barrier. Nil drops pushes. Set
	// it before issuing requests; it is read without synchronisation.
	OnSnapshot func(SnapshotNotify) error
}

// NewClient wraps an established connection and starts its read loop.
func NewClient(raw net.Conn) *Client {
	cl := &Client{c: newConn(raw)}
	go cl.c.readLoop(cl.handle)
	return cl
}

// Dial connects to a controller server.
func Dial(network, addr string) (*Client, error) {
	raw, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(raw), nil
}

// Close tears the connection down.
func (cl *Client) Close() error { return cl.c.Close() }

// request issues one correlated request under the client's retry policy.
// The frame ships sc's trace ids (the zero context for untraced callers).
// The reply payload is the returned call's buf, valid until release.
func (cl *Client) request(sc obs.SpanContext, typ MsgType, payload []byte) (*call, error) {
	return cl.c.request(sc, typ, payload, cl.Timeout, cl.Attempts)
}

// handle serves controller-initiated requests and pushes on the read loop.
func (cl *Client) handle(f frame) {
	switch f.typ {
	case MsgLocationQuery:
		var rep core.AgentLocationReport
		if cl.Reporter != nil {
			rep = cl.Reporter()
		}
		cl.c.out = appendLocationReport(cl.c.out[:0], rep)
		_ = cl.c.reply(f, MsgLocationQuery, cl.c.out)
	case MsgSnapshot:
		// A notification, not a request: no response frame. A stale or
		// invalid snapshot is the receiver's local decision (the agent
		// refuses it and keeps its LKG state); the wire carries no verdict.
		var n SnapshotNotify
		if err := json.Unmarshal(f.payload, &n); err != nil {
			return
		}
		if cl.OnSnapshot != nil {
			//lint:ignore errdrop the push has no reply channel; rejected snapshots are counted by the agent
			_ = cl.OnSnapshot(n)
		}
	default:
		_ = cl.c.replyError(f, errUnexpected(f.typ))
	}
}

type unexpectedError struct{ t MsgType }

func (e unexpectedError) Error() string { return "unexpected request " + e.t.String() }

func errUnexpected(t MsgType) error { return unexpectedError{t} }

// Hello announces the agent's base station.
func (cl *Client) Hello(bs packet.BSID) error {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(bs))
	r, err := cl.request(obs.SpanContext{}, MsgHello, b[:])
	if err != nil {
		return err
	}
	cl.c.release(r)
	return nil
}

// Echo round-trips a payload (latency probes). The result is the caller's.
func (cl *Client) Echo(payload []byte) ([]byte, error) {
	r, err := cl.request(obs.SpanContext{}, MsgEcho, payload)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), r.buf...)
	cl.c.release(r)
	return out, nil
}

// ResolveLocIP implements agent.LocResolver over the wire, enabling §7
// mobile-to-mobile paths for remote agents.
func (cl *Client) ResolveLocIP(perm packet.Addr) (packet.Addr, error) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(perm))
	r, err := cl.request(obs.SpanContext{}, MsgResolve, b[:])
	if err != nil {
		return 0, err
	}
	defer cl.c.release(r)
	if len(r.buf) != 4 {
		return 0, errSize("resolve reply payload", len(r.buf))
	}
	return packet.Addr(binary.BigEndian.Uint32(r.buf)), nil
}

// RequestPath implements agent.ControllerClient over the wire.
func (cl *Client) RequestPath(bs packet.BSID, clause int) (packet.Tag, error) {
	return cl.RequestPathCtx(obs.SpanContext{}, bs, clause)
}

// RequestPathCtx is RequestPath with span context propagated on the
// frame, continuing the caller's trace on the far side of the wire.
//
// hotpath: no alloc
func (cl *Client) RequestPathCtx(sc obs.SpanContext, bs packet.BSID, clause int) (packet.Tag, error) {
	var b [8]byte
	r, err := cl.request(sc, MsgPathRequest, PathRequest{BS: bs, Clause: uint32(clause)}.appendTo(b[:0]))
	if err != nil {
		return 0, err
	}
	rep, err := parsePathReply(r.buf)
	cl.c.release(r)
	return rep.Tag, err
}

// Attach admits a UE through the controller.
func (cl *Client) Attach(imsi string, bs packet.BSID) (core.UE, []core.Classifier, error) {
	return cl.AttachCtx(obs.SpanContext{}, imsi, bs)
}

// AttachCtx is Attach with span context propagated on the frame.
func (cl *Client) AttachCtx(sc obs.SpanContext, imsi string, bs packet.BSID) (core.UE, []core.Classifier, error) {
	var b [64]byte
	r, err := cl.request(sc, MsgAttach, AttachRequest{IMSI: imsi, BS: bs}.appendTo(b[:0]))
	if err != nil {
		return core.UE{}, nil, err
	}
	rep, err := parseAttachReply(r.buf)
	cl.c.release(r)
	if err != nil {
		return core.UE{}, nil, err
	}
	return rep.UE, rep.Classifiers, nil
}

// Handoff moves a UE through the controller.
func (cl *Client) Handoff(imsi string, newBS packet.BSID) (core.HandoffResult, error) {
	return cl.HandoffCtx(obs.SpanContext{}, imsi, newBS)
}

// HandoffCtx is Handoff with span context propagated on the frame.
func (cl *Client) HandoffCtx(sc obs.SpanContext, imsi string, newBS packet.BSID) (core.HandoffResult, error) {
	var b [64]byte
	r, err := cl.request(sc, MsgHandoff, HandoffRequest{IMSI: imsi, NewBS: newBS}.appendTo(b[:0]))
	if err != nil {
		return core.HandoffResult{}, err
	}
	res, err := parseHandoffResult(r.buf)
	cl.c.release(r)
	if err != nil {
		return core.HandoffResult{}, err
	}
	return res, nil
}
