// Package ctrlproto is SoftCell's control channel: the framed binary
// protocol local agents use to talk to the central controller (packet
// classifier fetches, policy-path requests, location queries during
// failover recovery). It plays the role OpenFlow+Floodlight play in the
// paper's prototype, reduced to the message set SoftCell actually needs.
//
// Framing: every message is
//
//	uint32  frame length (bytes after this field)
//	uint8   message type
//	uint8   flags (bit 0: response, bit 1: traced)
//	uint32  request id (correlates responses; both sides may originate)
//	[uint64 trace id, uint64 span id — only when the traced flag is set]
//	payload
//
// The optional trace header carries obs span context (DESIGN.md §16)
// across the wire, so a sampled request's causal tree spans both sides
// of the channel. Untraced frames — the 1023-in-1024 steady state —
// pay nothing: the header is absent and the flag bit is zero.
//
// The channel is symmetric: the controller can query agents (location
// recovery, §5.2) over the same connection agents use for requests.
package ctrlproto

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
)

// MsgType identifies a message.
type MsgType uint8

// Message types.
const (
	MsgHello MsgType = iota + 1
	MsgEcho
	MsgPathRequest
	MsgAttach
	MsgHandoff
	MsgLocationQuery
	MsgResolve
	MsgError
	MsgSnapshot
)

func (m MsgType) String() string {
	switch m {
	case MsgHello:
		return "hello"
	case MsgEcho:
		return "echo"
	case MsgPathRequest:
		return "path-request"
	case MsgAttach:
		return "attach"
	case MsgHandoff:
		return "handoff"
	case MsgLocationQuery:
		return "location-query"
	case MsgResolve:
		return "resolve"
	case MsgError:
		return "error"
	case MsgSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("msg(%d)", uint8(m))
	}
}

const (
	flagResponse = 1 << 0
	flagTraced   = 1 << 1
	headerBytes  = 10 // type(1) + flags(1) + reqID(4) after the length(4)
	traceBytes   = 16 // trace id(8) + span id(8), present iff flagTraced
	// MaxFrame bounds a frame so a corrupt peer cannot OOM us.
	MaxFrame = 1 << 20
)

// frame is one decoded message. trace/span carry the optional span
// context; trace 0 means untraced and serialises without the header.
type frame struct {
	typ     MsgType
	resp    bool
	reqID   uint32
	trace   uint64
	span    uint64
	payload []byte
}

// appendFrame serialises one frame onto buf.
func appendFrame(buf []byte, f frame) ([]byte, error) {
	if len(f.payload) > MaxFrame-headerBytes-traceBytes+4 {
		return buf, fmt.Errorf("ctrlproto: payload %d bytes exceeds frame limit", len(f.payload))
	}
	n := 6 + len(f.payload)
	if f.trace != 0 {
		n += traceBytes
	}
	var hdr [10]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = uint8(f.typ)
	if f.resp {
		hdr[5] |= flagResponse
	}
	if f.trace != 0 {
		hdr[5] |= flagTraced
	}
	binary.BigEndian.PutUint32(hdr[6:10], f.reqID)
	buf = append(buf, hdr[:]...)
	if f.trace != 0 {
		var tr [traceBytes]byte
		binary.BigEndian.PutUint64(tr[0:8], f.trace)
		binary.BigEndian.PutUint64(tr[8:16], f.span)
		buf = append(buf, tr[:]...)
	}
	return append(buf, f.payload...), nil
}

// writeFrame serialises and writes one frame.
func writeFrame(w io.Writer, f frame) error {
	buf, err := appendFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// readFrame reads one frame from an arbitrary reader (tests, fuzzing).
// The read loop uses readFrameBuf instead: reading the header through an
// io.Reader forces the 4-byte scratch to the heap on every frame.
func readFrame(r io.Reader) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	return readFrameBody(r, binary.BigEndian.Uint32(lenBuf[:]))
}

// readFrameBuf reads one frame from the connection's buffered reader. The
// length header is peeked straight out of the bufio buffer, so the hot
// read loop allocates nothing for it.
func readFrameBuf(br *bufio.Reader) (frame, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if _, err := br.Discard(4); err != nil {
		return frame{}, err
	}
	return readFrameBody(br, n)
}

// readFrameBody reads and parses the n-byte frame body.
func readFrameBody(r io.Reader, n uint32) (frame, error) {
	if n < 6 || n > MaxFrame {
		//lint:ignore hotpath malformed frame tears the connection down; never the steady state
		return frame{}, fmt.Errorf("ctrlproto: bad frame length %d", n)
	}
	//lint:ignore hotpath per-frame body buffer: it becomes the payload's backing array and outlives the read
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	f := frame{
		typ:   MsgType(body[0]),
		resp:  body[1]&flagResponse != 0,
		reqID: binary.BigEndian.Uint32(body[2:6]),
	}
	rest := body[6:]
	if body[1]&flagTraced != 0 {
		if len(rest) < traceBytes {
			//lint:ignore hotpath malformed frame tears the connection down; never the steady state
			return frame{}, fmt.Errorf("ctrlproto: traced frame length %d too short", n)
		}
		f.trace = binary.BigEndian.Uint64(rest[0:8])
		if f.trace != 0 {
			// A zero trace id is canonically untraced; dropping the span
			// keeps decode(encode(f)) == f for every accepted frame.
			f.span = binary.BigEndian.Uint64(rest[8:16])
		}
		rest = rest[traceBytes:]
	}
	f.payload = rest
	return f, nil
}

// PathRequest is the hot-path message: 8 bytes, hand-packed.
type PathRequest struct {
	BS     packet.BSID
	Clause uint32
}

func (p PathRequest) marshal() []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b[0:4], uint32(p.BS))
	binary.BigEndian.PutUint32(b[4:8], p.Clause)
	return b
}

func parsePathRequest(b []byte) (PathRequest, error) {
	if len(b) != 8 {
		return PathRequest{}, fmt.Errorf("ctrlproto: path request payload %d bytes", len(b))
	}
	return PathRequest{
		BS:     packet.BSID(binary.BigEndian.Uint32(b[0:4])),
		Clause: binary.BigEndian.Uint32(b[4:8]),
	}, nil
}

// PathReply carries the tag, 4 bytes.
type PathReply struct{ Tag packet.Tag }

func (p PathReply) marshal() []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, uint32(p.Tag))
	return b
}

func parsePathReply(b []byte) (PathReply, error) {
	if len(b) != 4 {
		return PathReply{}, fmt.Errorf("ctrlproto: path reply payload %d bytes", len(b))
	}
	return PathReply{Tag: packet.Tag(binary.BigEndian.Uint32(b))}, nil
}

// AttachRequest admits a UE (JSON payload: cold path).
type AttachRequest struct {
	IMSI string      `json:"imsi"`
	BS   packet.BSID `json:"bs"`
}

// AttachReply returns the UE record and its classifiers.
type AttachReply struct {
	UE          core.UE           `json:"ue"`
	Classifiers []core.Classifier `json:"classifiers"`
}

// HandoffRequest moves a UE.
type HandoffRequest struct {
	IMSI  string      `json:"imsi"`
	NewBS packet.BSID `json:"newBS"`
}

// SnapshotNotify is the controller-initiated push of one station's
// versioned agent view (JSON payload: snapshots are cold-path, the point
// is that packet-ins never wait for them). It is a notification, not a
// request: the agent swaps the snapshot in (or refuses a stale version)
// locally and never replies — a pusher wanting a publish barrier follows
// the push with an Echo on the same connection, which the receiving read
// loop processes strictly after the snapshot frame.
type SnapshotNotify struct {
	Version uint64         `json:"version"`
	View    core.AgentView `json:"view"`
}

// conn is the symmetric framed connection with request correlation.
// Outgoing frames group-commit: senders append to wbuf under bufMu, and
// whichever sender wins writeMu next moves the whole buffer with a single
// raw.Write. writeMu is always taken before bufMu, never the reverse.
//
// lock ordering: writeMu, bufMu
type conn struct {
	raw net.Conn
	// br buffers the read side so one transport read can deliver a whole
	// batch of frames; only readLoop touches it.
	br *bufio.Reader

	writeMu sync.Mutex // serialises flushes of wbuf to raw
	bufMu   sync.Mutex
	wbuf    []byte // guarded by bufMu; frames awaiting the next flush
	nbuf    int    // guarded by bufMu; frame count in wbuf
	nextID  uint32

	// Optional wire telemetry (nil-safe): flush batch sizes, observed by
	// whichever sender performs the write, and client retransmissions.
	flushFrames *obs.Histogram
	retrans     *obs.Counter
	// Optional span types (nil-safe): group-commit flush sections and
	// client-side request round trips.
	flushSpan *obs.SpanName
	rttSpan   *obs.SpanName

	// Span context of the most recent traced frame awaiting flush; the
	// flusher that carries it records the wire.flush span under it.
	wtrace uint64 // guarded by bufMu
	wspan  uint64 // guarded by bufMu

	mu      sync.Mutex
	pending map[uint32]chan frame
	closed  bool
	err     error
}

func newConn(raw net.Conn) *conn {
	return &conn{
		raw:     raw,
		br:      bufio.NewReaderSize(raw, 32<<10),
		pending: make(map[uint32]chan frame),
	}
}

// buffer enqueues one frame for a later flush. The read loop's handlers
// use it (through reply) to accumulate a batch of replies that a single
// flush then moves with one Write; request and push senders go through
// send, which flushes immediately.
func (c *conn) buffer(f frame) error {
	c.bufMu.Lock()
	defer c.bufMu.Unlock()
	buf, err := appendFrame(c.wbuf, f)
	if err != nil {
		return err
	}
	c.wbuf = buf
	c.nbuf++
	if f.trace != 0 {
		c.wtrace, c.wspan = f.trace, f.span
	}
	return nil
}

// flush moves every buffered frame to the wire in a single Write.
// Concurrent flushers coalesce: while one flusher's Write is in flight
// under writeMu, other senders append to wbuf and the next flusher moves
// them all at once — so a connection with a deep request pipeline pays one
// write rendezvous per batch, not per frame. Finding the buffer empty
// after taking writeMu means an earlier flusher already carried (and
// wrote) this sender's frame; a write error on a carried batch surfaces to
// that flusher, and to everyone else when the dead connection fails their
// next read or write.
func (c *conn) flush() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.bufMu.Lock()
	out, n := c.wbuf, c.nbuf
	tr, spn := c.wtrace, c.wspan
	c.wbuf, c.nbuf = nil, 0
	c.wtrace, c.wspan = 0, 0
	c.bufMu.Unlock()
	if len(out) == 0 {
		return nil
	}
	c.flushFrames.Observe(int64(n))
	sp := c.flushSpan.Start(obs.SpanContext{Trace: obs.TraceID(tr), Span: obs.SpanID(spn)})
	_, err := c.raw.Write(out)
	sp.End()
	c.bufMu.Lock()
	if c.wbuf == nil {
		c.wbuf = out[:0] // recycle the batch buffer while the line is idle
	}
	c.bufMu.Unlock()
	return err
}

// send enqueues one frame and flushes the write buffer.
func (c *conn) send(f frame) error {
	if err := c.buffer(f); err != nil {
		return err
	}
	return c.flush()
}

// ErrTimeout marks a request whose retransmission budget ran out without a
// response arriving.
var ErrTimeout = errors.New("ctrlproto: request timed out")

// request issues a request carrying span context on its frame and blocks
// for its response, retransmitting with the SAME request id after each
// timeout until a response arrives or attempts sends have gone unanswered.
// timeout <= 0 disables the timer (a single send that blocks until the
// connection dies).
//
// The round trip is timed under a wire.rtt child span, so attribution can
// split end-to-end latency into on-the-wire and remote-serve segments.
// The frame ships the rtt span's context (not the caller's) so the
// server's serve span and both sides' flush spans nest *inside* the
// round trip — they happen within it, and attribution's sum invariant
// needs the tree to say so.
//
// Retransmission is idempotent at this layer: the pending entry stays
// registered across resends, the first response delivers it, and the read
// loop silently discards any later duplicates (their reqID no longer has a
// waiter). Callers are responsible for only retrying operations the remote
// side can absorb twice.
func (c *conn) request(sc obs.SpanContext, typ MsgType, payload []byte, timeout time.Duration, attempts int) (frame, error) {
	sp := c.rttSpan.Start(sc)
	defer sp.End()
	if sp.Context().Sampled() {
		sc = sp.Context()
	}
	if attempts <= 0 {
		attempts = 1
	}
	id := atomic.AddUint32(&c.nextID, 1)
	ch := make(chan frame, 1)
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errors.New("ctrlproto: connection closed")
		}
		return frame{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()
	unregister := func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}
	for try := 0; try < attempts; try++ {
		if try > 0 {
			c.retrans.Inc()
		}
		if err := c.send(frame{typ: typ, reqID: id, trace: uint64(sc.Trace), span: uint64(sc.Span), payload: payload}); err != nil {
			unregister()
			return frame{}, err
		}
		if timeout <= 0 {
			return c.await(ch)
		}
		timer := time.NewTimer(timeout)
		select {
		case f, ok := <-ch:
			timer.Stop()
			//lint:ignore lockcheck mu was released after registering the pending channel; finish re-locks on a cold path
			return c.finish(f, ok)
		case <-timer.C:
		}
	}
	unregister()
	// A response racing the last timeout may already sit in the buffered
	// channel; prefer it over the timeout error.
	select {
	case f, ok := <-ch:
		//lint:ignore lockcheck mu was released after registering the pending channel; finish re-locks on a cold path
		return c.finish(f, ok)
	default:
	}
	return frame{}, fmt.Errorf("%w after %d attempts", ErrTimeout, attempts)
}

// await blocks for the response (or connection death) on a pending channel.
func (c *conn) await(ch chan frame) (frame, error) {
	f, ok := <-ch
	return c.finish(f, ok)
}

// finish translates a pending-channel delivery into the caller's result.
func (c *conn) finish(f frame, ok bool) (frame, error) {
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errors.New("ctrlproto: connection closed")
		}
		return frame{}, err
	}
	if f.typ == MsgError {
		return frame{}, fmt.Errorf("ctrlproto: remote error: %s", f.payload)
	}
	return f, nil
}

// reply enqueues a response frame without flushing: the read loop that
// called the handler flushes once it has served every frame it already
// holds, so a burst of n requests costs one response write, not n.
// Responses echo the request frame's span context, so a traced
// request's response flush is attributed to its trace.
func (c *conn) reply(req frame, typ MsgType, payload []byte) error {
	return c.buffer(frame{typ: typ, resp: true, reqID: req.reqID,
		trace: req.trace, span: req.span, payload: payload})
}

func (c *conn) replyError(req frame, err error) error {
	return c.reply(req, MsgError, []byte(err.Error()))
}

// frameBuffered reports whether br already holds a complete, well-formed
// frame, i.e. whether the next readFrameBuf returns without touching the
// transport.
func frameBuffered(br *bufio.Reader) bool {
	have := br.Buffered()
	if have < 4 {
		return false
	}
	hdr, err := br.Peek(4) // does not read: the bytes are buffered
	if err != nil {
		return false
	}
	n := binary.BigEndian.Uint32(hdr)
	return n >= 6 && n <= MaxFrame && uint32(have-4) >= n
}

// readLoop is the one place a connection's incoming frames are served, on
// both ends of the wire: responses go to their waiters, requests and
// pushes to handle, inline and in arrival order, so a frame is fully
// handled before any later frame on the connection. Handlers answer with
// reply, which only buffers; the loop flushes the batch whenever the next
// read could block in the transport (no complete frame left in br). One
// transport read that delivers n pipelined requests is therefore answered
// with one write, and the loop never waits for the peer with replies
// unsent. It runs until the connection dies.
//
// A loop that is writing is not reading, so the transport has to buffer:
// over TCP a reply lands in the socket buffer and the loop moves on, but
// on a synchronous pipe (net.Pipe) a flush returns only once the peer's
// loop reads it, and two peers that each answer a request of the other
// at the same moment would wait on each other. net.Pipe is therefore only
// for traffic where one side asks at a time (tests, in-process benches).
//
// The loop locks the dispatch mutex per response and blocks in transport
// reads, so the annotation is deliberately just "no alloc": the per-frame
// cost to watch is heap churn.
//
// hotpath: no alloc
func (c *conn) readLoop(handle func(frame)) {
	unflushed := false // handle has run since the last flush
	for {
		if unflushed && !frameBuffered(c.br) {
			// A write error also fails the read below or the peer's.
			_ = c.flush()
			unflushed = false
		}
		f, err := readFrameBuf(c.br)
		if err != nil {
			//lint:ignore lockcheck the dispatch lock below is released before the next loop iteration; fail never runs under it
			c.fail(err)
			return
		}
		if f.resp {
			c.mu.Lock()
			ch, ok := c.pending[f.reqID]
			if ok {
				delete(c.pending, f.reqID)
			}
			c.mu.Unlock()
			if ok {
				ch <- f
			}
			continue
		}
		handle(f)
		unflushed = true
	}
}

// fail tears the connection down once: error paths only.
//
// hotpath: cold
func (c *conn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.err = err
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	_ = c.raw.Close()
}

func (c *conn) Close() error {
	c.fail(errors.New("ctrlproto: closed"))
	return nil
}

func marshalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("ctrlproto: marshal %T: %v", v, err)) // static types: cannot fail
	}
	return b
}
