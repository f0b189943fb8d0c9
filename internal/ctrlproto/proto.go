// Package ctrlproto is SoftCell's control channel: the framed binary
// protocol local agents use to talk to the central controller (policy-path
// requests, attach and handoff, location queries during failover recovery,
// pushed agent snapshots). It plays the role OpenFlow+Floodlight play in the
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
// Payloads are hand-packed binary (codec.go), except MsgSnapshot's, which
// is JSON: snapshots are cold and large. A warmed path request allocates
// nothing on either end of the wire: the caller's rendezvous with its
// reply is a pooled call, each connection reads every frame into one
// reused buffer, and the write buffer is double-buffered.
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
	// maxRetained bounds each buffer a connection keeps between frames
	// (its read buffer, its write buffers, a pooled call's reply): the
	// size of the bufio reader. Larger frames (snapshot pushes) get
	// one-off buffers.
	maxRetained = 32 << 10
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
		return buf, errSize("payload exceeds the frame limit", len(f.payload))
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

// readFrame reads one frame from an arbitrary reader into a fresh body
// (tests, fuzzing). The read loop uses conn.readFrame instead.
func readFrame(r io.Reader) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	return readBody(r, binary.BigEndian.Uint32(lenBuf[:]), nil)
}

// readBody reads the n-byte frame body into buf — or into a fresh array
// when buf is too small — and parses it. The payload aliases that array.
func readBody(r io.Reader, n uint32, buf []byte) (frame, error) {
	if n < 6 || n > MaxFrame {
		return frame{}, errSize("bad frame length", int(n))
	}
	if int(n) > cap(buf) {
		buf = newBuf(int(n))
	}
	body := buf[:n]
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
			return frame{}, errSize("traced frame too short", int(n))
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

// newBuf allocates a buffer the connection's retained ones cannot serve.
//
// hotpath: cold
//
//go:noinline
func newBuf(n int) []byte { return make([]byte, n) }

// SnapshotNotify is the controller-initiated push of one station's
// versioned agent view (JSON payload: snapshots are cold and large, and the
// point is that packet-ins never wait for them). It is a notification, not
// a request: the agent swaps the snapshot in (or refuses a stale version)
// locally and never replies — a pusher wanting a publish barrier follows
// the push with an Echo on the same connection, which the receiving read
// loop processes strictly after the snapshot frame.
type SnapshotNotify struct {
	Version uint64         `json:"version"`
	View    core.AgentView `json:"view"`
}

// call is one request's rendezvous with its reply. Whoever unregisters it
// from conn.pending — the read loop with the reply, fail with the
// connection's error — fills it in and signals done exactly once; the
// requester reads it after the signal. A call goes back on the free list
// only once its requester has received that signal and read the reply, and
// never after a timeout or a connection failure.
type call struct {
	done chan struct{} // capacity 1: the one signal per use
	typ  MsgType       // reply type
	buf  []byte        // reply payload, copied in by the read loop
	err  error         // connection failure instead of a reply
}

// newCall is the free list's miss path.
//
// hotpath: cold
//
//go:noinline
func newCall() *call { return &call{done: make(chan struct{}, 1)} }

// wait blocks up to timeout for the call's signal, reporting whether it
// came.
//
// hotpath: cold
func (r *call) wait(timeout time.Duration) bool {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-r.done:
		return true
	case <-t.C:
		return false
	}
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
	// body is the read loop's frame buffer: every frame up to maxRetained
	// is read into it, so a payload is valid only until the next frame is
	// read — handlers copy what they keep. out is the read loop's reply
	// scratch: handlers encode a reply payload there and reply copies it
	// into the write buffer.
	body []byte
	out  []byte

	writeMu sync.Mutex // serialises flushes of wbuf to raw
	bufMu   sync.Mutex
	wbuf    []byte // guarded by bufMu; frames awaiting the next flush
	nbuf    int    // guarded by bufMu; frame count in wbuf
	spare   []byte // guarded by writeMu; the last flush's buffer, wbuf's next
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
	pending map[uint32]*call // guarded by mu
	free    []*call          // guarded by mu; delivered calls for reuse
	closed  bool             // guarded by mu
	err     error            // guarded by mu; why the connection failed
}

func newConn(raw net.Conn) *conn {
	return &conn{
		raw:     raw,
		br:      bufio.NewReaderSize(raw, maxRetained),
		pending: make(map[uint32]*call),
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
//
// The buffer is doubled: the batch in flight is the spare, and senders
// append to the other one meanwhile, so neither is ever reallocated once
// both have grown to the connection's batch size.
func (c *conn) flush() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.bufMu.Lock()
	out, n := c.wbuf, c.nbuf
	tr, spn := c.wtrace, c.wspan
	c.wbuf, c.nbuf = c.spare[:0], 0
	c.wtrace, c.wspan = 0, 0
	c.bufMu.Unlock()
	c.spare = nil
	if cap(out) <= maxRetained {
		c.spare = out
	}
	if len(out) == 0 {
		return nil
	}
	c.flushFrames.Observe(int64(n))
	sp := c.flushSpan.Start(obs.SpanContext{Trace: obs.TraceID(tr), Span: obs.SpanID(spn)})
	_, err := c.raw.Write(out)
	sp.End()
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

// errClosed is the failure of a connection closed locally.
var errClosed = errors.New("ctrlproto: connection closed")

// request issues a request carrying span context on its frame and blocks
// for its response, retransmitting with the SAME request id after each
// timeout until a response arrives or attempts sends have gone unanswered.
// timeout <= 0 disables the timer (a single send that blocks until the
// connection dies). The reply payload is the returned call's buf; the
// caller reads it and hands the call back with release.
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
func (c *conn) request(sc obs.SpanContext, typ MsgType, payload []byte, timeout time.Duration, attempts int) (*call, error) {
	sp := c.rttSpan.Start(sc)
	defer sp.End()
	if sp.Context().Sampled() {
		sc = sp.Context()
	}
	if attempts <= 0 {
		attempts = 1
	}
	id := atomic.AddUint32(&c.nextID, 1)
	r, err := c.register(id)
	if err != nil {
		return nil, err
	}
	f := frame{typ: typ, reqID: id, trace: uint64(sc.Trace), span: uint64(sc.Span), payload: payload}
	for try := 1; ; try++ {
		if try > 1 {
			c.retrans.Inc()
		}
		if err := c.send(f); err != nil {
			if c.take(id) != nil {
				return nil, err
			}
			break // a reply or the connection's failure got there first
		}
		if timeout <= 0 {
			break
		}
		if r.wait(timeout) {
			return c.finish(r)
		}
		if try == attempts {
			return c.timedOut(id, r, attempts)
		}
	}
	<-r.done
	return c.finish(r)
}

// register files a call under request id, reusing a released one when the
// free list has it.
func (c *conn) register(id uint32) (*call, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, c.err
	}
	var r *call
	if n := len(c.free); n > 0 {
		r, c.free = c.free[n-1], c.free[:n-1]
	} else {
		r = newCall()
	}
	c.pending[id] = r
	return r, nil
}

// take unregisters the call pending under id and returns it, or nil when
// there is none (answered, failed or given up on). Taking a call is the
// right to signal it.
func (c *conn) take(id uint32) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.pending[id]
	delete(c.pending, id)
	return r
}

// release puts a delivered call on the free list once its requester is
// done with the reply; a reply buffer grown past maxRetained is dropped.
func (c *conn) release(r *call) {
	if cap(r.buf) > maxRetained {
		r.buf = nil
	}
	c.mu.Lock()
	c.free = append(c.free, r)
	c.mu.Unlock()
}

// finish turns a signalled call into the requester's result.
func (c *conn) finish(r *call) (*call, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.typ == MsgError {
		err := remoteError(r.buf)
		c.release(r)
		return nil, err
	}
	return r, nil
}

// timedOut ends a request whose last attempt went unanswered. A reply
// racing the final timeout wins; otherwise the call is unregistered, so no
// late reply can land in it, and it is left to the collector.
//
// hotpath: cold
func (c *conn) timedOut(id uint32, r *call, attempts int) (*call, error) {
	if c.take(id) == nil {
		<-r.done
		return c.finish(r)
	}
	return nil, fmt.Errorf("%w after %d attempts", ErrTimeout, attempts)
}

// remoteError is the requester's view of a MsgError reply.
//
// hotpath: cold
//
//go:noinline
func remoteError(msg []byte) error {
	return fmt.Errorf("ctrlproto: remote error: %s", msg)
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

// replyError answers req with the error's text.
//
// hotpath: cold
func (c *conn) replyError(req frame, err error) error {
	return c.reply(req, MsgError, []byte(err.Error()))
}

// frameBuffered reports whether br already holds a complete, well-formed
// frame, i.e. whether the next readFrame returns without touching the
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

// readFrame reads the connection's next frame into its body buffer. The
// length header is peeked straight out of the bufio buffer, and the body
// buffer grows (up to maxRetained) only when a frame outgrows it, so the
// read loop allocates nothing per frame.
func (c *conn) readFrame() (frame, error) {
	hdr, err := c.br.Peek(4)
	if err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if _, err := c.br.Discard(4); err != nil {
		return frame{}, err
	}
	if int(n) > cap(c.body) && n <= maxRetained {
		c.body = newBuf(min(max(int(n), 2*cap(c.body), 512), maxRetained))
	}
	return readBody(c.br, n, c.body)
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
		f, err := c.readFrame()
		if err != nil {
			c.fail(err)
			return
		}
		if f.resp {
			if r := c.take(f.reqID); r != nil {
				r.typ = f.typ
				r.buf = append(r.buf[:0], f.payload...)
				r.done <- struct{}{}
			}
			continue
		}
		handle(f)
		unflushed = true
	}
}

// fail tears the connection down once and fails every pending request with
// err: error paths only.
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
	for id, r := range c.pending {
		delete(c.pending, id)
		r.err = err
		r.done <- struct{}{} // cannot block: a pending call has not been signalled
	}
	_ = c.raw.Close()
}

func (c *conn) Close() error {
	c.fail(errClosed)
	return nil
}

func marshalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("ctrlproto: marshal %T: %v", v, err)) // static types: cannot fail
	}
	return b
}
