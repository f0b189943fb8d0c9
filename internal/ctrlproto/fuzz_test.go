package ctrlproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzEncodeDecode round-trips arbitrary frames through writeFrame/readFrame:
// everything the writer accepts must read back identically, including the
// optional span-context header on traced frames.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(byte(MsgPathRequest), false, uint32(1), uint64(0), uint64(0), []byte("\x00\x00\x00\x07\x00\x00\x00\x2a"))
	f.Add(byte(MsgError), true, uint32(0xFFFFFFFF), uint64(0), uint64(0), []byte("boom"))
	f.Add(byte(0), false, uint32(0), uint64(0), uint64(0), []byte{})
	f.Add(byte(MsgPathRequest), false, uint32(7), uint64(42), uint64(9), []byte("\x00\x00\x00\x07\x00\x00\x00\x2a"))
	f.Add(byte(MsgHandoff), true, uint32(3), uint64(1<<63), uint64(0xFFFFFFFFFFFFFFFF), []byte("{}"))
	f.Fuzz(func(t *testing.T, typ byte, resp bool, reqID uint32, trace, span uint64, payload []byte) {
		if len(payload) > MaxFrame-6-traceBytes {
			payload = payload[:MaxFrame-6-traceBytes]
		}
		if trace == 0 {
			span = 0 // canonical form: untraced frames carry no span id
		}
		in := frame{typ: MsgType(typ), resp: resp, reqID: reqID, trace: trace, span: span, payload: payload}
		var buf bytes.Buffer
		if err := writeFrame(&buf, in); err != nil {
			t.Fatalf("writeFrame rejected an in-range frame: %v", err)
		}
		out, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame of written bytes: %v", err)
		}
		if out.typ != in.typ || out.resp != in.resp || out.reqID != in.reqID {
			t.Fatalf("frame header round-trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
		if out.trace != in.trace || out.span != in.span {
			t.Fatalf("span context round-trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
		if !bytes.Equal(out.payload, in.payload) {
			t.Fatalf("payload round-trip mismatch: in=%x out=%x", in.payload, out.payload)
		}
		if buf.Len() != 0 {
			t.Fatalf("readFrame left %d bytes unconsumed", buf.Len())
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// accept a payload above MaxFrame, and any frame it does accept must survive
// a write/read round trip. (Unknown flag bits are dropped on re-encode, so
// the comparison is at the frame level, not the raw bytes.)
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x09\x01\x00\x00\x00\x00\x01abc"))
	f.Add([]byte("\x00\x00\x00\x06\x02\x01\x00\x00\x00\x2a"))
	f.Add([]byte("\x00\x00\x00\x00"))
	f.Add([]byte("\xFF\xFF\xFF\xFF\x01\x00"))
	// A traced path request: flags bit 1 set, 16-byte span context
	// (trace 5, span 3) between the request id and the payload.
	f.Add([]byte("\x00\x00\x00\x1e\x03\x02\x00\x00\x00\x07" +
		"\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x03" +
		"\x00\x00\x00\x07\x00\x00\x00\x2a"))
	// Traced flag set but the frame is too short to hold the context:
	// must be rejected, not mis-sliced.
	f.Add([]byte("\x00\x00\x00\x0a\x03\x02\x00\x00\x00\x07\x00\x00\x00\x05"))
	// Traced flag with an all-zero trace id: canonically untraced.
	f.Add([]byte("\x00\x00\x00\x16\x03\x02\x00\x00\x00\x07" +
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(in.payload) > MaxFrame {
			t.Fatalf("accepted a %d-byte payload above MaxFrame", len(in.payload))
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, in); err != nil {
			t.Fatalf("writeFrame of an accepted frame: %v", err)
		}
		out, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if out.typ != in.typ || out.resp != in.resp || out.reqID != in.reqID ||
			out.trace != in.trace || out.span != in.span || !bytes.Equal(out.payload, in.payload) {
			t.Fatalf("read/write/read mismatch:\n in=%+v\nout=%+v", in, out)
		}
	})
}

// wireCodec is one hand-packed message's decoder and encoder, typed away so
// the fuzz target and the round-trip property can drive them all. msg is the
// message type whose request or reply payload it is, typ its Go type.
type wireCodec struct {
	msg    MsgType
	name   string
	typ    reflect.Type
	decode func([]byte) (any, error)
	encode func(any) []byte
}

func codecOf[M any](msg MsgType, name string, dec func([]byte) (M, error), enc func(M, []byte) []byte) wireCodec {
	return wireCodec{
		msg:    msg,
		name:   name,
		typ:    reflect.TypeOf((*M)(nil)).Elem(),
		decode: func(b []byte) (any, error) { m, err := dec(b); return m, err },
		encode: func(v any) []byte { return enc(v.(M), nil) },
	}
}

// wireCodecs lists every hand-packed payload; the first byte of a fuzz
// input picks one.
var wireCodecs = []wireCodec{
	codecOf(MsgPathRequest, "path request", parsePathRequest, PathRequest.appendTo),
	codecOf(MsgPathRequest, "path reply", parsePathReply, PathReply.appendTo),
	codecOf(MsgAttach, "attach request", parseAttachRequest, AttachRequest.appendTo),
	codecOf(MsgHandoff, "handoff request", parseHandoffRequest, HandoffRequest.appendTo),
	codecOf(MsgAttach, "attach reply", parseAttachReply, AttachReply.appendTo),
	codecOf(MsgHandoff, "handoff result", parseHandoffResult, func(r core.HandoffResult, dst []byte) []byte {
		return appendHandoffResult(dst, r)
	}),
	codecOf(MsgLocationQuery, "location report", parseLocationReport, func(r core.AgentLocationReport, dst []byte) []byte {
		return appendLocationReport(dst, r)
	}),
	codecOf(MsgError, "remote error", parseRemoteError, remoteError.appendTo),
	codecOf(MsgSnapshot, "snapshot notify", parseSnapshotNotify, func(n SnapshotNotify, dst []byte) []byte {
		return appendSnapshotNotify(dst, n)
	}),
}

// FuzzWireCodec feeds arbitrary bytes to the message decoders. A decoder
// must never panic, must size no slice beyond the input's length (a count
// is checked against the bytes left before anything is allocated), and
// every message it accepts must round-trip: re-encoding and re-decoding it
// yields the same value and the same bytes. The corpus under
// testdata/fuzz/FuzzWireCodec holds one valid encoding of each message and
// a few malformed ones; the seeds added here are a handoff result with more
// shortcuts than decodeShortcuts' block holds, so the fallback is covered,
// and one error reply per code of the sentinel table.
func FuzzWireCodec(f *testing.F) {
	for i, c := range wireCodecs {
		switch c.name {
		case "handoff result":
			res := newConstPlane().res
			res.Shortcuts = shortcutsOf(blockShortcuts + 1)
			f.Add(append([]byte{byte(i)}, appendHandoffResult(nil, res)...))
		case "remote error":
			for code := range errorCodes {
				f.Add(remoteError{code: uint8(code), text: "refused"}.appendTo([]byte{byte(i)}))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := wireCodecs[int(data[0])%len(wireCodecs)]
		payload := data[1:]
		v, err := c.decode(payload)
		if err != nil {
			return
		}
		if n := longestSlice(reflect.ValueOf(v)); n > len(payload) {
			t.Fatalf("%s: a %d-byte payload decoded into a %d-element slice", c.name, len(payload), n)
		}
		enc := c.encode(v)
		v2, err := c.decode(enc)
		if err != nil {
			t.Fatalf("%s: re-decoding an accepted message: %v", c.name, err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("%s: round trip changed the message:\n in=%+v\nout=%+v", c.name, v, v2)
		}
		if enc2 := c.encode(v2); !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: re-encoding changed the bytes: %x -> %x", c.name, enc, enc2)
		}
	})
}

// longestSlice is the largest capacity of any slice reachable from v.
func longestSlice(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			n = longestSlice(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n = max(n, longestSlice(v.Field(i)))
		}
	case reflect.Slice:
		n = v.Cap()
		for i := 0; i < v.Len(); i++ {
			n = max(n, longestSlice(v.Index(i)))
		}
	}
	return n
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

// readFrame reads one frame from an arbitrary reader into a fresh body.
// The read loop uses conn.readFrame instead.
func readFrame(r io.Reader) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	return readBody(r, binary.BigEndian.Uint32(lenBuf[:]), nil)
}
