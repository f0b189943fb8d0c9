package ctrlproto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

// Payload codecs. Every message is hand-packed with core's codec helpers:
// fixed four-byte big-endian fields for addresses, stations, tags, node ids
// and clause numbers (32 bits, as in PathRequest), uvarint counts, string
// lengths and versions. Encoders append to a caller-owned buffer (a stack
// array or the read loop's reply scratch), so encoding allocates nothing
// once the buffer has grown. Decoders check every count against the bytes
// left before sizing a slice from it, and a decoded message puts all its
// strings in one backing array and each slice-typed field set in one more
// (a snapshot push, which is cold, one per UE's classifiers).

// PathRequest is the hot-path message: 8 bytes.
type PathRequest struct {
	BS     packet.BSID
	Clause uint32
}

func (p PathRequest) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.BS))
	return binary.BigEndian.AppendUint32(dst, p.Clause)
}

func parsePathRequest(b []byte) (PathRequest, error) {
	if len(b) != 8 {
		return PathRequest{}, errSize("path request payload", len(b))
	}
	return PathRequest{
		BS:     packet.BSID(binary.BigEndian.Uint32(b[0:4])),
		Clause: binary.BigEndian.Uint32(b[4:8]),
	}, nil
}

// PathReply carries the tag, 4 bytes.
type PathReply struct{ Tag packet.Tag }

func (p PathReply) appendTo(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(p.Tag))
}

func parsePathReply(b []byte) (PathReply, error) {
	if len(b) != 4 {
		return PathReply{}, errSize("path reply payload", len(b))
	}
	return PathReply{Tag: packet.Tag(binary.BigEndian.Uint32(b))}, nil
}

// errorCodes is the closed table of sentinel errors a MsgError reply can
// name: its code byte is the index of the first one the error wraps, 0 when
// it wraps none.
var errorCodes = [...]error{
	1: core.ErrNotAttached,
	2: core.ErrNotOwned,
	3: core.ErrPermPoolExhausted,
	4: core.ErrShardDown,
}

// errorCode is the code of the sentinel err wraps, 0 for none.
//
// hotpath: cold
func errorCode(err error) uint8 {
	for code, sentinel := range errorCodes {
		if errors.Is(err, sentinel) {
			return uint8(code)
		}
	}
	return 0
}

// remoteError is a MsgError payload and the requester's view of it: the
// peer's error text, plus the code of the sentinel it wrapped. A code the
// table does not list reads as a plain remote error.
type remoteError struct {
	code uint8
	text string
}

func (e remoteError) Error() string { return "ctrlproto: remote error: " + e.text }

// Is reports whether target is the sentinel the peer's code names.
func (e remoteError) Is(target error) bool {
	return int(e.code) < len(errorCodes) && errorCodes[e.code] == target
}

func (e remoteError) appendTo(dst []byte) []byte {
	return append(append(dst, e.code), e.text...)
}

func parseRemoteError(b []byte) (remoteError, error) {
	if len(b) == 0 {
		return remoteError{}, errSize("error payload", 0)
	}
	return remoteError{code: b[0], text: string(b[1:])}, nil
}

// errSize reports a frame or payload whose length the protocol rejects.
//
// hotpath: cold
//
//go:noinline
func errSize(what string, n int) error {
	return fmt.Errorf("ctrlproto: %s: %d bytes", what, n)
}

// AttachRequest admits a UE: its IMSI, then the station.
type AttachRequest struct {
	IMSI string
	BS   packet.BSID
}

func (r AttachRequest) appendTo(dst []byte) []byte {
	dst = core.AppendString(dst, r.IMSI)
	return binary.BigEndian.AppendUint32(dst, uint32(r.BS))
}

func parseAttachRequest(b []byte) (AttachRequest, error) {
	d := core.NewDecoder(b)
	r := AttachRequest{IMSI: d.Str(), BS: packet.BSID(d.Uint32())}
	return r, finishDecode(&d, "attach request")
}

// HandoffRequest moves a UE: its IMSI, then the target station. The reply
// is a core.HandoffResult.
type HandoffRequest struct {
	IMSI  string
	NewBS packet.BSID
}

func (r HandoffRequest) appendTo(dst []byte) []byte {
	dst = core.AppendString(dst, r.IMSI)
	return binary.BigEndian.AppendUint32(dst, uint32(r.NewBS))
}

func parseHandoffRequest(b []byte) (HandoffRequest, error) {
	d := core.NewDecoder(b)
	r := HandoffRequest{IMSI: d.Str(), NewBS: packet.BSID(d.Uint32())}
	return r, finishDecode(&d, "handoff request")
}

// AttachReply returns the UE record and its classifiers.
type AttachReply struct {
	UE          core.UE
	Classifiers []core.Classifier
}

func (r AttachReply) appendTo(dst []byte) []byte {
	dst = appendUE(dst, r.UE)
	return appendClassifiers(dst, r.Classifiers)
}

func parseAttachReply(b []byte) (AttachReply, error) {
	d := core.NewDecoder(b)
	r := AttachReply{UE: decodeUE(&d), Classifiers: decodeClassifiers(&d)}
	return r, finishDecode(&d, "attach reply")
}

func appendHandoffResult(dst []byte, r core.HandoffResult) []byte {
	dst = appendUE(dst, r.UE)
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.OldBS))
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.OldLocIP))
	dst = appendClassifiers(dst, r.Classifiers)
	return appendShortcuts(dst, r.Shortcuts)
}

func parseHandoffResult(b []byte) (core.HandoffResult, error) {
	d := core.NewDecoder(b)
	var r core.HandoffResult
	r.UE = decodeUE(&d)
	r.OldBS = packet.BSID(d.Uint32())
	r.OldLocIP = packet.Addr(d.Uint32())
	r.Classifiers = decodeClassifiers(&d)
	r.Shortcuts = decodeShortcuts(&d)
	return r, finishDecode(&d, "handoff result")
}

// appendLocationReport encodes an agent's answer to MsgLocationQuery: its
// station, then its UEs.
func appendLocationReport(dst []byte, r core.AgentLocationReport) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.BS))
	dst = binary.AppendUvarint(dst, uint64(len(r.UEs)))
	for _, u := range r.UEs {
		dst = appendUE(dst, u)
	}
	return dst
}

func parseLocationReport(b []byte) (core.AgentLocationReport, error) {
	d := core.NewDecoder(b)
	var r core.AgentLocationReport
	r.BS = packet.BSID(d.Uint32())
	if n := d.Count(ueMinBytes); n > 0 {
		r.UEs = make([]core.UE, n)
		for i := range r.UEs {
			r.UEs[i] = decodeUE(&d)
		}
	}
	return r, finishDecode(&d, "location report")
}

// appendSnapshotNotify encodes a pushed snapshot: its version, the view's
// station and epoch, the view's UEs each followed by its classifiers and its
// reserved LocIPs, then the station's tag grants.
func appendSnapshotNotify(dst []byte, n SnapshotNotify) []byte {
	dst = binary.AppendUvarint(dst, n.Version)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n.View.BS))
	dst = binary.AppendUvarint(dst, n.View.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(n.View.UEs)))
	for _, u := range n.View.UEs {
		dst = appendUE(dst, u.UE)
		dst = appendClassifiers(dst, u.Classifiers)
		dst = binary.AppendUvarint(dst, uint64(len(u.Reserved)))
		for _, loc := range u.Reserved {
			dst = binary.BigEndian.AppendUint32(dst, uint32(loc))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(n.View.Tags)))
	for _, g := range n.View.Tags {
		dst = binary.BigEndian.AppendUint32(dst, uint32(g.Clause))
		dst = binary.BigEndian.AppendUint32(dst, uint32(g.Tag))
	}
	return dst
}

func parseSnapshotNotify(b []byte) (SnapshotNotify, error) {
	d := core.NewDecoder(b)
	var n SnapshotNotify
	n.Version = d.Uvarint()
	n.View.BS = packet.BSID(d.Uint32())
	n.View.Epoch = d.Uvarint()
	if k := d.Count(ueMinBytes + 2); k > 0 {
		n.View.UEs = make([]core.AgentViewUE, k)
		for i := range n.View.UEs {
			u := &n.View.UEs[i]
			u.UE, u.Classifiers = decodeUE(&d), decodeClassifiers(&d)
			if r := d.Count(4); r > 0 {
				u.Reserved = make([]packet.Addr, r)
				for j := range u.Reserved {
					u.Reserved[j] = packet.Addr(d.Uint32())
				}
			}
		}
	}
	if k := d.Count(8); k > 0 {
		n.View.Tags = make([]core.TagGrant, k)
		for i := range n.View.Tags {
			n.View.Tags[i] = core.TagGrant{Clause: int(int32(d.Uint32())), Tag: packet.Tag(d.Uint32())}
		}
	}
	return n, finishDecode(&d, "snapshot notify")
}

// finishDecode closes a message decode: the first failure, or leftover bytes,
// becomes the message's error.
func finishDecode(d *core.Decoder, msg string) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("ctrlproto: %s: %w", msg, err)
	}
	return nil
}

// ueMinBytes is the smallest UE encoding: an empty IMSI, empty attributes
// and four fixed fields.
const ueMinBytes = 1 + core.AttributesMinBytes + 16

func appendUE(dst []byte, u core.UE) []byte {
	dst = core.AppendString(dst, u.IMSI)
	dst = core.AppendAttributes(dst, u.Attr)
	dst = binary.BigEndian.AppendUint32(dst, uint32(u.PermIP))
	dst = binary.BigEndian.AppendUint32(dst, uint32(u.BS))
	dst = binary.BigEndian.AppendUint32(dst, uint32(u.UEID))
	return binary.BigEndian.AppendUint32(dst, uint32(u.LocIP))
}

func decodeUE(d *core.Decoder) core.UE {
	var u core.UE
	u.IMSI = d.Str()
	u.Attr = d.Attributes()
	u.PermIP = packet.Addr(d.Uint32())
	u.BS = packet.BSID(d.Uint32())
	u.UEID = packet.UEID(d.Uint32())
	u.LocIP = packet.Addr(d.Uint32())
	return u
}

// classifierMinBytes: app, clause, tag, allow, QoS.
const classifierMinBytes = 1 + 4 + 4 + 1 + 1

func appendClassifiers(dst []byte, cls []core.Classifier) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cls)))
	for _, c := range cls {
		dst = append(dst, byte(c.App))
		dst = binary.BigEndian.AppendUint32(dst, uint32(c.Clause))
		dst = binary.BigEndian.AppendUint32(dst, uint32(c.Tag))
		var allow byte
		if c.Allow {
			allow = 1
		}
		dst = append(dst, allow, byte(c.QoS))
	}
	return dst
}

func decodeClassifiers(d *core.Decoder) []core.Classifier {
	n := d.Count(classifierMinBytes)
	if n == 0 {
		return nil
	}
	cls := make([]core.Classifier, n)
	for i := range cls {
		c := &cls[i]
		c.App = policy.AppType(d.Byte())
		c.Clause = int(int32(d.Uint32()))
		c.Tag = packet.Tag(d.Uint32())
		c.Allow = d.Byte() != 0
		c.QoS = policy.QoS(d.Byte())
	}
	return cls
}

// shortcutMinBytes: loc, branch middlebox, delivery tag, two empty counts.
const shortcutMinBytes = 4 + 4 + 4 + 1 + 1

// appendShortcuts writes the shortcut count and, when there are any, the
// total route hops and path tags across them, so a decoder sizes one array
// for every Route and one for every PathTags.
func appendShortcuts(dst []byte, scs []*core.Shortcut) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(scs)))
	if len(scs) == 0 {
		return dst
	}
	hops, tags := 0, 0
	for _, s := range scs {
		hops += len(s.Route)
		tags += len(s.PathTags)
	}
	dst = binary.AppendUvarint(dst, uint64(hops))
	dst = binary.AppendUvarint(dst, uint64(tags))
	for _, s := range scs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(s.Loc))
		dst = binary.BigEndian.AppendUint32(dst, uint32(s.BranchMB))
		dst = binary.BigEndian.AppendUint32(dst, uint32(s.Delivery))
		dst = binary.AppendUvarint(dst, uint64(len(s.Route)))
		for _, n := range s.Route {
			dst = binary.BigEndian.AppendUint32(dst, uint32(n))
		}
		dst = binary.AppendUvarint(dst, uint64(len(s.PathTags)))
		for _, t := range s.PathTags {
			dst = binary.BigEndian.AppendUint32(dst, uint32(t))
		}
	}
	return dst
}

// Sizes of the block one message's shortcuts decode into; a message with
// more shortcuts, route hops or path tags decodes into separate arrays.
const (
	blockShortcuts = 8
	blockHops      = 8 * blockShortcuts
	blockTags      = 2 * blockShortcuts
)

// shortcutBlock is one allocation holding a decoded message's shortcut
// handles, the shortcuts, and every route hop and path tag they carry.
type shortcutBlock struct {
	out  [blockShortcuts]*core.Shortcut
	scs  [blockShortcuts]core.Shortcut
	hops [blockHops]topo.NodeID
	tags [blockTags]packet.Tag
}

func decodeShortcuts(d *core.Decoder) []*core.Shortcut {
	n := d.Count(shortcutMinBytes)
	if n == 0 {
		return nil
	}
	nh := d.Count(4)
	nt := d.Count(4)
	var (
		out  []*core.Shortcut
		scs  []core.Shortcut
		hops []topo.NodeID
		tags []packet.Tag
	)
	if n <= blockShortcuts && nh <= blockHops && nt <= blockTags {
		b := new(shortcutBlock)
		out, scs, hops, tags = b.out[:n:n], b.scs[:n:n], b.hops[:nh:nh], b.tags[:nt:nt]
	} else {
		out, scs, hops, tags = make([]*core.Shortcut, n), make([]core.Shortcut, n), make([]topo.NodeID, nh), make([]packet.Tag, nt)
	}
	for i := range scs {
		s := &scs[i]
		s.Loc = packet.Addr(d.Uint32())
		s.BranchMB = topo.MBInstanceID(d.Uint32())
		s.Delivery = packet.Tag(d.Uint32())
		s.Route, hops = carve(d, hops)
		s.PathTags, tags = carve(d, tags)
		out[i] = s
	}
	if len(hops) != 0 || len(tags) != 0 {
		d.Fail() // the totals promised more than the shortcuts used
	}
	return out
}

// carve reads a count and that many four-byte values into the front of
// pool, returning them (nil when none) and what is left of the pool.
func carve[T ~int32 | ~uint32](d *core.Decoder, pool []T) (got, rest []T) {
	k := d.Uvarint()
	if k > uint64(len(pool)) {
		d.Fail()
		return nil, pool
	}
	if k == 0 {
		return nil, pool
	}
	got, rest = pool[:k:k], pool[k:]
	for i := range got {
		got[i] = T(d.Uint32())
	}
	return got, rest
}
