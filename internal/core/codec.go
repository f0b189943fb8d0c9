package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/policy"
)

// This file is the tree's one binary codec for subscriber attributes and the
// primitives around it: the records the subscriber table writes through to
// the replicated store, and the control channel's hand-packed messages
// (ctrlproto) built from the same helpers. Encoders append into a
// caller-owned buffer; Decoder reads them back.

// recordVersion tags the store record encoding; bump on any layout change.
const recordVersion = 1

// AppendString appends s with a uvarint length prefix.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// attrFlag bits pack the boolean attributes.
const (
	attrRoaming = 1 << iota
	attrOverCap
	attrParental
)

// AttributesMinBytes is the smallest encoding AppendAttributes produces: five
// empty strings and the flag byte.
const AttributesMinBytes = 6

// AppendAttributes appends a subscriber's attributes: five strings, then one
// byte of boolean flags.
func AppendAttributes(dst []byte, a policy.Attributes) []byte {
	dst = AppendString(dst, a.Provider)
	dst = AppendString(dst, a.Plan)
	dst = AppendString(dst, a.DeviceType)
	dst = AppendString(dst, a.Model)
	dst = AppendString(dst, a.OSVersion)
	var flags byte
	if a.Roaming {
		flags |= attrRoaming
	}
	if a.OverCap {
		flags |= attrOverCap
	}
	if a.Parental {
		flags |= attrParental
	}
	return append(dst, flags)
}

// AppendSubscriberRecord encodes one subscriber-attribute record (the
// "sub/<imsi>" store value).
func AppendSubscriberRecord(dst []byte, a policy.Attributes) []byte {
	dst = append(dst, recordVersion)
	return AppendAttributes(dst, a)
}

// DecodeSubscriberRecord decodes a "sub/<imsi>" store value.
func DecodeSubscriberRecord(blob []byte) (policy.Attributes, error) {
	d := NewDecoder(blob)
	if v := d.Byte(); v != recordVersion {
		return policy.Attributes{}, fmt.Errorf("core: subscriber record version %d, want %d", v, recordVersion)
	}
	a := d.Attributes()
	if err := d.Finish(); err != nil {
		return policy.Attributes{}, fmt.Errorf("core: corrupt subscriber record: %w", err)
	}
	return a, nil
}

// errMalformed is the one decode error: the bytes ended early, a count
// claimed more elements than the bytes left could hold, or bytes were left
// over.
var errMalformed = errors.New("truncated or malformed record")

// Decoder is a bounds-checked cursor over bytes the Append helpers (and
// encoding/binary's) wrote. The first failure sticks: every later read
// returns the zero value, so a caller checks Finish once at the end.
//
// Every string a Decoder returns is cut from one string copy of the bytes
// left at its first Str call, so a decoded message's strings share a single
// backing array.
type Decoder struct {
	buf  []byte
	text string // string(buf) as of the first Str call; buf is always a suffix of it
	err  error
}

// NewDecoder starts a decoder at the beginning of b.
func NewDecoder(b []byte) Decoder { return Decoder{buf: b} }

// Fail marks the input malformed.
func (d *Decoder) Fail() {
	if d.err == nil {
		d.err = errMalformed
	}
}

// Finish reports the first failure, or a failure when bytes are left over.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) > 0 {
		d.Fail()
	}
	return d.err
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.Fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Uint32 reads four big-endian bytes.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.Fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.Fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Count reads an element count and fails unless the bytes left could hold
// that many elements of at least minBytes each, so a caller can size a slice
// from it without trusting the input.
func (d *Decoder) Count(minBytes int) int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)/minBytes) {
		d.Fail()
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.Fail()
		return ""
	}
	if d.text == "" {
		d.text = string(d.buf)
	}
	start := len(d.text) - len(d.buf)
	d.buf = d.buf[n:]
	return d.text[start : start+int(n)]
}

// Attributes reads what AppendAttributes wrote.
func (d *Decoder) Attributes() policy.Attributes {
	var a policy.Attributes
	a.Provider = d.Str()
	a.Plan = d.Str()
	a.DeviceType = d.Str()
	a.Model = d.Str()
	a.OSVersion = d.Str()
	flags := d.Byte()
	a.Roaming = flags&attrRoaming != 0
	a.OverCap = flags&attrOverCap != 0
	a.Parental = flags&attrParental != 0
	return a
}
