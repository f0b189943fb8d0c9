package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/policy"
)

// This file is the binary codec for the subscriber records the table writes
// through to the replicated store. It appends into a caller-owned scratch
// buffer (store.Put copies the value once per commit, so the buffer is
// immediately reusable) and is versioned so a mixed-version store stays
// readable.

// recordVersion tags the encoding; bump on any layout change.
const recordVersion = 1

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// attrFlag bits pack the boolean attributes.
const (
	attrRoaming = 1 << iota
	attrOverCap
	attrParental
)

func appendAttributes(dst []byte, a policy.Attributes) []byte {
	dst = appendString(dst, a.Provider)
	dst = appendString(dst, a.Plan)
	dst = appendString(dst, a.DeviceType)
	dst = appendString(dst, a.Model)
	dst = appendString(dst, a.OSVersion)
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
	return appendAttributes(dst, a)
}

// DecodeSubscriberRecord decodes a "sub/<imsi>" store value.
func DecodeSubscriberRecord(blob []byte) (policy.Attributes, error) {
	d := decoder{buf: blob}
	if v := d.byte(); v != recordVersion {
		return policy.Attributes{}, fmt.Errorf("core: subscriber record version %d, want %d", v, recordVersion)
	}
	a := d.attributes()
	if d.err != nil {
		return policy.Attributes{}, fmt.Errorf("core: corrupt subscriber record: %w", d.err)
	}
	return a, nil
}

// decoder is a bounds-checked cursor over an encoded record.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated record")
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) string() string {
	if d.err != nil {
		return ""
	}
	n, used := binary.Uvarint(d.buf)
	if used <= 0 || uint64(len(d.buf)-used) < n {
		d.fail()
		return ""
	}
	s := string(d.buf[used : used+int(n)])
	d.buf = d.buf[used+int(n):]
	return s
}

func (d *decoder) attributes() policy.Attributes {
	var a policy.Attributes
	a.Provider = d.string()
	a.Plan = d.string()
	a.DeviceType = d.string()
	a.Model = d.string()
	a.OSVersion = d.string()
	flags := d.byte()
	a.Roaming = flags&attrRoaming != 0
	a.OverCap = flags&attrOverCap != 0
	a.Parental = flags&attrParental != 0
	return a
}
