package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/policy"
)

// The subscriber record must survive a round trip, and a blob cut anywhere —
// what a torn replica write would leave — must fail to decode, not panic or
// yield a partial record.
func TestStoreRecordRoundTrip(t *testing.T) {
	attr := policy.Attributes{Provider: "A", Plan: "silver", DeviceType: "phone",
		Model: "m1", OSVersion: "7.1", Roaming: true, Parental: true}

	sub := AppendSubscriberRecord(nil, attr)
	gotAttr, err := DecodeSubscriberRecord(sub)
	if err != nil || gotAttr != attr {
		t.Fatalf("subscriber round trip = %+v, %v; want %+v", gotAttr, err, attr)
	}
	for n := 0; n < len(sub); n++ {
		if _, err := DecodeSubscriberRecord(sub[:n]); err == nil {
			t.Fatalf("subscriber record cut to %d of %d bytes decoded", n, len(sub))
		}
	}

	sub[0] = recordVersion + 1
	if _, err := DecodeSubscriberRecord(sub); err == nil {
		t.Fatal("subscriber record of an unknown version decoded")
	}
}

// The decoder's primitives read back what the encoders wrote, a cut
// anywhere fails, and a count beyond the bytes left fails before anything
// is sized from it.
func TestDecoderPrimitives(t *testing.T) {
	attr := policy.Attributes{Provider: "B", Plan: "gold", OverCap: true}
	var b []byte
	b = AppendString(b, "imsi-1")
	b = binary.BigEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.AppendUvarint(b, 2) // a count of two 1-byte elements
	b = append(b, 'x', 'y')
	b = AppendAttributes(b, attr)

	read := func(b []byte) (s string, u uint32, n int, a policy.Attributes, err error) {
		d := NewDecoder(b)
		s, u = d.Str(), d.Uint32()
		n = d.Count(1)
		d.Byte()
		d.Byte()
		a = d.Attributes()
		return s, u, n, a, d.Finish()
	}
	s, u, n, a, err := read(b)
	if err != nil || s != "imsi-1" || u != 0xdeadbeef || n != 2 || a != attr {
		t.Fatalf("decoded %q %x %d %+v, %v", s, u, n, a, err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, _, _, _, err := read(b[:cut]); err == nil {
			t.Fatalf("input cut to %d of %d bytes decoded", cut, len(b))
		}
	}
	if _, _, _, _, err := read(append(b, 0)); err == nil {
		t.Fatal("a trailing byte was accepted")
	}

	d := NewDecoder(binary.AppendUvarint(nil, 1<<40))
	if d.Count(1) != 0 || d.Finish() == nil {
		t.Fatal("a count larger than the input was accepted")
	}
}
