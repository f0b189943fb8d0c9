package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAddrString(t *testing.T) {
	a := AddrFrom4(10, 1, 2, 3)
	if a.String() != "10.1.2.3" {
		t.Fatalf("String = %q", a.String())
	}
}

// TestAddrHashSpreadsConsecutiveAddresses: a station's LocIPs are
// consecutive, and a table that takes a key's slot from the hash's top
// bits must still spread them: 1 024 consecutive addresses fill each of
// the 16 top-nibble buckets with between half and twice their share.
func TestAddrHashSpreadsConsecutiveAddresses(t *testing.T) {
	var buckets [16]int
	for a := AddrFrom4(10, 1, 0, 0); a < AddrFrom4(10, 1, 4, 0); a++ {
		buckets[a.Hash()>>28]++
	}
	for b, n := range buckets {
		if n < 32 || n > 128 {
			t.Fatalf("bucket %d holds %d of 1 024 consecutive addresses, want 32 to 128: %v", b, n, buckets)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := NewPrefix(AddrFrom4(10, 1, 0, 0), 16)
	if !p.Contains(AddrFrom4(10, 1, 200, 3)) {
		t.Error("should contain 10.1.200.3")
	}
	if p.Contains(AddrFrom4(10, 2, 0, 0)) {
		t.Error("should not contain 10.2.0.0")
	}
	all := NewPrefix(0, 0)
	if !all.Contains(AddrFrom4(255, 255, 255, 255)) {
		t.Error("/0 should contain everything")
	}
}

func TestNewPrefixMasksHostBits(t *testing.T) {
	p := NewPrefix(AddrFrom4(10, 1, 2, 3), 16)
	if p.Addr != AddrFrom4(10, 1, 0, 0) {
		t.Fatalf("host bits not masked: %s", p)
	}
	if p.String() != "10.1.0.0/16" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestNewPrefixClampsLength(t *testing.T) {
	if p := NewPrefix(1, 40); p.Len != 32 {
		t.Errorf("len clamp high: %d", p.Len)
	}
	if p := NewPrefix(1, -2); p.Len != 0 {
		t.Errorf("len clamp low: %d", p.Len)
	}
}

func TestPrefixSiblingParent(t *testing.T) {
	p := NewPrefix(AddrFrom4(10, 0, 0, 0), 9) // 10.0.0.0/9
	sib, ok := p.Sibling()
	if !ok || sib.Addr != AddrFrom4(10, 128, 0, 0) || sib.Len != 9 {
		t.Fatalf("sibling = %v %v", sib, ok)
	}
	par, ok := p.Parent()
	if !ok || par.String() != "10.0.0.0/8" {
		t.Fatalf("parent = %v %v", par, ok)
	}
	if _, ok := (Prefix{}).Sibling(); ok {
		t.Error("/0 has no sibling")
	}
	if _, ok := (Prefix{}).Parent(); ok {
		t.Error("/0 has no parent")
	}
}

// Property: a prefix and its sibling are disjoint and their parent covers both.
func TestSiblingDisjointParentCovers(t *testing.T) {
	f := func(raw uint32, lraw uint8) bool {
		l := int(lraw%32) + 1
		p := NewPrefix(Addr(raw), l)
		sib, ok := p.Sibling()
		if !ok {
			return false
		}
		if p.Overlaps(sib) {
			return false
		}
		par, _ := p.Parent()
		return par.ContainsPrefix(p) && par.ContainsPrefix(sib)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContainsPrefix(t *testing.T) {
	a := NewPrefix(AddrFrom4(10, 0, 0, 0), 8)
	b := NewPrefix(AddrFrom4(10, 5, 0, 0), 16)
	if !a.ContainsPrefix(b) {
		t.Error("a should contain b")
	}
	if b.ContainsPrefix(a) {
		t.Error("b should not contain a")
	}
	if !a.ContainsPrefix(a) {
		t.Error("containment is reflexive")
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("overlap should be symmetric")
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	r := k.Reverse()
	if r.Src != 2 || r.Dst != 1 || r.SrcPort != 20 || r.DstPort != 10 {
		t.Fatalf("reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse should be identity")
	}
}

func TestCanonicalSymmetric(t *testing.T) {
	f := func(s, d uint32, sp, dp uint16) bool {
		k := FlowKey{Src: Addr(s), Dst: Addr(d), SrcPort: sp, DstPort: dp, Proto: ProtoTCP}
		return k.Canonical() == k.Reverse().Canonical()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFastHashSymmetric(t *testing.T) {
	f := func(s, d uint32, sp, dp uint16) bool {
		k := FlowKey{Src: Addr(s), Dst: Addr(d), SrcPort: sp, DstPort: dp, Proto: ProtoUDP}
		return k.FastHash() == k.Reverse().FastHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFastHashSpreads(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint32(0); i < 1000; i++ {
		k := FlowKey{Src: Addr(i), Dst: Addr(i + 1), SrcPort: uint16(i), DstPort: 80, Proto: ProtoTCP}
		seen[k.FastHash()] = true
	}
	if len(seen) < 990 {
		t.Fatalf("too many hash collisions: %d distinct out of 1000", len(seen))
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := &Packet{
		Src: AddrFrom4(10, 1, 2, 3), Dst: AddrFrom4(8, 8, 8, 8),
		SrcPort: 31337, DstPort: 443, Proto: ProtoTCP, TTL: 64,
		App: 3, Seq: 12345, Payload: []byte("hello softcell"),
	}
	buf, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := q.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if q.Flow() != p.Flow() || q.TTL != p.TTL || q.App != p.App || q.Seq != p.Seq {
		t.Fatalf("round trip mismatch: %+v vs %+v", q, *p)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("payload mismatch: %q", q.Payload)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, ttl, app uint8, seq uint32, payload []byte) bool {
		if len(payload) > 0xFFFF {
			payload = payload[:0xFFFF]
		}
		p := &Packet{Src: Addr(src), Dst: Addr(dst), SrcPort: sp, DstPort: dp,
			Proto: ProtoUDP, TTL: ttl, App: app, Seq: seq, Payload: payload}
		buf, err := p.MarshalBinary()
		if err != nil {
			return false
		}
		var q Packet
		if err := q.UnmarshalBinary(buf); err != nil {
			return false
		}
		return q.Flow() == p.Flow() && q.TTL == ttl && q.App == app &&
			q.Seq == seq && bytes.Equal(q.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var p Packet
	if err := p.UnmarshalBinary(nil); err != ErrShortPacket {
		t.Errorf("nil: %v", err)
	}
	if err := p.UnmarshalBinary(make([]byte, 10)); err != ErrShortPacket {
		t.Errorf("short: %v", err)
	}
	bad := make([]byte, headerBytes)
	if err := p.UnmarshalBinary(bad); err != ErrBadMagic {
		t.Errorf("magic: %v", err)
	}
	good, _ := (&Packet{Proto: ProtoTCP}).MarshalBinary()
	good[2] = 99
	if err := p.UnmarshalBinary(good); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
	// Truncated payload.
	withPayload, _ := (&Packet{Proto: ProtoTCP, Payload: []byte("abcdef")}).MarshalBinary()
	if err := p.UnmarshalBinary(withPayload[:len(withPayload)-2]); err != ErrShortPacket {
		t.Errorf("truncated payload: %v", err)
	}
}

func TestProtoString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" {
		t.Fatal("proto names")
	}
	if Proto(9).String() != "proto(9)" {
		t.Fatalf("unknown proto: %s", Proto(9))
	}
}

// FastHash is a cheap, well-mixed hash of the flow key, symmetric across
// directions so both halves of a connection land in the same bucket.
func (k FlowKey) FastHash() uint64 {
	c := k.Canonical()
	h := uint64(c.Src)<<32 | uint64(c.Dst)
	h ^= uint64(c.SrcPort)<<16 | uint64(c.DstPort) | uint64(c.Proto)<<40
	// fmix64 from MurmurHash3.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
