// Package packet models the data plane's unit of work: IPv4-style packets
// with TCP/UDP port numbers, five-tuple flow keys, CIDR prefixes, and the
// SoftCell state-embedding codec that piggybacks the policy tag, base-station
// ID and UE ID in the source address and port (paper §4.1, Fig. 4).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Proto identifies the transport protocol of a packet.
type Proto uint8

// Transport protocols understood by the simulator.
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Addr is an IPv4 address in host byte order.
type Addr uint32

// AddrFrom4 builds an address from dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Hash spreads an address over 32 bits by a multiplicative hash, for a
// table that takes a key's slot from the hash's high bits.
func (a Addr) Hash() uint32 { return uint32(uint64(a) * 0x9e3779b97f4a7c15 >> 32) }

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Prefix is a CIDR block: the top Len bits of Addr, with the remaining bits
// zero. The zero value is 0.0.0.0/0, which matches everything.
type Prefix struct {
	Addr Addr
	Len  int
}

// NewPrefix masks addr down to its top length bits.
func NewPrefix(addr Addr, length int) Prefix {
	if length < 0 {
		length = 0
	}
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: addr & lenMask(length), Len: length}
}

func lenMask(length int) Addr {
	if length <= 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - length))
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip Addr) bool {
	return ip&lenMask(p.Len) == p.Addr
}

// ContainsPrefix reports whether q is a (non-strict) subnet of p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Len >= p.Len && p.Contains(q.Addr)
}

// Sibling returns the prefix that differs from p only in its lowest
// significant bit — the buddy block p can merge with. A /0 has no sibling.
func (p Prefix) Sibling() (Prefix, bool) {
	if p.Len == 0 {
		return Prefix{}, false
	}
	bit := Addr(1) << (32 - p.Len)
	return Prefix{Addr: p.Addr ^ bit, Len: p.Len}, true
}

// Parent returns the prefix one bit shorter that covers p.
func (p Prefix) Parent() (Prefix, bool) {
	if p.Len == 0 {
		return Prefix{}, false
	}
	return NewPrefix(p.Addr, p.Len-1), true
}

// Overlaps reports whether the two blocks share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Len)
}

// Tag is a SoftCell policy tag. Tag 0 is reserved to mean "no tag".
// Tags carried in packet headers must additionally fit the Plan's TagBits;
// the wider type lets the rule-minimisation simulations exercise networks
// with many more tags than one UE's port space can hold at once.
type Tag uint32

// Packet is a simulated data-plane packet. Header fields mirror an
// IPv4+TCP/UDP header; App labels the application type for policy matching
// (in a real deployment this comes from DPI at the access edge).
type Packet struct {
	Src     Addr
	Dst     Addr
	SrcPort uint16
	DstPort uint16
	Proto   Proto
	TTL     uint8
	App     uint8 // application class (policy.AppType); carried for the simulator
	DSCP    uint8 // differentiated-services class, set by the access edge QoS marking
	Seq     uint32
	Payload []byte
}

// Flow returns the packet's five-tuple key.
func (p *Packet) Flow() FlowKey {
	return FlowKey{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// FlowKey is a hashable five-tuple identifying one direction of a connection.
type FlowKey struct {
	Src     Addr
	Dst     Addr
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Canonical returns a direction-independent key: the lexicographically
// smaller of k and k.Reverse(). Both directions of a connection map to the
// same canonical key, which stateful middleboxes use for connection state.
func (k FlowKey) Canonical() FlowKey {
	r := k.Reverse()
	if k.less(r) {
		return k
	}
	return r
}

func (k FlowKey) less(o FlowKey) bool {
	if k.Src != o.Src {
		return k.Src < o.Src
	}
	if k.Dst != o.Dst {
		return k.Dst < o.Dst
	}
	if k.SrcPort != o.SrcPort {
		return k.SrcPort < o.SrcPort
	}
	return k.DstPort < o.DstPort
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%s", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// wire format: 2-byte magic, 1 version, 1 proto, 4 src, 4 dst, 2 sport,
// 2 dport, 1 ttl, 1 app, 1 dscp, 4 seq, 2 payload length, payload.
const (
	wireMagic   = 0x5C17 // "SoftCell"
	headerBytes = 25
)

// MarshalBinary serialises the packet to its wire format.
func (p *Packet) MarshalBinary() ([]byte, error) {
	if len(p.Payload) > 0xFFFF {
		return nil, fmt.Errorf("packet: payload %d bytes exceeds 64KiB", len(p.Payload))
	}
	buf := make([]byte, headerBytes+len(p.Payload))
	binary.BigEndian.PutUint16(buf[0:2], wireMagic)
	buf[2] = 1
	buf[3] = uint8(p.Proto)
	binary.BigEndian.PutUint32(buf[4:8], uint32(p.Src))
	binary.BigEndian.PutUint32(buf[8:12], uint32(p.Dst))
	binary.BigEndian.PutUint16(buf[12:14], p.SrcPort)
	binary.BigEndian.PutUint16(buf[14:16], p.DstPort)
	buf[16] = p.TTL
	buf[17] = p.App
	buf[18] = p.DSCP
	binary.BigEndian.PutUint32(buf[19:23], p.Seq)
	binary.BigEndian.PutUint16(buf[23:25], uint16(len(p.Payload)))
	copy(buf[headerBytes:], p.Payload)
	return buf, nil
}

// Errors returned by UnmarshalBinary.
var (
	ErrShortPacket = errors.New("packet: truncated")
	ErrBadMagic    = errors.New("packet: bad magic")
	ErrBadVersion  = errors.New("packet: unsupported version")
)

// UnmarshalBinary parses the wire format produced by MarshalBinary.
func (p *Packet) UnmarshalBinary(buf []byte) error {
	if len(buf) < headerBytes {
		return ErrShortPacket
	}
	if binary.BigEndian.Uint16(buf[0:2]) != wireMagic {
		return ErrBadMagic
	}
	if buf[2] != 1 {
		return ErrBadVersion
	}
	p.Proto = Proto(buf[3])
	p.Src = Addr(binary.BigEndian.Uint32(buf[4:8]))
	p.Dst = Addr(binary.BigEndian.Uint32(buf[8:12]))
	p.SrcPort = binary.BigEndian.Uint16(buf[12:14])
	p.DstPort = binary.BigEndian.Uint16(buf[14:16])
	p.TTL = buf[16]
	p.App = buf[17]
	p.DSCP = buf[18]
	p.Seq = binary.BigEndian.Uint32(buf[19:23])
	n := int(binary.BigEndian.Uint16(buf[23:25]))
	if len(buf) < headerBytes+n {
		return ErrShortPacket
	}
	p.Payload = append(p.Payload[:0], buf[headerBytes:headerBytes+n]...)
	return nil
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s seq=%d ttl=%d", p.Flow(), p.Seq, p.TTL)
}
