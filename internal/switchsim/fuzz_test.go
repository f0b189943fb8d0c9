package switchsim

import (
	"testing"

	"repro/internal/packet"
)

// FuzzMatch drives the TCAM predicate with arbitrary rules and packets and
// checks its algebraic invariants: MatchAll covers everything, Covers is
// insensitive to normalisation, normalisation is idempotent, widening a
// matching rule (wildcard port, shorter prefixes, full port ranges, any
// protocol) never loses the packet, and String never panics.
func FuzzMatch(f *testing.F) {
	f.Add(-1, uint32(0x0A000000), uint8(8), uint32(0x0A001000), uint8(24),
		uint16(0), uint16(0), uint16(80), uint16(8080), uint8(6),
		uint32(0x0A000001), uint32(0x0A001001), uint16(1234), uint16(443), uint8(6), uint8(3))
	f.Add(2, uint32(0), uint8(0), uint32(0xFFFFFFFF), uint8(32),
		uint16(53), uint16(53), uint16(0), uint16(0xFFFF), uint8(17),
		uint32(0x7F000001), uint32(0xFFFFFFFF), uint16(53), uint16(9), uint8(17), uint8(2))
	f.Fuzz(func(t *testing.T,
		inPort int,
		srcAddr uint32, srcLen uint8,
		dstAddr uint32, dstLen uint8,
		spLo, spHi, dpLo, dpHi uint16,
		proto uint8,
		pSrc, pDst uint32, pSp, pDp uint16, pProto uint8,
		arrive uint8,
	) {
		m := Match{
			InPort:    int32(inPort),
			Src:       packet.NewPrefix(packet.Addr(srcAddr), int(srcLen%33)),
			Dst:       packet.NewPrefix(packet.Addr(dstAddr), int(dstLen%33)),
			SrcPortLo: spLo, SrcPortHi: spHi,
			DstPortLo: dpLo, DstPortHi: dpHi,
			Proto: packet.Proto(proto),
		}
		if inPort < 0 {
			m.InPort = AnyPort
		}
		p := &packet.Packet{
			Src:     packet.Addr(pSrc),
			Dst:     packet.Addr(pDst),
			SrcPort: pSp,
			DstPort: pDp,
			Proto:   packet.Proto(pProto),
		}
		in := int(arrive % 8)

		if !matchAll.Covers(p, in) {
			t.Fatalf("MatchAll does not cover %+v on port %d", p, in)
		}
		got := m.Covers(p, in)
		norm := m.normalised()
		if norm.Covers(p, in) != got {
			t.Fatalf("Covers disagrees with normalised form: %v vs %v for %s", got, !got, m)
		}
		if norm.normalised() != norm {
			t.Fatalf("normalise not idempotent: %+v -> %+v", norm, norm.normalised())
		}
		_ = m.String()
		_ = norm.String()

		if got {
			wide := Match{
				InPort:    AnyPort,
				Src:       packet.NewPrefix(m.Src.Addr, m.Src.Len-1),
				Dst:       packet.NewPrefix(m.Dst.Addr, m.Dst.Len-1),
				SrcPortHi: 0xFFFF,
				DstPortHi: 0xFFFF,
			}
			if !wide.Covers(p, in) {
				t.Fatalf("widened rule %s lost packet %+v covered by %s", wide, p, m)
			}
		}
	})
}
