package switchsim

import (
	"slices"

	"repro/internal/packet"
)

// cmatch is a compiled TCAM predicate: the normalised match flattened to
// mask-and-compare fields, so a cover test is straight-line integer code
// with no normalisation and no method dispatch per packet. Its 32-bit
// in-port keeps it at 32 B.
type cmatch struct {
	inPort          int32
	srcVal, srcMask uint32
	dstVal, dstMask uint32
	sLo, sHi        uint16
	dLo, dHi        uint16
	proto           packet.Proto
}

// covers reports whether the compiled match accepts p arriving on inPort.
func (m *cmatch) covers(p *packet.Packet, inPort int) bool {
	if m.inPort != AnyPort && int(m.inPort) != inPort {
		return false
	}
	if uint32(p.Src)&m.srcMask != m.srcVal || uint32(p.Dst)&m.dstMask != m.dstVal {
		return false
	}
	if p.SrcPort < m.sLo || p.SrcPort > m.sHi || p.DstPort < m.dLo || p.DstPort > m.dHi {
		return false
	}
	return m.proto == 0 || m.proto == p.Proto
}

// compileMatch flattens a normalised match, so the compiled port bounds
// are the effective ones.
func compileMatch(m Match) cmatch {
	return cmatch{
		inPort: m.InPort,
		srcVal: uint32(m.Src.Addr), srcMask: prefixMask(m.Src.Len),
		dstVal: uint32(m.Dst.Addr), dstMask: prefixMask(m.Dst.Len),
		sLo: m.SrcPortLo, sHi: m.SrcPortHi,
		dLo: m.DstPortLo, dHi: m.DstPortHi,
		proto: m.Proto,
	}
}

// prefixMask is the network mask of a CIDR length.
func prefixMask(length int) uint32 {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - length)
}

// entry is one TCAM entry: the rule's match compiled inline, for the
// scan, and the live rule.
type entry struct {
	m    cmatch
	rule *Rule
}

func entryOf(r *Rule) entry { return entry{compileMatch(r.Match), r} }

// TCAM is a switch's rule table as View hands it out: sealed, so the
// fast path scans it with no lock. The switch copies the table
// before its first write after a seal, so no handed-out TCAM ever changes.
type TCAM struct{ entries []entry }

// Lookup returns the first rule in match order that accepts p arriving on
// inPort, and its position.
//
// hotpath: no alloc, no lock
func (t TCAM) Lookup(p *packet.Packet, inPort int) (i int, r *Rule, ok bool) {
	for i := range t.entries {
		if t.entries[i].m.covers(p, inPort) {
			return i, t.entries[i].rule, true
		}
	}
	return 0, nil, false
}

// Len reports the rules.
func (t TCAM) Len() int { return len(t.entries) }

// At returns the rule at a position.
func (t TCAM) At(i int) *Rule { return t.entries[i].rule }

// edit writes one TCAM position: r goes in at position at, or with r nil
// the entry there comes out. It writes in place unless the TCAM is sealed;
// then it writes a copy and counts the entries the copy took over.
//
// caller holds mu
func (s *Switch) edit(at int, r *Rule) {
	switch {
	case !s.sealed && r != nil:
		s.tcam = slices.Insert(s.tcam, at, entryOf(r))
	case !s.sealed:
		s.tcam = slices.Delete(s.tcam, at, at+1)
	default:
		old, copied := s.tcam, len(s.tcam)
		s.tcam = append(make([]entry, 0, len(old)+1), old[:at]...)
		if r != nil {
			s.tcam = append(s.tcam, entryOf(r))
		} else {
			at, copied = at+1, copied-1
		}
		s.tcam, s.sealed = append(s.tcam, old[at:]...), false
		s.obs.tcamCopy.Add(uint64(copied))
	}
}
