// Package switchsim models an OpenFlow-style switch as SoftCell assumes it:
// a TCAM table of prioritised wildcard rules (matching on in-port, IP
// prefixes and port ranges), an exact-match microflow table for access
// switches, header-rewrite actions, per-rule counters, and atomic batch
// updates. Gateway and core switches use only the TCAM table; access
// switches additionally hold microflow rules installed by the local agent.
package switchsim

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/packet"
)

// AnyPort is the wildcard in-port.
const AnyPort = -1

// Distinguished port numbers shared by the access agents and the dataplane.
// Regular ports 0..len(neighbors)-1 map to topology links (the index in
// topo.Node.Neighbors); middlebox attachment ports follow; these pseudo
// ports sit far above both ranges.
const (
	// PortUE delivers to the locally attached UEs (radio side).
	PortUE = 1 << 20
	// PortExit leaves the network through the gateway's Internet side.
	PortExit = PortUE + 1
	// PortTunnelBase + bsID sends through the inter-station mobility
	// tunnel toward that base station (§5.1).
	PortTunnelBase = 1 << 21
)

// Match is a TCAM rule predicate. Zero-valued port bounds widen to the full
// range, and zero-length prefixes match every address; set InPort to AnyPort
// (not 0, which is a real port) to wildcard the ingress port.
type Match struct {
	InPort    int // AnyPort matches any ingress port
	Src       packet.Prefix
	Dst       packet.Prefix
	SrcPortLo uint16
	SrcPortHi uint16 // 0 means "no upper bound set"; see normalise
	DstPortLo uint16
	DstPortHi uint16
	Proto     packet.Proto // 0 matches any protocol
}

// MatchAll returns a predicate matching every packet on every port.
func MatchAll() Match {
	return Match{InPort: AnyPort, SrcPortHi: 0xFFFF, DstPortHi: 0xFFFF}
}

// normalised returns the match with zero-valued port bounds widened to the
// full range, so that the zero Match value behaves as match-all.
func (m Match) normalised() Match {
	if m.SrcPortLo == 0 && m.SrcPortHi == 0 {
		m.SrcPortHi = 0xFFFF
	}
	if m.DstPortLo == 0 && m.DstPortHi == 0 {
		m.DstPortHi = 0xFFFF
	}
	return m
}

// Covers reports whether the match accepts the packet arriving on inPort.
func (m Match) Covers(p *packet.Packet, inPort int) bool {
	m = m.normalised()
	if m.InPort != AnyPort && m.InPort != inPort {
		return false
	}
	if !m.Src.Contains(p.Src) || !m.Dst.Contains(p.Dst) {
		return false
	}
	if p.SrcPort < m.SrcPortLo || p.SrcPort > m.SrcPortHi {
		return false
	}
	if p.DstPort < m.DstPortLo || p.DstPort > m.DstPortHi {
		return false
	}
	if m.Proto != 0 && m.Proto != p.Proto {
		return false
	}
	return true
}

// compare orders matches field by field — an arbitrary but total order,
// which is what a reproducible table layout needs.
func (m Match) compare(o Match) int {
	return cmp.Or(
		cmp.Compare(m.InPort, o.InPort),
		cmp.Compare(m.Src.Addr, o.Src.Addr),
		cmp.Compare(m.Src.Len, o.Src.Len),
		cmp.Compare(m.Dst.Addr, o.Dst.Addr),
		cmp.Compare(m.Dst.Len, o.Dst.Len),
		cmp.Compare(m.SrcPortLo, o.SrcPortLo),
		cmp.Compare(m.SrcPortHi, o.SrcPortHi),
		cmp.Compare(m.DstPortLo, o.DstPortLo),
		cmp.Compare(m.DstPortHi, o.DstPortHi),
		cmp.Compare(m.Proto, o.Proto),
	)
}

func (m Match) String() string {
	m2 := m.normalised()
	var parts []string
	if m2.InPort != AnyPort {
		parts = append(parts, fmt.Sprintf("in=%d", m2.InPort))
	}
	if m2.Src.Len > 0 {
		parts = append(parts, "src="+m2.Src.String())
	}
	if m2.Dst.Len > 0 {
		parts = append(parts, "dst="+m2.Dst.String())
	}
	if m2.SrcPortLo != 0 || m2.SrcPortHi != 0xFFFF {
		parts = append(parts, fmt.Sprintf("sport=%d-%d", m2.SrcPortLo, m2.SrcPortHi))
	}
	if m2.DstPortLo != 0 || m2.DstPortHi != 0xFFFF {
		parts = append(parts, fmt.Sprintf("dport=%d-%d", m2.DstPortLo, m2.DstPortHi))
	}
	if m2.Proto != 0 {
		parts = append(parts, m2.Proto.String())
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}

// Action is what a matching rule does to a packet. Rewrites apply before
// output. Exactly one of Output >= 0, Drop, or ToController should be set;
// when none is, the packet is dropped.
type Action struct {
	Output       int // egress port; -1 when not forwarding
	Drop         bool
	ToController bool
	// Resubmit re-runs the TCAM lookup after the rewrites (OVS-style):
	// the access switch's microflows rewrite headers and resubmit so the
	// controller-installed forwarding rules pick the egress port.
	Resubmit bool

	SetSrc     *packet.Addr
	SetDst     *packet.Addr
	SetSrcPort *uint16
	SetDstPort *uint16

	// Tag-field rewrites replace only the top TagEphBits-complement bits of
	// a port — the §3.2 swap rule, which must preserve the ephemeral bits
	// that distinguish a UE's flows.
	SetSrcTag  *packet.Tag
	SetDstTag  *packet.Tag
	TagEphBits int // low bits preserved by tag rewrites

	// SetDSCP marks the packet's QoS class (the access edge applies the
	// clause's quality-of-service specification, §2.2).
	SetDSCP *uint8
}

// Forward builds a plain output action.
func Forward(port int) Action { return Action{Output: port} }

// DropAction builds a drop action.
func DropAction() Action { return Action{Output: -1, Drop: true} }

// Punt builds a send-to-controller action.
func Punt() Action { return Action{Output: -1, ToController: true} }

// apply mutates the packet's headers per the rewrite fields.
func (a Action) apply(p *packet.Packet) {
	if a.SetSrc != nil {
		p.Src = *a.SetSrc
	}
	if a.SetDst != nil {
		p.Dst = *a.SetDst
	}
	if a.SetSrcPort != nil {
		p.SrcPort = *a.SetSrcPort
	}
	if a.SetDstPort != nil {
		p.DstPort = *a.SetDstPort
	}
	if a.SetSrcTag != nil {
		mask := uint16(1)<<a.TagEphBits - 1
		p.SrcPort = uint16(*a.SetSrcTag)<<a.TagEphBits | p.SrcPort&mask
	}
	if a.SetDstTag != nil {
		mask := uint16(1)<<a.TagEphBits - 1
		p.DstPort = uint16(*a.SetDstTag)<<a.TagEphBits | p.DstPort&mask
	}
	if a.SetDSCP != nil {
		p.DSCP = *a.SetDSCP
	}
}

func (a Action) String() string {
	var parts []string
	if a.SetSrc != nil {
		parts = append(parts, "src<-"+a.SetSrc.String())
	}
	if a.SetDst != nil {
		parts = append(parts, "dst<-"+a.SetDst.String())
	}
	if a.SetSrcPort != nil {
		parts = append(parts, fmt.Sprintf("sport<-%d", *a.SetSrcPort))
	}
	if a.SetDstPort != nil {
		parts = append(parts, fmt.Sprintf("dport<-%d", *a.SetDstPort))
	}
	if a.SetSrcTag != nil {
		parts = append(parts, fmt.Sprintf("stag<-%d", *a.SetSrcTag))
	}
	if a.SetDstTag != nil {
		parts = append(parts, fmt.Sprintf("dtag<-%d", *a.SetDstTag))
	}
	switch {
	case a.Drop:
		parts = append(parts, "drop")
	case a.ToController:
		parts = append(parts, "punt")
	case a.Resubmit:
		parts = append(parts, "resubmit")
	case a.Output >= 0:
		parts = append(parts, fmt.Sprintf("out:%d", a.Output))
	default:
		parts = append(parts, "drop(implicit)")
	}
	return strings.Join(parts, " ")
}
