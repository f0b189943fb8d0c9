// Package switchsim models an OpenFlow-style switch as SoftCell assumes it:
// a TCAM table of prioritised wildcard rules (matching on in-port, IP
// prefixes and port ranges), an exact-match microflow table for access
// switches, header-rewrite actions, per-rule counters, and atomic batch
// updates. Gateway and core switches use only the TCAM table; access
// switches additionally hold microflow rules installed by the local agent.
// Both tables are copy-on-write: fast-path snapshots read them as the
// switch sealed them (View), so no second copy of a rule exists.
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
	Src       packet.Prefix
	Dst       packet.Prefix
	InPort    int32 // AnyPort matches any ingress port; 32 bits keep a Match at 48 bytes
	SrcPortLo uint16
	SrcPortHi uint16 // 0 means "no upper bound set"; see normalise
	DstPortLo uint16
	DstPortHi uint16
	Proto     packet.Proto // 0 matches any protocol
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
	if m.InPort != AnyPort && int(m.InPort) != inPort {
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

	// Set lists the header rewrites the action applies; a value field
	// below is read only when its bit is set.
	Set     Rewrites
	Src     packet.Addr
	Dst     packet.Addr
	SrcPort uint16
	DstPort uint16

	// Tag-field rewrites replace only the top TagEphBits-complement bits of
	// a port — the §3.2 swap rule, which must preserve the ephemeral bits
	// that distinguish a UE's flows.
	SrcTag     packet.Tag
	DstTag     packet.Tag
	TagEphBits uint8 // low bits preserved by tag rewrites

	// DSCP marks the packet's QoS class (the access edge applies the
	// clause's quality-of-service specification, §2.2).
	DSCP uint8
}

// Rewrites is a set of Action header rewrites.
type Rewrites uint8

// The header rewrites an Action can apply, each from its value field.
const (
	SetSrc Rewrites = 1 << iota
	SetDst
	SetSrcPort
	SetDstPort
	SetSrcTag
	SetDstTag
	SetDSCP
)

// DropAction builds a drop action.
func DropAction() Action { return Action{Output: -1, Drop: true} }

// Punt builds a send-to-controller action.
func Punt() Action { return Action{Output: -1, ToController: true} }

// Apply mutates the packet's headers per the rewrite fields.
func (a *Action) Apply(p *packet.Packet) {
	if a.Set&SetSrc != 0 {
		p.Src = a.Src
	}
	if a.Set&SetDst != 0 {
		p.Dst = a.Dst
	}
	if a.Set&SetSrcPort != 0 {
		p.SrcPort = a.SrcPort
	}
	if a.Set&SetDstPort != 0 {
		p.DstPort = a.DstPort
	}
	if a.Set&SetSrcTag != 0 {
		mask := uint16(1)<<a.TagEphBits - 1
		p.SrcPort = uint16(a.SrcTag)<<a.TagEphBits | p.SrcPort&mask
	}
	if a.Set&SetDstTag != 0 {
		mask := uint16(1)<<a.TagEphBits - 1
		p.DstPort = uint16(a.DstTag)<<a.TagEphBits | p.DstPort&mask
	}
	if a.Set&SetDSCP != 0 {
		p.DSCP = a.DSCP
	}
}

// Rewritten returns key as the action's rewrites leave it.
func (a Action) Rewritten(key packet.FlowKey) packet.FlowKey {
	p := packet.Packet{Src: key.Src, Dst: key.Dst, SrcPort: key.SrcPort, DstPort: key.DstPort, Proto: key.Proto}
	a.Apply(&p)
	return p.Flow()
}

func (a Action) String() string {
	var parts []string
	if a.Set&SetSrc != 0 {
		parts = append(parts, "src<-"+a.Src.String())
	}
	if a.Set&SetDst != 0 {
		parts = append(parts, "dst<-"+a.Dst.String())
	}
	if a.Set&SetSrcPort != 0 {
		parts = append(parts, fmt.Sprintf("sport<-%d", a.SrcPort))
	}
	if a.Set&SetDstPort != 0 {
		parts = append(parts, fmt.Sprintf("dport<-%d", a.DstPort))
	}
	if a.Set&SetSrcTag != 0 {
		parts = append(parts, fmt.Sprintf("stag<-%d", a.SrcTag))
	}
	if a.Set&SetDstTag != 0 {
		parts = append(parts, fmt.Sprintf("dtag<-%d", a.DstTag))
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
