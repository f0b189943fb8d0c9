// Package mbox implements SoftCell's commodity middleboxes (§2.1): stateful
// packet-processing functions deployed as instances attached to switches.
// Stateful boxes require both directions of a connection to traverse the
// same instance (§5.1 "policy consistency"); every box here tracks
// per-connection state and counts a violation when it sees mid-connection
// traffic it has no state for, which is how the tests and the mobility
// experiments detect consistency breaches.
package mbox

import (
	"fmt"
	"sync"

	"repro/internal/packet"
	"repro/internal/topo"
)

// Direction orients a packet relative to the cellular core.
type Direction uint8

// Directions.
const (
	Upstream   Direction = iota // UE -> Internet
	Downstream                  // Internet -> UE
)

func (d Direction) String() string {
	if d == Upstream {
		return "up"
	}
	return "down"
}

// Middlebox is one deployed instance of a packet-processing function.
type Middlebox interface {
	// Func is the function name ("firewall", "transcoder", ...).
	Func() string
	// Instance is the topology instance this box realises.
	Instance() topo.MBInstanceID
	// Process handles one packet, possibly rewriting it. It returns false
	// to drop the packet.
	Process(p *packet.Packet, dir Direction) bool
	// Stats returns a snapshot of the box's counters.
	Stats() Stats
}

// Stats are a middlebox's observability counters.
type Stats struct {
	Packets     uint64
	Dropped     uint64
	Connections uint64
	// Violations counts packets that arrived mid-connection with no local
	// state — the signature of a policy-consistency breach under mobility.
	Violations uint64
}

// connTable is the shared stateful-connection bookkeeping: it records which
// connections this instance owns and flags unknown mid-stream packets.
type connTable struct {
	mu    sync.Mutex
	conns map[packet.FlowKey]*connState
	stats Stats
}

type connState struct {
	firstDir Direction
	packets  uint64
}

func newConnTable() *connTable {
	return &connTable{conns: make(map[packet.FlowKey]*connState)}
}

// observe registers a packet against the connection table. openOK says
// whether this packet may legitimately open a new connection (e.g. an
// upstream first packet); when it may not and no state exists, the packet is
// flagged as a consistency violation (but still tracked so one breach is
// counted once per connection, not once per packet).
func (ct *connTable) observe(p *packet.Packet, dir Direction, openOK bool) (isNew, violation bool) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.stats.Packets++
	key := p.Flow().Canonical()
	st, ok := ct.conns[key]
	if !ok {
		isNew = true
		violation = !openOK
		if violation {
			ct.stats.Violations++
		} else {
			ct.stats.Connections++
		}
		st = &connState{firstDir: dir}
		ct.conns[key] = st
	}
	st.packets++
	return isNew, violation
}

func (ct *connTable) drop() {
	ct.mu.Lock()
	ct.stats.Dropped++
	ct.mu.Unlock()
}

func (ct *connTable) snapshot() Stats {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.stats
}

// base carries the identity shared by all boxes.
type base struct {
	fn   string
	inst topo.MBInstanceID
	ct   *connTable
}

func (b *base) Func() string                { return b.fn }
func (b *base) Instance() topo.MBInstanceID { return b.inst }
func (b *base) Stats() Stats                { return b.ct.snapshot() }
func (b *base) String() string              { return fmt.Sprintf("%s#%d", b.fn, b.inst) }

// Firewall admits connections initiated from inside (upstream first packet)
// and drops unsolicited downstream traffic.
type Firewall struct{ base }

// NewFirewall builds a firewall instance.
func NewFirewall(inst topo.MBInstanceID) *Firewall {
	return &Firewall{base{fn: "firewall", inst: inst, ct: newConnTable()}}
}

// Process implements Middlebox.
func (f *Firewall) Process(p *packet.Packet, dir Direction) bool {
	isNew, _ := f.ct.observe(p, dir, dir == Upstream)
	if isNew && dir == Downstream {
		// Unsolicited inbound: reject and forget so a later legitimate
		// upstream opener is not mistaken for an established connection.
		f.ct.mu.Lock()
		delete(f.ct.conns, p.Flow().Canonical())
		f.ct.stats.Violations-- // unsolicited inbound is policy, not breach
		f.ct.stats.Dropped++
		f.ct.mu.Unlock()
		return false
	}
	return true
}

// Transcoder models a video transcoder: it must see a connection's upstream
// setup before it can process downstream media (it builds codec context),
// and it shrinks downstream payloads.
type Transcoder struct {
	base
	// Ratio numerator/denominator for payload reduction.
	num, den int
}

// NewTranscoder builds a transcoder instance.
func NewTranscoder(inst topo.MBInstanceID) *Transcoder {
	return &Transcoder{base: base{fn: "transcoder", inst: inst, ct: newConnTable()}, num: 1, den: 2}
}

// Process implements Middlebox.
func (t *Transcoder) Process(p *packet.Packet, dir Direction) bool {
	_, violation := t.ct.observe(p, dir, dir == Upstream)
	if violation {
		// No codec context: a consistency breach. The box still forwards
		// (transparent failure) but the violation counter records it.
		return true
	}
	if dir == Downstream && len(p.Payload) > 0 {
		p.Payload = p.Payload[:len(p.Payload)*t.num/t.den]
	}
	return true
}

// EchoCanceller models the voice echo-cancellation box of Table 1: pure
// stateful pass-through whose value is in the consistency tracking.
type EchoCanceller struct{ base }

// NewEchoCanceller builds an echo-cancellation instance.
func NewEchoCanceller(inst topo.MBInstanceID) *EchoCanceller {
	return &EchoCanceller{base{fn: "echo-cancel", inst: inst, ct: newConnTable()}}
}

// Process implements Middlebox.
func (e *EchoCanceller) Process(p *packet.Packet, dir Direction) bool {
	e.ct.observe(p, dir, dir == Upstream)
	return true
}

// IDS models an intrusion-detection box. It groups flows by UE — which is
// only possible because the LocIP carries a UE ID (§3.1 "Aggregation by
// UE") — and raises an alert when one UE opens more than FlowLimit
// connections.
type IDS struct {
	base
	plan      packet.Plan
	FlowLimit int

	mu      sync.Mutex
	perUE   map[packet.Addr]int // LocIP (BS+UE) -> live flow count
	Alerts  uint64
	blocked map[packet.Addr]bool
}

// NewIDS builds an IDS instance using plan to extract UE identity.
func NewIDS(inst topo.MBInstanceID, plan packet.Plan) *IDS {
	return &IDS{
		base:      base{fn: "ids", inst: inst, ct: newConnTable()},
		plan:      plan,
		FlowLimit: 1000,
		perUE:     make(map[packet.Addr]int),
		blocked:   make(map[packet.Addr]bool),
	}
}

// ueAddr extracts the UE's LocIP from whichever end of the packet is inside
// the carrier block.
func (i *IDS) ueAddr(p *packet.Packet, dir Direction) (packet.Addr, bool) {
	a := p.Src
	if dir == Downstream {
		a = p.Dst
	}
	if _, _, ok := i.plan.Split(a); !ok {
		return 0, false
	}
	return a, true
}

// Process implements Middlebox.
func (i *IDS) Process(p *packet.Packet, dir Direction) bool {
	isNew, _ := i.ct.observe(p, dir, true) // IDS can pick up flows mid-stream
	ue, ok := i.ueAddr(p, dir)
	if !ok {
		return true
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.blocked[ue] {
		i.ct.drop()
		return false
	}
	if isNew {
		i.perUE[ue]++
		if i.perUE[ue] > i.FlowLimit {
			i.Alerts++
			i.blocked[ue] = true
			i.ct.drop()
			return false
		}
	}
	return true
}

// NAT translates between internal LocIPs and a public pool so Internet
// servers cannot correlate a UE's address with its location (§4.1). Every
// *flow* gets a fresh public (address, port) binding.
type NAT struct {
	base
	pool     packet.Prefix // public pool, e.g. 198.51.100.0/24
	mu       sync.Mutex
	next     uint32
	nextPort uint16
	out      map[packet.FlowKey]natBinding // internal upstream key -> binding
	in       map[natKey]natBinding         // public (addr,port,proto) -> binding
}

type natKey struct {
	addr  packet.Addr
	port  uint16
	proto packet.Proto
}

type natBinding struct {
	pub      natKey
	internal packet.FlowKey // the original upstream five-tuple
}

// NewNAT builds a NAT instance allocating from pool.
func NewNAT(inst topo.MBInstanceID, pool packet.Prefix) *NAT {
	return &NAT{
		base: base{fn: "nat", inst: inst, ct: newConnTable()},
		pool: pool,
		out:  make(map[packet.FlowKey]natBinding),
		in:   make(map[natKey]natBinding),
	}
}

// Process implements Middlebox. Upstream packets get their source rewritten
// to a fresh public binding; downstream packets to a known binding get their
// destination restored, unknown ones are dropped.
func (n *NAT) Process(p *packet.Packet, dir Direction) bool {
	n.ct.observe(p, dir, dir == Upstream)
	n.mu.Lock()
	defer n.mu.Unlock()
	if dir == Upstream {
		key := p.Flow()
		b, ok := n.out[key]
		if !ok {
			hostBits := 32 - n.pool.Len
			addr := n.pool.Addr | packet.Addr(n.next%(1<<hostBits))
			if n.nextPort < 1024 {
				n.nextPort = 1024
			}
			b = natBinding{
				pub:      natKey{addr: addr, port: n.nextPort, proto: p.Proto},
				internal: key,
			}
			n.nextPort++
			if n.nextPort == 0 { // wrapped: move to the next pool address
				n.next++
				n.nextPort = 1024
			}
			n.out[key] = b
			n.in[b.pub] = b
		}
		p.Src = b.pub.addr
		p.SrcPort = b.pub.port
		return true
	}
	key := natKey{addr: p.Dst, port: p.DstPort, proto: p.Proto}
	b, ok := n.in[key]
	if !ok {
		n.ct.drop()
		return false
	}
	p.Dst = b.internal.Src
	p.DstPort = b.internal.SrcPort
	return true
}

// Factory builds a middlebox instance for a function name.
type Factory func(inst topo.MBInstanceID) Middlebox

// Registry maps function names to factories. The zero value is unusable;
// call NewRegistry.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns a registry pre-loaded with the built-in functions
// (firewall, transcoder, echo-cancel, ids, nat). plan parameterises the
// IDS's UE extraction; natPool the NAT's public pool.
func NewRegistry(plan packet.Plan, natPool packet.Prefix) *Registry {
	r := &Registry{factories: make(map[string]Factory)}
	r.Register("firewall", func(i topo.MBInstanceID) Middlebox { return NewFirewall(i) })
	r.Register("transcoder", func(i topo.MBInstanceID) Middlebox { return NewTranscoder(i) })
	r.Register("echo-cancel", func(i topo.MBInstanceID) Middlebox { return NewEchoCanceller(i) })
	r.Register("ids", func(i topo.MBInstanceID) Middlebox { return NewIDS(i, plan) })
	r.Register("nat", func(i topo.MBInstanceID) Middlebox { return NewNAT(i, natPool) })
	return r
}

// Register adds (or replaces) a factory.
func (r *Registry) Register(fn string, f Factory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[fn] = f
}

// Build instantiates the named function for a topology instance.
func (r *Registry) Build(fn string, inst topo.MBInstanceID) (Middlebox, error) {
	r.mu.RLock()
	f, ok := r.factories[fn]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mbox: unknown middlebox function %q", fn)
	}
	return f(inst), nil
}
