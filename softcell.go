package softcell

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/plant"
	"repro/internal/policy"
	"repro/internal/topo"
)

// Re-exported names so library users work with one import. The internal
// packages remain the implementation; these aliases are the public surface.
type (
	// Network is a fully assembled SoftCell deployment: controller,
	// programmed switches, middlebox instances, local agents, tunnels.
	Network = dataplane.Network
	// WalkResult reports a packet's end-to-end journey.
	WalkResult = dataplane.WalkResult
	// UE is a device's controller-side record.
	UE = core.UE
	// HandoffResult reports a completed UE move.
	HandoffResult = core.HandoffResult
	// Packet is the data-plane unit.
	Packet = packet.Packet
	// Addr is an IPv4 address in host order.
	Addr = packet.Addr
	// Plan is the carrier's LocIP/tag layout (paper Fig. 4).
	Plan = packet.Plan
	// Policy is a prioritised service policy (paper Table 1).
	Policy = policy.Policy
	// Attributes describe one subscriber.
	Attributes = policy.Attributes
	// Topology is the core network graph.
	Topology = topo.Topology
	// Options configure New: the one description of a system under test.
	// New requires Topology, Gateway and Policy and refuses Shards; the
	// middlebox maps default to the standard function set (firewall,
	// transcoder, echo-cancel, ids, nat as types 0..4) and Plan to
	// DefaultPlan.
	Options = plant.Spec
)

// Walk dispositions, re-exported.
const (
	Delivered = dataplane.Delivered
	ExitedNet = dataplane.ExitedNet
	DroppedAt = dataplane.DroppedAt
)

// DefaultPlan is the library's default address layout.
var DefaultPlan = packet.DefaultPlan

// New assembles a complete SoftCell network: central controller (with its
// control store), Algorithm 1 installer, one programmed switch per node,
// live middlebox instances, and a local agent per base station.
func New(opts Options) (*Network, error) {
	switch {
	case opts.Topology == nil:
		return nil, fmt.Errorf("softcell: Options.Topology is required")
	case opts.Policy == nil:
		return nil, fmt.Errorf("softcell: Options.Policy is required")
	case opts.Shards != 0:
		return nil, fmt.Errorf("softcell: Options.Shards must be 0: a sharded control plane has no in-process data plane")
	}
	p, err := plant.New(opts)
	if err != nil {
		return nil, err
	}
	return p.Net, nil
}

// Example builds a small ready-to-use deployment: the Fig. 2/3-style
// network (one gateway, three core switches, four stations) running the
// Table 1 carrier policy with a firewall, two transcoders and an echo
// canceller. It is what the quickstart example and the end-to-end benches
// use.
func Example() (*Network, error) {
	t := topo.New()
	gw := t.AddNode(topo.Gateway, "gw")
	cs1 := t.AddNode(topo.Core, "cs1")
	cs2 := t.AddNode(topo.Core, "cs2")
	cs3 := t.AddNode(topo.Core, "cs3")
	var access [4]topo.NodeID
	for i := range access {
		access[i] = t.AddNode(topo.Access, fmt.Sprintf("as%d", i))
		if err := t.AddBaseStation(packet.BSID(i), access[i]); err != nil {
			return nil, err
		}
	}
	links := [][2]topo.NodeID{
		{gw, cs1}, {cs1, cs2}, {cs2, cs3},
		{cs2, access[0]}, {cs2, access[1]}, {cs3, access[2]}, {cs3, access[3]},
	}
	for _, l := range links {
		if err := t.Connect(l[0], l[1]); err != nil {
			return nil, err
		}
	}
	for _, m := range []struct {
		typ topo.MBType
		sw  topo.NodeID
	}{{0, cs1}, {1, cs2}, {1, cs3}, {2, cs1}} {
		if _, err := t.AttachMiddlebox(m.typ, m.sw); err != nil {
			return nil, err
		}
	}
	return New(Options{
		Topology: t,
		Gateway:  gw,
		Policy:   policy.ExampleCarrierPolicy(),
	})
}
