package softcell

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/mbox"
	"repro/internal/obs"
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
	// Generated is a synthetic §6.3 topology.
	Generated = topo.Generated
)

// Walk dispositions, re-exported.
const (
	Delivered = dataplane.Delivered
	ExitedNet = dataplane.ExitedNet
	DroppedAt = dataplane.DroppedAt
)

// DefaultPlan is the library's default address layout.
var DefaultPlan = packet.DefaultPlan

// Options configure New. Topology, Gateway and Policy are required; the
// middlebox maps default to the standard function set when the topology's
// middlebox types are 0..4 (firewall, transcoder, echo-cancel, ids, nat).
type Options struct {
	Topology *topo.Topology
	Gateway  topo.NodeID
	Policy   *policy.Policy

	// MBTypes maps policy function names to topology middlebox types;
	// MBFuncs is the inverse for instantiation. Both default to the
	// standard mapping below.
	MBTypes map[string]topo.MBType
	MBFuncs map[topo.MBType]string

	// Plan defaults to DefaultPlan; Replicas to 1.
	Plan     packet.Plan
	Replicas int

	// NATPool enables the gateway NAT (§4.1) when non-zero.
	NATPool packet.Prefix

	// Install passes Algorithm 1 options through (ablations, bounds).
	Install core.InstallerOptions

	// Obs instruments the controller's hot paths on this registry (nil:
	// no telemetry).
	Obs *obs.Registry
}

// StandardMBTypes is the default function-name-to-type mapping (the table
// every internal/plant control plant runs on too).
func StandardMBTypes() map[string]topo.MBType { return plant.MBTypes() }

// StandardMBFuncs is the inverse of StandardMBTypes.
func StandardMBFuncs() map[topo.MBType]string {
	out := make(map[topo.MBType]string)
	for fn, typ := range StandardMBTypes() {
		out[typ] = fn
	}
	return out
}

// New assembles a complete SoftCell network: central controller (with its
// replicated store), Algorithm 1 installer, one programmed switch per node,
// live middlebox instances, and a local agent per base station.
func New(opts Options) (*Network, error) {
	if opts.Topology == nil {
		return nil, fmt.Errorf("softcell: Options.Topology is required")
	}
	if opts.Policy == nil {
		return nil, fmt.Errorf("softcell: Options.Policy is required")
	}
	if opts.MBTypes == nil {
		opts.MBTypes = StandardMBTypes()
	}
	if opts.MBFuncs == nil {
		opts.MBFuncs = StandardMBFuncs()
	}
	ctrl, err := core.NewController(opts.Topology, core.ControllerConfig{
		Plan:     opts.Plan,
		Gateway:  opts.Gateway,
		Policy:   opts.Policy,
		MBTypes:  opts.MBTypes,
		Replicas: opts.Replicas,
		Install:  opts.Install,
		Obs:      opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	natPool := opts.NATPool
	registryPool := natPool
	if registryPool == (packet.Prefix{}) {
		registryPool = packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24)
	}
	reg := mbox.NewRegistry(ctrl.Plan(), registryPool)
	return dataplane.New(ctrl, dataplane.Config{
		Registry: reg,
		MBFuncs:  opts.MBFuncs,
		NATPool:  natPool,
	})
}

// GenerateTopology builds the paper's §6.3 three-layer synthetic topology
// (k pods, rings of clusterSize stations, k middlebox types, 10k³/4 base
// stations for clusterSize=10).
func GenerateTopology(k, clusterSize, mbTypes int, seed int64) (*Generated, error) {
	return topo.Generate(topo.GenParams{K: k, ClusterSize: clusterSize, MBTypes: mbTypes, Seed: seed})
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
