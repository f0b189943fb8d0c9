// Package plant builds the system under test: one controller or a sharded
// dispatcher over a generated §6.3 topology or a given one, running the
// Table 1 carrier policy unless the Spec names another, with an in-process
// control channel on request. A single controller also gets its full data
// plane: programmed switches, middleboxes and one local agent per station.
// Every harness, binary and the softcell facade builds here, so "the
// system" has one definition.
package plant

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/dataplane"
	"repro/internal/mbox"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// Spec describes a system under test. Only a topology is required: Topology
// with its Gateway, or, when Topology is nil, the generator parameters Topo.
type Spec struct {
	Topology *topo.Topology
	Gateway  topo.NodeID
	Topo     topo.GenParams

	// Policy defaults to the Table 1 carrier policy.
	Policy *policy.Policy

	// MBTypes maps policy function names to topology middlebox types and
	// defaults to MBTypes(); MBFuncs is the inverse for instantiation and
	// defaults to inverting MBTypes.
	MBTypes map[string]topo.MBType
	MBFuncs map[topo.MBType]string

	// Plan defaults to PlanFor(Shards).
	Plan packet.Plan

	Shards int           // 0: one core.Controller and its data plane; n > 0: a shard.Dispatcher of n
	Obs    *obs.Registry // instruments control plane and wire; nil: neither
}

// Plant is an assembled system. Exactly one of Ctrl and Disp is set.
type Plant struct {
	Topo     *topo.Generated // for a given Spec.Topology only Topology and GatewayID are set
	Policy   *policy.Policy
	Plan     packet.Plan
	Stations []packet.BSID // topology order
	Clauses  []int         // the policy's allow clauses, id order

	Ctrl *core.Controller   // Spec.Shards == 0
	Net  *dataplane.Network // Spec.Shards == 0: Ctrl's switches, middleboxes and agents
	Disp *shard.Dispatcher  // Spec.Shards > 0; the caller closes it

	cp      ctrlproto.ControlPlane // whichever of Ctrl and Disp is set
	obs     *obs.Registry
	srvOnce sync.Once
	srv     *ctrlproto.Server
}

// MBTypes maps the policy's middlebox function names to topology middlebox
// types: the default table of every Spec.
func MBTypes() map[string]topo.MBType {
	return map[string]topo.MBType{
		policy.MBFirewall:   0,
		policy.MBTranscoder: 1,
		policy.MBEchoCancel: 2,
		policy.MBIDS:        3,
		policy.MBNAT:        4,
	}
}

// PlanFor is the address/tag layout a plant of the given width runs. A
// sharded plant gives each shard one residue class of the tag space, and
// churn (policy withdrawal, switch failure) takes a fresh tag for every
// rebuilt path — stale tags must miss, never alias — so it widens the tag
// field to the full 12 bits; a single controller keeps the default.
func PlanFor(shards int) packet.Plan {
	pl := packet.DefaultPlan
	if shards > 0 {
		pl.TagBits = 12
	}
	return pl
}

func allowClauses(pol *policy.Policy) []int {
	var out []int
	for id := 0; id < pol.Len(); id++ {
		if cl, ok := pol.Clause(id); ok && cl.Action.Allow {
			out = append(out, id)
		}
	}
	return out
}

// CheckTagCapacity refuses a shard count whose per-shard tag sub-space
// (shard i allocates tags ≡ i mod shards within [1, MaxTag]) cannot feed
// the policy: every allow clause needs a tag per shard, and route-shape
// diversity (distinct middlebox chains per clause) multiplies that, so
// demand 8 per clause. New applies it before building anything — a
// configuration error up front, not an allocator failure deep into a run —
// and callers validating flags call it directly.
func CheckTagCapacity(shards int) error {
	const headroom = 8
	pl, stride := PlanFor(shards), max(shards, 1)
	clauses := len(allowClauses(policy.ExampleCarrierPolicy()))
	if tagCap, need := int(pl.MaxTag())/stride, clauses*headroom; tagCap < need {
		return fmt.Errorf(
			"plant: %d shards leave each shard %d policy tags of the plan's %d (residue class, stride %d), below the %d (= %d allow clauses × %d headroom) it needs; lower the shard count",
			shards, tagCap, pl.MaxTag(), stride, need, clauses, headroom)
	}
	return nil
}

// New builds the system a Spec describes, generating its topology first
// when the Spec gives none.
func New(spec Spec) (*Plant, error) {
	if err := CheckTagCapacity(spec.Shards); err != nil {
		return nil, err
	}
	g := &topo.Generated{Topology: spec.Topology, GatewayID: spec.Gateway}
	if spec.Topology == nil {
		var err error
		if g, err = topo.Generate(spec.Topo); err != nil {
			return nil, err
		}
	}
	if spec.Policy == nil {
		spec.Policy = policy.ExampleCarrierPolicy()
	}
	if spec.MBTypes == nil {
		spec.MBTypes = MBTypes()
	}
	if spec.MBFuncs == nil {
		spec.MBFuncs = make(map[topo.MBType]string, len(spec.MBTypes))
		for fn, typ := range spec.MBTypes {
			spec.MBFuncs[typ] = fn
		}
	}
	if spec.Plan == (packet.Plan{}) {
		spec.Plan = PlanFor(spec.Shards)
	}
	p := &Plant{Topo: g, Policy: spec.Policy, Plan: spec.Plan, Clauses: allowClauses(spec.Policy), obs: spec.Obs}
	for _, st := range g.Stations {
		p.Stations = append(p.Stations, st.ID)
	}
	var err error
	if spec.Shards > 0 {
		if p.Disp, err = shard.New(shard.Config{
			Topology: g.Topology, Gateway: g.GatewayID, Policy: p.Policy, MBTypes: spec.MBTypes,
			Plan: p.Plan, Shards: spec.Shards, Obs: spec.Obs,
		}); err != nil {
			return nil, err
		}
		p.cp = p.Disp
		return p, nil
	}
	if p.Ctrl, err = core.NewController(g.Topology, core.ControllerConfig{
		Gateway: g.GatewayID, Policy: p.Policy, MBTypes: spec.MBTypes,
		Plan: p.Plan, Obs: spec.Obs,
	}); err != nil {
		return nil, err
	}
	p.cp = p.Ctrl
	if p.Net, err = dataplane.New(p.Ctrl, dataplane.Config{
		Registry: mbox.NewRegistry(p.Plan, packet.NewPrefix(packet.AddrFrom4(198, 51, 100, 0), 24)),
		MBFuncs:  spec.MBFuncs,
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// PushedAgent builds a local agent for station bs on a fresh access switch,
// in pushed-snapshot mode: it has no controller client and classifies only
// from the snapshots published to it.
func (p *Plant) PushedAgent(bs packet.BSID) *agent.Agent {
	return agent.New(bs, switchsim.NewSwitch(fmt.Sprintf("as-%d", bs)), p.Plan, nil)
}

// WarmPaths requests every (station, allow clause) path once, so what runs
// next measures or perturbs steady-state request handling.
func (p *Plant) WarmPaths() error {
	for _, bs := range p.Stations {
		for _, c := range p.Clauses {
			if _, err := p.cp.RequestPath(bs, c); err != nil {
				return fmt.Errorf("plant: warm path bs %d clause %d: %w", bs, c, err)
			}
		}
	}
	return nil
}

// Server returns the plant's instrumented control-channel server, built on
// first use.
func (p *Plant) Server() *ctrlproto.Server {
	p.srvOnce.Do(func() {
		p.srv = ctrlproto.NewServer(p.cp)
		p.srv.Instrument(p.obs)
	})
	return p.srv
}

// Dial opens one in-process control channel: a net.Pipe whose far end the
// plant's server serves until the client closes. wrap, when non-nil,
// replaces the client's end (with a fault injector, say).
func (p *Plant) Dial(wrap func(net.Conn) net.Conn) *ctrlproto.Client {
	a, b := net.Pipe()
	go p.Server().ServeConn(a)
	if wrap != nil {
		b = wrap(b)
	}
	cl := ctrlproto.NewClient(b)
	cl.Instrument(p.obs)
	return cl
}
