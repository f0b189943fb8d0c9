// Package plant builds the system under test: the Table 1 carrier policy
// on a generated §6.3 topology, run by one controller or a sharded
// dispatcher, with an in-process control channel on request. Every harness
// and binary gets its control plant here, so "the system" has one
// definition; network plants (switches, middleboxes, agents) come from
// softcell.New.
package plant

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/topo"
)

// Spec sizes a plant.
type Spec struct {
	Topo   topo.GenParams
	Shards int           // 0: one core.Controller; n > 0: a shard.Dispatcher of n
	Obs    *obs.Registry // instruments control plane and wire; nil: neither
}

// Plant is an assembled control plant. Exactly one of Ctrl and Disp is set.
type Plant struct {
	Topo     *topo.Generated
	Policy   *policy.Policy
	Plan     packet.Plan
	Stations []packet.BSID // generator order
	Clauses  []int         // the policy's allow clauses, id order

	Ctrl *core.Controller  // Spec.Shards == 0
	Disp *shard.Dispatcher // Spec.Shards > 0; the caller closes it

	cp      ctrlproto.ControlPlane // whichever of Ctrl and Disp is set
	obs     *obs.Registry
	srvOnce sync.Once
	srv     *ctrlproto.Server
}

// MBTypes maps the policy's middlebox function names to topology middlebox
// types: the one table behind every plant and softcell.StandardMBTypes.
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

// New generates the topology and builds the control plane over it.
func New(spec Spec) (*Plant, error) {
	if err := CheckTagCapacity(spec.Shards); err != nil {
		return nil, err
	}
	g, err := topo.Generate(spec.Topo)
	if err != nil {
		return nil, err
	}
	p := &Plant{Topo: g, Policy: policy.ExampleCarrierPolicy(), Plan: PlanFor(spec.Shards), obs: spec.Obs}
	p.Clauses = allowClauses(p.Policy)
	for _, st := range g.Stations {
		p.Stations = append(p.Stations, st.ID)
	}
	if spec.Shards > 0 {
		p.Disp, err = shard.New(shard.Config{
			Topology: g.Topology, Gateway: g.GatewayID, Policy: p.Policy, MBTypes: MBTypes(),
			Plan: p.Plan, Shards: spec.Shards, Obs: spec.Obs,
		})
		p.cp = p.Disp
	} else {
		p.Ctrl, err = core.NewController(g.Topology, core.ControllerConfig{
			Gateway: g.GatewayID, Policy: p.Policy, MBTypes: MBTypes(),
			Plan: p.Plan, Obs: spec.Obs,
		})
		p.cp = p.Ctrl
	}
	if err != nil {
		return nil, err
	}
	return p, nil
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
