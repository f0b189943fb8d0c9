package core_test

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/plant"
	"repro/internal/policy"
	"repro/internal/topo"
)

// TestRequestPathErrors: a request for a path that cannot exist fails
// cleanly, in process and over the control channel, on a cold table and on
// a warm one. Beside an unknown and a denying clause, the cases probe the
// bounds of the lock-free table read: a clause below zero or one past the
// policy, a station outside the topology, and the largest station ID the
// wire carries from any peer.
func TestRequestPathErrors(t *testing.T) {
	p, err := plant.New(plant.Spec{Topo: topo.GenParams{K: 2, ClusterSize: 4, MBTypes: 3, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	deny, ok := p.Policy.Match(policy.Attributes{Provider: "C"}, policy.AppWeb)
	if cl, _ := p.Policy.Clause(deny); !ok || cl.Action.Allow {
		t.Fatal("the policy has no deny clause for a foreign subscriber")
	}
	bs, outside := p.Stations[0], packet.BSID(0)
	for _, s := range p.Stations {
		outside = max(outside, s+1)
	}
	cases := []struct {
		name   string
		bs     packet.BSID
		clause int
	}{
		{"unknown clause", bs, 999},
		{"deny clause", bs, deny},
		{"negative clause", bs, -1},
		{"clause one past the policy", bs, p.Policy.Len()},
		{"station outside the topology", outside, p.Clauses[0]},
		{"largest station ID", math.MaxUint32, p.Clauses[0]},
	}
	wire := p.Dial(nil)
	defer wire.Close()
	for _, warm := range []bool{false, true} {
		if warm {
			if err := p.WarmPaths(); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range cases {
			if tag, err := p.Ctrl.RequestPath(tc.bs, tc.clause); err == nil {
				t.Errorf("warm=%v %s (bs %d, clause %d): served tag %d", warm, tc.name, tc.bs, tc.clause, tag)
			}
			if tag, err := wire.RequestPath(tc.bs, tc.clause); err == nil {
				t.Errorf("warm=%v %s over the wire (bs %d, clause %d): served tag %d", warm, tc.name, tc.bs, tc.clause, tag)
			}
		}
	}
}
