package plant_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	softcell "repro"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/plant"
	"repro/internal/policy"
	"repro/internal/topo"
)

// TestExplicitTopologySpecMatchesExample: a Spec naming the Fig. 3
// topology builds the network softcell.Example builds — after the same
// attach and flow, every switch's FIB exports the same rules.
func TestExplicitTopologySpecMatchesExample(t *testing.T) {
	ex, err := softcell.Example()
	if err != nil {
		t.Fatal(err)
	}
	p, err := plant.New(plant.Spec{Topology: ex.T, Gateway: ex.T.Gateways()[0], Policy: policy.ExampleCarrierPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range []*dataplane.Network{ex, p.Net} {
		if err := nw.Ctrl.RegisterSubscriber("alice", policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
			t.Fatal(err)
		}
		ue, err := nw.Attach("alice", 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.SendUpstream(0, &packet.Packet{Src: ue.PermIP, Dst: packet.AddrFrom4(93, 184, 216, 34),
			SrcPort: 44000, DstPort: 443, Proto: packet.ProtoTCP, TTL: 64})
		if err != nil || res.Disposition != dataplane.ExitedNet {
			t.Fatalf("upstream flow: %v %v", res.Disposition, err)
		}
	}
	for n := range ex.T.Nodes {
		want, got := export(ex.Ctrl, topo.NodeID(n)), export(p.Ctrl, topo.NodeID(n))
		if len(want) == 0 && n == 0 {
			t.Fatal("the gateway's FIB is empty after a flow")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("switch %s: Spec exports %d rules, Example %d:\n%v\n%v", ex.T.Nodes[n].Name, len(got), len(want), got, want)
		}
	}
}

func export(c *core.Controller, n topo.NodeID) []string {
	var out []string
	c.Installer.FIB(n).Export(func(r core.ExportedRule) { out = append(out, fmt.Sprintf("%+v", r)) })
	sort.Strings(out)
	return out
}
