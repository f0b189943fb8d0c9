package plant

import (
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ctrlproto"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topo"
)

var smallTopo = topo.GenParams{K: 2, ClusterSize: 4, MBTypes: 3, Seed: 5}

func mustPlant(t *testing.T, spec Spec) *Plant {
	t.Helper()
	p, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Disp != nil {
		t.Cleanup(p.Disp.Close)
	}
	return p
}

// TestSameSpecSamePlant: a Spec determines the plant — stations, clauses,
// plan and, when sharded, which shard owns which station.
func TestSameSpecSamePlant(t *testing.T) {
	for _, shards := range []int{0, 3} {
		a := mustPlant(t, Spec{Topo: smallTopo, Shards: shards})
		b := mustPlant(t, Spec{Topo: smallTopo, Shards: shards})
		// K=2 with four stations per cluster: 8 stations.
		if len(a.Stations) != 8 || len(a.Clauses) == 0 {
			t.Fatalf("shards=%d: %d stations, %d clauses", shards, len(a.Stations), len(a.Clauses))
		}
		if !reflect.DeepEqual(a.Stations, b.Stations) || !reflect.DeepEqual(a.Clauses, b.Clauses) || a.Plan != b.Plan {
			t.Fatalf("shards=%d: same spec, different plants:\n a: %v %v %+v\n b: %v %v %+v",
				shards, a.Stations, a.Clauses, a.Plan, b.Stations, b.Clauses, b.Plan)
		}
		if (a.Ctrl != nil) == (a.Disp != nil) || (a.Disp != nil) != (shards > 0) {
			t.Fatalf("shards=%d: Ctrl set=%v Disp set=%v", shards, a.Ctrl != nil, a.Disp != nil)
		}
		if shards == 0 {
			continue
		}
		for _, bs := range a.Stations {
			oa, _ := a.Disp.Ring().Owner(bs)
			ob, _ := b.Disp.Ring().Owner(bs)
			if oa != ob {
				t.Fatalf("station %d owned by shard %d in one plant, %d in the other", bs, oa, ob)
			}
		}
	}
}

// TestWarmedPathOverDial: both plant shapes answer a warmed path request
// over the in-process control channel with the tag the control plane
// holds.
func TestWarmedPathOverDial(t *testing.T) {
	for _, shards := range []int{0, 3} {
		p := mustPlant(t, Spec{Topo: smallTopo, Shards: shards})
		if err := p.WarmPaths(); err != nil {
			t.Fatal(err)
		}
		cl := p.Dial(nil)
		bs, clause := p.Stations[len(p.Stations)-1], p.Clauses[0]
		got, err := cl.RequestPath(bs, clause)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		want, err := p.cp.RequestPath(bs, clause)
		if err != nil || got != want || got == 0 {
			t.Fatalf("shards=%d: wire tag %d, control plane tag %d (err %v)", shards, got, want, err)
		}
		_ = cl.Close()
	}
}

// TestShardCountBeyondTagSpaceRefused: a width whose residue class cannot
// hold 8 tags per allow clause is refused before anything is built, and
// the message carries the shard count, the capacity and the need.
func TestShardCountBeyondTagSpaceRefused(t *testing.T) {
	if err := checkTagCapacity(102); err != nil {
		t.Fatalf("102 shards (40 tags each) refused: %v", err)
	}
	_, err := New(Spec{Topo: smallTopo, Shards: 103})
	if err == nil {
		t.Fatal("103 shards accepted")
	}
	for _, want := range []string{"103 shards", "39 policy tags", "below the 40", "5 allow clauses"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestDialWrapFaultyConnCorrelatesRetries: the wrap hook sits under the
// client, so a dropped first transmission is retried with the same request
// id and the retry's answer reaches the waiting caller.
func TestDialWrapFaultyConnCorrelatesRetries(t *testing.T) {
	p := mustPlant(t, Spec{Topo: smallTopo, Shards: 3})
	var dropped, resent atomic.Uint32
	cl := p.Dial(func(c net.Conn) net.Conn {
		return ctrlproto.NewFaultyConn(c, func(info ctrlproto.FrameInfo) ctrlproto.FaultAction {
			if info.Type != ctrlproto.MsgPathRequest {
				return ctrlproto.FaultDeliver
			}
			if dropped.CompareAndSwap(0, info.ReqID) {
				return ctrlproto.FaultDrop
			}
			if info.ReqID == dropped.Load() {
				resent.Add(1)
			}
			return ctrlproto.FaultDeliver
		})
	})
	defer cl.Close()
	cl.Timeout, cl.Attempts = 20*time.Millisecond, 10
	tag, err := cl.RequestPath(p.Stations[0], p.Clauses[0])
	if err != nil || tag == 0 {
		t.Fatalf("RequestPath over a lossy wire = (%d, %v)", tag, err)
	}
	if dropped.Load() == 0 || resent.Load() == 0 {
		t.Fatalf("dropped request id %d, %d retransmissions under the same id", dropped.Load(), resent.Load())
	}
}

// TestSingleControllerSpecBuildsItsNetwork: Shards == 0 yields the full
// network over the plant's own controller, one agent per station on the
// controller's permanent pool; a sharded Spec yields no data plane.
func TestSingleControllerSpecBuildsItsNetwork(t *testing.T) {
	p := mustPlant(t, Spec{Topo: smallTopo})
	if p.Net == nil || p.Net.Ctrl != p.Ctrl {
		t.Fatal("no network over the plant's controller")
	}
	if len(p.Net.Agents) != len(p.Stations) {
		t.Fatalf("%d agents for %d stations", len(p.Net.Agents), len(p.Stations))
	}
	for _, bs := range p.Stations {
		ag := p.Net.Agents[bs]
		if ag == nil || ag.PermPool != p.Ctrl.PermPool() {
			t.Fatalf("station %d: agent %v, want one on pool %s", bs, ag, p.Ctrl.PermPool())
		}
	}
	if sharded := mustPlant(t, Spec{Topo: smallTopo, Shards: 2}); sharded.Net != nil || sharded.Ctrl != nil {
		t.Fatal("a sharded spec built a single controller or a data plane")
	}
}

// TestDefaultMBFuncsInvertMBTypes: with MBFuncs unset, every middlebox
// instance runs the function its topology type maps from, for the default
// table and for a permuted one.
func TestDefaultMBFuncsInvertMBTypes(t *testing.T) {
	permuted := map[string]topo.MBType{
		policy.MBFirewall: 2, policy.MBTranscoder: 0, policy.MBEchoCancel: 1,
		policy.MBIDS: 4, policy.MBNAT: 3,
	}
	allTypes := topo.GenParams{K: 2, ClusterSize: 4, MBTypes: 5, Seed: 5}
	for _, types := range []map[string]topo.MBType{nil, permuted} {
		p := mustPlant(t, Spec{Topo: allTypes, MBTypes: types})
		if types == nil {
			types = MBTypes()
		}
		seen := map[string]bool{}
		for id, box := range p.Net.Boxes {
			if want := types[box.Func()]; p.Topo.Instance(id).Type != want {
				t.Fatalf("instance %d of type %d runs %s (type %d)", id, p.Topo.Instance(id).Type, box.Func(), want)
			}
			seen[box.Func()] = true
		}
		if len(seen) != len(types) {
			t.Fatalf("%d of %d functions instantiated: %v", len(seen), len(types), seen)
		}
	}
}

// TestSpecRefusals: a Spec the builder cannot honour is refused with its
// reason, in both shapes: no topology to generate, a plan the controllers
// reject, a middlebox type no function is mapped to.
func TestSpecRefusals(t *testing.T) {
	badPlan := packet.DefaultPlan
	badPlan.TagBits = 13
	for name, c := range map[string]struct {
		spec Spec
		want string
	}{
		"no topology":             {Spec{}, "K=0"},
		"bad plan":                {Spec{Topo: smallTopo, Plan: badPlan}, "TagBits=13"},
		"bad plan, sharded":       {Spec{Topo: smallTopo, Plan: badPlan, Shards: 2}, "TagBits=13"},
		"unmapped middlebox type": {Spec{Topo: smallTopo, MBFuncs: map[topo.MBType]string{0: policy.MBFirewall}}, "no function mapped"},
	} {
		if _, err := New(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New error %v, want one mentioning %q", name, err, c.want)
		}
	}
}
