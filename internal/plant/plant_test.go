package plant

import (
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ctrlproto"
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
		if len(a.Stations) != smallTopo.NumBaseStations() || len(a.Clauses) == 0 {
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
	if err := CheckTagCapacity(102); err != nil {
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
