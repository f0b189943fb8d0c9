package shard_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/plant"
	"repro/internal/policy"
	"repro/internal/topo"
)

// TestStationOutsideTheTopologyIsRefused: a base station the topology does
// not have belongs to no shard. Every station-keyed operation on one — in
// process, and through a control channel (which carries path requests,
// attaches and handoffs; agent views are only pushed) — fails with the one
// error naming the station and wrapping core.ErrNotOwned, and the UE that
// tried to move there stays where it was.
func TestStationOutsideTheTopologyIsRefused(t *testing.T) {
	p, err := plant.New(plant.Spec{Topo: topo.GenParams{K: 4, ClusterSize: 3, MBTypes: 3, Seed: 1}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Disp.Close)
	if err := p.Disp.RegisterSubscriber("ue", policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
		t.Fatal(err)
	}
	home := p.Stations[0]
	if _, _, err := p.Disp.Attach("ue", home); err != nil {
		t.Fatal(err)
	}
	cl := p.Dial(nil)
	defer cl.Close()
	clause := p.Clauses[0]

	for _, bs := range []packet.BSID{packet.BSID(len(p.Stations)), 1<<32 - 1} {
		want := fmt.Sprintf("base station %d is outside the topology: %v", bs, core.ErrNotOwned)
		for _, tc := range []struct {
			name string
			call func() error
			wire bool
		}{
			{"RequestPath", func() error { _, err := p.Disp.RequestPath(bs, clause); return err }, false},
			{"Attach", func() error { _, _, err := p.Disp.Attach("ue", bs); return err }, false},
			{"Handoff", func() error { _, err := p.Disp.Handoff("ue", bs); return err }, false},
			{"AgentView", func() error { _, err := p.Disp.AgentView(bs); return err }, false},
			{"wire RequestPath", func() error { _, err := cl.RequestPath(bs, clause); return err }, true},
			{"wire Attach", func() error { _, _, err := cl.Attach("ue", bs); return err }, true},
			{"wire Handoff", func() error { _, err := cl.Handoff("ue", bs); return err }, true},
		} {
			err := tc.call()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s at station %d: %v, want an error containing %q", tc.name, bs, err, want)
			}
			if !tc.wire && !errors.Is(err, core.ErrNotOwned) {
				t.Fatalf("%s at station %d: %v does not wrap core.ErrNotOwned", tc.name, bs, err)
			}
		}
	}
	if ue, ok := p.Disp.LookupUE("ue"); !ok || ue.BS != home {
		t.Fatalf("after the refused moves the UE is %+v, %v; want it at station %d", ue, ok, home)
	}
	if _, err := p.Disp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
