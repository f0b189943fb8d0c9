package dataplane

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// conn is an established connection: its opening packet as the UE sent it
// and as the Internet saw it, and the middlebox instances that packet
// crossed, in order — the sequence §5.1 promises the connection keeps.
type conn struct {
	orig  packet.Packet
	wire  *packet.Packet
	boxes []topo.MBInstanceID
}

// openFlow sends a connection's first packet upstream from bs.
func openFlow(net *Network, bs packet.BSID, p *packet.Packet) (conn, error) {
	c := conn{orig: *p, wire: p}
	res, err := net.SendUpstream(bs, p)
	if err != nil {
		return c, err
	}
	if res.Disposition != ExitedNet {
		return c, fmt.Errorf("flow open: %s at %d", res.Disposition, res.Last)
	}
	c.boxes = res.Middleboxes()
	return c, nil
}

func mustOpen(t *testing.T, net *Network, bs packet.BSID, p *packet.Packet) conn {
	t.Helper()
	c, err := openFlow(net, bs, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func reply(up *packet.Packet, payload int) *packet.Packet {
	return &packet.Packet{
		Src: up.Dst, Dst: up.Src, SrcPort: up.DstPort, DstPort: up.SrcPort,
		Proto: up.Proto, TTL: 64, Payload: make([]byte, payload),
	}
}

// The two ways a probe can break §5.1: the packet reaches the wrong place,
// or it reaches the UE past middleboxes other than the connection's own.
var (
	errMisdelivered = errors.New("misdelivered")
	errBypass       = errors.New("middlebox sequence changed")
)

// probe sends the connection's next packet in both directions with the UE
// at bs: the reply must be delivered there through the opening sequence
// reversed, the upstream packet must leave through the opening sequence. It
// returns the delivered reply.
func (c conn) probe(net *Network, bs packet.BSID, payload int) (*packet.Packet, error) {
	d := reply(c.wire, payload)
	res, err := net.SendDownstream(d)
	if err != nil {
		return d, err
	}
	st, _ := net.T.Station(bs)
	if res.Disposition != Delivered || res.Last != st.Access {
		return d, fmt.Errorf("downstream %w: %s at %d, want delivered at %d (hops %v)", errMisdelivered, res.Disposition, res.Last, st.Access, res.Hops)
	}
	want := slices.Clone(c.boxes)
	slices.Reverse(want)
	if got := res.Middleboxes(); !slices.Equal(got, want) {
		return d, fmt.Errorf("downstream %w: crossed %v, want %v (hops %v)", errBypass, got, want, res.Hops)
	}
	u := c.orig
	res, err = net.SendUpstream(bs, &u)
	if err != nil {
		return d, err
	}
	if res.Disposition != ExitedNet {
		return d, fmt.Errorf("upstream %w: %s at %d (hops %v)", errMisdelivered, res.Disposition, res.Last, res.Hops)
	}
	if u.Src != c.wire.Src || u.SrcPort != c.wire.SrcPort {
		return d, fmt.Errorf("upstream %w: left as %s, opened as %s", errMisdelivered, u.Flow(), c.wire.Flow())
	}
	if got := res.Middleboxes(); !slices.Equal(got, c.boxes) {
		return d, fmt.Errorf("upstream %w: crossed %v, want %v (hops %v)", errBypass, got, c.boxes, res.Hops)
	}
	return d, nil
}

func TestHandoffPolicyConsistency(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("m", policy.Attributes{Provider: "A"})
	ue, err := net.Attach("m", 0)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, net, 0, webPacket(ue, 40000))
	if len(c.boxes) != 1 || net.Boxes[c.boxes[0]].Func() != "firewall" || net.Boxes[c.boxes[0]].Stats().Connections != 1 {
		t.Fatalf("the opening crossed %v, want one firewall holding one connection", c.boxes)
	}

	res, err := net.Handoff("m", 3)
	if err != nil {
		t.Fatal(err)
	}
	newUE := res.UE

	// OLD flow: the Internet still addresses the old LocIP and the UE still
	// sends from it; both directions must cross the same firewall instance
	// (downstream by shortcut, upstream by the tunnel to the old path) and
	// the reply must reach the UE at station 3 under its permanent address.
	d, err := c.probe(net, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dst != ue.PermIP || d.DstPort != 40000 {
		t.Fatalf("old flow restore failed: %s", d.Flow())
	}
	if c.wire.Src != res.OldLocIP {
		t.Fatalf("old flow should keep the old LocIP: %s vs %s", c.wire.Src, res.OldLocIP)
	}

	// No middlebox ever saw mid-connection traffic it had no state for.
	if v, _ := net.MiddleboxStats(); v != 0 {
		t.Fatalf("policy consistency violations: %d", v)
	}

	// NEW flow after handoff uses the new LocIP and the new station's path.
	n2 := mustOpen(t, net, 3, webPacket(newUE, 41000))
	if n2.wire.Src != newUE.LocIP {
		t.Fatalf("new flow src = %s, want new LocIP %s", n2.wire.Src, newUE.LocIP)
	}

	// After the soft timeout the shortcuts disappear; new flows unaffected.
	net.Ctrl.ReleaseOldLocIP(res.OldLocIP, res.Shortcuts)
	if err := net.Sync(); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, net, 3, webPacket(newUE, 41001))
}

func videoPacket(ue core.UE, sport uint16) *packet.Packet {
	p := webPacket(ue, sport)
	p.DstPort = 554
	return p
}

func TestHandoffChainMove(t *testing.T) {
	// Move a silver-plan video subscriber between stations served by
	// different transcoder instances: old flows must keep the OLD
	// transcoder instance (it holds codec state), new flows may use the new
	// one.
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("v", policy.Attributes{Provider: "A", Plan: "silver"})
	ue, _ := net.Attach("v", 0)
	video := mustOpen(t, net, 0, videoPacket(ue, 41000))

	res, err := net.Handoff("v", 3)
	if err != nil {
		t.Fatal(err)
	}

	// Old flow media still crosses its firewall and its transcoder, and is
	// transcoded with zero violations.
	d, err := video.probe(net, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Payload) != 500 {
		t.Fatalf("payload = %d; transcoder state lost", len(d.Payload))
	}
	if v, _ := net.MiddleboxStats(); v != 0 {
		t.Fatalf("violations = %d", v)
	}

	// New video flow from the new station uses the nearer transcoder.
	nv := mustOpen(t, net, 3, videoPacket(res.UE, 41500))
	if slices.Equal(nv.boxes, video.boxes) {
		t.Fatalf("new video flow crossed the old station's instances %v", nv.boxes)
	}
}

// Property-style test (DESIGN.md §6): random attach/flow/handoff schedules
// never produce a policy-consistency violation, and every established flow
// keeps its middlebox instances in both directions after every move.
func TestRandomHandoffScheduleConsistency(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	rng := rand.New(rand.NewSource(7))
	type owned struct {
		conn
		ue string
	}
	ues := []string{"u0", "u1", "u2"}
	at := map[string]packet.BSID{}
	var conns []owned
	sport := uint16(40000)
	for _, u := range ues {
		_ = net.Ctrl.RegisterSubscriber(u, policy.Attributes{Provider: "A"})
		bs := packet.BSID(rng.Intn(4))
		if _, err := net.Attach(u, bs); err != nil {
			t.Fatal(err)
		}
		at[u] = bs
	}
	for step := 0; step < 30; step++ {
		u := ues[rng.Intn(len(ues))]
		switch rng.Intn(3) {
		case 0: // open a new flow
			ue, _ := net.Ctrl.LookupUE(u)
			sport++
			c, err := openFlow(net, at[u], webPacket(ue, sport))
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			conns = append(conns, owned{c, u})
		case 1: // handoff
			nb := packet.BSID(rng.Intn(4))
			if nb == at[u] {
				continue
			}
			if _, err := net.Handoff(u, nb); err != nil {
				t.Fatalf("step %d handoff: %v", step, err)
			}
			at[u] = nb
		case 2: // exercise an existing connection both ways
			if len(conns) == 0 {
				continue
			}
			c := conns[rng.Intn(len(conns))]
			if _, err := c.probe(net, at[c.ue], 8); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if v, _ := net.MiddleboxStats(); v != 0 {
		t.Fatalf("violations after random schedule: %d", v)
	}
}

// TestEveryHandoffKeepsItsMiddleboxes enumerates §5.1 on the benchmark's
// K=4, C=3 plant: every ordered (home, away) pair of stations times three
// kinds of flow, each on a fresh network (so no earlier handoff's microflows
// are left to claim a packet). The flow opens at home, the UE hands off, and
// the connection's next packet in each direction must cross the opening's
// middlebox instances and reach the UE at away, with the controller's own
// checker clean after the handoff and every switch whose FIB the handoff
// changed holding, in order, its full rebuild.
func TestEveryHandoffKeepsItsMiddleboxes(t *testing.T) {
	g, err := topo.Generate(topo.GenParams{K: 4, ClusterSize: 3, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name  string
		attr  policy.Attributes
		dport uint16
	}{
		{"default web", policy.Attributes{Provider: "A"}, 80},
		{"silver video", policy.Attributes{Provider: "A", Plan: "silver"}, 554},
		{"silver web", policy.Attributes{Provider: "A", Plan: "silver"}, 80},
	}
	errInvariant := errors.New("CheckInvariants")
	errTable := errors.New("spliced table")
	triple := func(home, away packet.BSID, kind int) error {
		net := netOn(t, g.Topology, g.GatewayID, packet.Prefix{})
		if err := net.Ctrl.RegisterSubscriber("m", kinds[kind].attr); err != nil {
			return err
		}
		ue, err := net.Attach("m", home)
		if err != nil {
			return err
		}
		p := webPacket(ue, 40000)
		p.DstPort = kinds[kind].dport
		c, err := openFlow(net, home, p)
		if err != nil {
			return err
		}
		if len(c.boxes) == 0 {
			return fmt.Errorf("the opening crossed no middlebox")
		}
		versions := make([]uint64, len(net.Switches))
		for i := range versions {
			versions[i] = net.Ctrl.Installer.FIB(topo.NodeID(i)).Version()
		}
		if _, err := net.Handoff("m", away); err != nil {
			return err
		}
		for i, v := range versions {
			if net.Ctrl.Installer.FIB(topo.NodeID(i)).Version() == v {
				continue
			}
			if err := tableDiff(t, net, topo.NodeID(i)); err != nil {
				return fmt.Errorf("%w: %v", errTable, err)
			}
		}
		if _, err := net.Ctrl.CheckInvariants(); err != nil {
			return fmt.Errorf("%w: %v", errInvariant, err)
		}
		_, err = c.probe(net, away, 8)
		return err
	}

	// The reproduction from bench/README.md: the path is gw -> 4 -> 19 ->
	// 18[fw] -> 39 and the shortcut 18 -> 19 -> 0 -> ... re-crosses switch
	// 19, which the packet reaches before its firewall.
	t.Run("station 6 to 18, silver web", func(t *testing.T) {
		if err := triple(6, 18, 2); err != nil {
			t.Fatal(err)
		}
	})

	stations := len(g.Stations)
	triples, bypasses, misdelivered, unchecked, tables, other := 0, 0, 0, 0, 0, 0
	var first error
	for home := 0; home < stations; home++ {
		for away := 0; away < stations; away++ {
			if home == away {
				continue
			}
			for kind := range kinds {
				triples++
				err := triple(packet.BSID(home), packet.BSID(away), kind)
				switch {
				case err == nil:
					continue
				case errors.Is(err, errBypass):
					bypasses++
				case errors.Is(err, errMisdelivered):
					misdelivered++
				case errors.Is(err, errInvariant):
					unchecked++
				case errors.Is(err, errTable):
					tables++
				default:
					other++
				}
				if first == nil {
					first = fmt.Errorf("%d -> %d, %s: %w", home, away, kinds[kind].name, err)
				}
			}
		}
	}
	t.Logf("%d triples: %d bypasses, %d wrong deliveries, %d CheckInvariants errors, %d tables unlike their rebuild, %d other errors",
		triples, bypasses, misdelivered, unchecked, tables, other)
	if first != nil {
		t.Fatalf("%d of %d triples broke §5.1; first: %v", bypasses+misdelivered+unchecked+tables+other, triples, first)
	}
}

// TestPublishMidHandoffKeepsMigratedFlows hands a UE with a live web flow
// from station 7 to 33 on genNet, then publishes station 33's view before
// the flow's next packets. The view grants station 33's own tags, but the
// migrated upstream entry rides its origin station's path: it must keep
// its tunnel action, old LocIP and tag, and the flow must still cross the
// middlebox instances it opened through (§5.1).
func TestPublishMidHandoffKeepsMigratedFlows(t *testing.T) {
	net := genNet(t)
	if err := net.Ctrl.RegisterSubscriber("m", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	ue, err := net.Attach("m", 7)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, net, 7, webPacket(ue, 40000))
	if _, err := net.Handoff("m", 33); err != nil {
		t.Fatal(err)
	}
	ag := net.Agents[33]
	view, err := net.Ctrl.AgentView(33)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ag.Publish(agent.NewSnapshot(ag.Version()+1, view))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := ag.Access.Microflow(c.orig.Flow())
	if !ok {
		t.Fatalf("the publish (%+v) tore the migrated entry down", rep)
	}
	if a := r.Action; a.Resubmit || a.Output != switchsim.PortTunnelBase+7 || a.Src != c.wire.Src || a.SrcPort != c.wire.SrcPort {
		t.Fatalf("after the publish (%+v) the migrated entry is %+v, want a tunnel to station 7 from %s:%d",
			rep, a, c.wire.Src, c.wire.SrcPort)
	}
	if _, err := c.probe(net, 33, 8); err != nil {
		t.Fatal(err)
	}
}

// TestPublishKeepsReservedLocIPs: station 33's published view lists a UE
// handed in from station 7 with its reserved old LocIP, so a publish between
// the handoff and the release keeps delivering to that address (§5.1), and
// the publish after the release drops it.
func TestPublishKeepsReservedLocIPs(t *testing.T) {
	net := genNet(t)
	if err := net.Ctrl.RegisterSubscriber("r", policy.Attributes{Provider: "A"}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("r", 7); err != nil {
		t.Fatal(err)
	}
	hr, err := net.Handoff("r", 33)
	if err != nil {
		t.Fatal(err)
	}
	ag := net.Agents[33]
	arrive := func() (bool, error) {
		t.Helper()
		view, err := net.Ctrl.AgentView(33)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ag.Publish(agent.NewSnapshot(ag.Version()+1, view)); err != nil {
			t.Fatal(err)
		}
		return ag.HandleArrival(&packet.Packet{Src: packet.AddrFrom4(10, 0, 99, 1), Dst: hr.OldLocIP,
			SrcPort: 5000, DstPort: 80, Proto: packet.ProtoTCP})
	}
	if delivered, err := arrive(); !delivered || err != nil {
		t.Fatalf("after a publish, an arrival for the reserved %s: delivered %v, %v", hr.OldLocIP, delivered, err)
	}
	net.Ctrl.ReleaseOldLocIP(hr.OldLocIP, hr.Shortcuts)
	if delivered, err := arrive(); delivered || err == nil {
		t.Fatalf("after the release and a publish, %s still resolves at station 33 (delivered %v)", hr.OldLocIP, delivered)
	}
}
