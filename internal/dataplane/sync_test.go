package dataplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fastpath"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// referenceTCAM is the full rebuild Sync used to perform on every switch,
// kept as the statement of what a switch's TCAM must hold: every rule the
// node's FIB exports, plus the public-IP bindings on the gateway, translated
// from scratch.
func referenceTCAM(t testing.TB, n *Network, node topo.NodeID) []switchsim.Rule {
	t.Helper()
	var rules []switchsim.Rule
	n.Ctrl.Installer.FIB(node).Export(func(r core.ExportedRule) {
		rule, err := n.exportedRule(node, r)
		if err != nil {
			t.Fatalf("switch %d: %v", node, err)
		}
		rules = append(rules, rule)
	})
	if node == n.Ctrl.Gateway() {
		for _, b := range n.bindings {
			rules = append(rules, n.bindingRule(b))
		}
	}
	return rules
}

// ruleBag renders a table as a sorted multiset of (priority, match, action).
func ruleBag(rules []switchsim.Rule) []string {
	bag := make([]string, len(rules))
	for i, r := range rules {
		bag[i] = fmt.Sprintf("prio=%d %s -> %s eph=%d", r.Priority, r.Match, r.Action, r.Action.TagEphBits)
	}
	sort.Strings(bag)
	return bag
}

// checkTCAMs asserts every switch holds exactly its FIB's rules.
func checkTCAMs(t testing.TB, n *Network, when string) {
	t.Helper()
	for i, sw := range n.Switches {
		got := ruleBag(sw.Rules())
		want := ruleBag(referenceTCAM(t, n, topo.NodeID(i)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: switch %d holds %d rules, its FIB exports %d:\n got %v\nwant %v",
				when, i, len(got), len(want), got, want)
		}
	}
}

// churn drives one seeded random control-op sequence against a network.
// Which UEs are attached, and where, is read back from the controller, so
// the driver never disagrees with it.
type churn struct {
	t       testing.TB
	net     *Network
	rng     *rand.Rand
	imsis   []string
	pending []core.HandoffResult // handoffs not yet released
	failed  topo.NodeID          // the one switch currently down, or topo.None
	exposed int                  // chain-free clause for public-IP bindings
	sport   uint16
	public  byte
	exited  int // new flows that made it out of the gateway
	log     []string
}

func newChurn(t testing.TB, seed int64) *churn {
	c := &churn{t: t, net: genNet(t), rng: rand.New(rand.NewSource(seed)), failed: topo.None, sport: 40000}
	c.exposed = c.net.Ctrl.Policy.Add(policy.Clause{
		Priority: 90, Name: "exposed-server",
		Pred:   policy.Attr(policy.FieldDeviceType, "server"),
		Action: policy.Via(),
	})
	for i := 0; i < 6; i++ {
		imsi := fmt.Sprintf("ue%d", i)
		attr := policy.Attributes{Provider: "A"}
		if i%2 == 1 {
			attr.Plan = "silver"
		}
		if err := c.net.Ctrl.RegisterSubscriber(imsi, attr); err != nil {
			t.Fatal(err)
		}
		c.imsis = append(c.imsis, imsi)
	}
	return c
}

func (c *churn) station() packet.BSID { return packet.BSID(c.rng.Intn(len(c.net.T.Stations))) }

// attached picks a random attached UE.
func (c *churn) attached() (core.UE, bool) {
	for _, i := range c.rng.Perm(len(c.imsis)) {
		if ue, ok := c.net.Ctrl.LookupUE(c.imsis[i]); ok && ue.LocIP != 0 {
			return ue, true
		}
	}
	return core.UE{}, false
}

// step runs one random op and returns its description; ok is false when
// the op had no subject (nobody attached, nothing pending).
func (c *churn) step() (op string, ok bool) {
	t, n := c.t, c.net
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v\nops so far: %v", op, err, c.log)
		}
	}
	switch c.rng.Intn(10) {
	case 0: // attach
		imsi := c.imsis[c.rng.Intn(len(c.imsis))]
		if ue, found := n.Ctrl.LookupUE(imsi); found && ue.LocIP != 0 {
			return "", false
		}
		bs := c.station()
		op = fmt.Sprintf("attach %s at %d", imsi, bs)
		_, err := n.Attach(imsi, bs)
		must(err)
	case 1, 2, 3: // new flow (web or video, so two clauses per station)
		ue, found := c.attached()
		if !found {
			return "", false
		}
		c.sport++
		p := webPacket(ue, c.sport)
		if c.rng.Intn(2) == 0 {
			p.DstPort = 554
		}
		op = fmt.Sprintf("flow %s:%d->%d at %d", ue.IMSI, c.sport, p.DstPort, ue.BS)
		// After a failure the agents' cached tags may be stale, so a flow
		// is allowed to die; it must not error.
		res, err := n.SendUpstream(ue.BS, p)
		must(err)
		if res.Disposition == ExitedNet {
			c.exited++
		}
	case 4, 5: // handoff
		ue, found := c.attached()
		if !found {
			return "", false
		}
		bs := c.station()
		if bs == ue.BS {
			return "", false
		}
		op = fmt.Sprintf("handoff %s %d->%d", ue.IMSI, ue.BS, bs)
		hr, err := n.Handoff(ue.IMSI, bs)
		must(err)
		c.pending = append(c.pending, hr)
	case 6: // release the oldest pending handoff
		if len(c.pending) == 0 {
			return "", false
		}
		hr := c.pending[0]
		c.pending = c.pending[1:]
		op = fmt.Sprintf("release %s", hr.OldLocIP)
		n.Ctrl.ReleaseOldLocIP(hr.OldLocIP, hr.Shortcuts)
	case 7: // detach
		ue, found := c.attached()
		if !found {
			return "", false
		}
		op = "detach " + ue.IMSI
		must(n.Ctrl.Detach(ue.IMSI))
	case 8: // fail a core switch, or recover the failed one
		if c.failed != topo.None {
			op = fmt.Sprintf("recover switch %d", c.failed)
			_, err := n.Ctrl.RecoverSwitch(c.failed)
			must(err)
			c.failed = topo.None
			break
		}
		var cores []topo.NodeID
		for i, nd := range n.T.Nodes {
			if nd.Kind == topo.Core {
				cores = append(cores, topo.NodeID(i))
			}
		}
		c.failed = cores[c.rng.Intn(len(cores))]
		op = fmt.Sprintf("fail switch %d", c.failed)
		_, err := n.Ctrl.FailSwitch(c.failed)
		must(err)
	case 9: // withdraw a clause's paths, or expose a UE on a public address
		if c.rng.Intn(2) == 0 {
			clause := c.rng.Intn(c.exposed)
			op = fmt.Sprintf("remove paths of clause %d", clause)
			must(n.Ctrl.RemovePolicyPaths(clause))
			break
		}
		ue, found := c.attached()
		if !found {
			return "", false
		}
		c.public++
		op = fmt.Sprintf("bind %s to 192.0.2.%d", ue.IMSI, c.public)
		must(n.BindPublicIP(ue.IMSI, packet.AddrFrom4(192, 0, 2, c.public), c.exposed))
	}
	c.log = append(c.log, op)
	return op, true
}

// run performs steps ops, syncing after each; check runs after every Sync.
func (c *churn) run(steps int, check func(op string)) {
	for done := 0; done < steps; {
		op, ok := c.step()
		if !ok {
			continue
		}
		done++
		if err := c.net.Sync(); err != nil {
			c.t.Fatalf("sync after %s: %v\nops so far: %v", op, err, c.log)
		}
		if check != nil {
			check(op)
		}
	}
}

// walked is one class of traffic the controller's checker verifies: an
// installed path and an address it carries — the origin's never-allocated
// UE ID 0 for the path itself, or a handed-off UE's reserved old LocIP —
// with the access switches whose microflows end its downstream walk.
type walked struct {
	rec   *core.InstalledPath
	loc   packet.Addr
	claim []topo.NodeID
}

// classes lists every installed path and every reservation of the churn's
// current state.
func (c *churn) classes() []walked {
	n := c.net
	paths := n.Ctrl.Installer.Paths()
	var out []walked
	for _, rec := range paths {
		bs, err := n.plan.BSPrefix(rec.Origin)
		if err != nil {
			c.t.Fatal(err)
		}
		out = append(out, walked{rec, bs.Addr, []topo.NodeID{rec.Route.Access()}})
	}
	for _, hr := range c.pending {
		ue, ok := n.Ctrl.LookupByLocIP(hr.OldLocIP)
		if !ok || ue.LocIP == hr.OldLocIP {
			continue // released since (by a detach-and-reuse of the address, say)
		}
		for _, rec := range paths {
			if rec.Origin != hr.OldBS {
				continue
			}
			claim := []topo.NodeID{rec.Route.Access()}
			if st, ok := n.T.Station(ue.BS); ok && ue.LocIP != 0 {
				claim = append(claim, st.Access)
			}
			out = append(out, walked{rec, hr.OldLocIP, claim})
		}
	}
	return out
}

// fastWalk drives p through the burst walker from (node, inPort). The fast
// path declines at a middlebox port, so the walk resumes on the return port
// of each of boxes in turn (none of the plant's middleboxes rewrites a
// header). It returns the final result and the switch traversals summed
// over the segments.
func fastWalk(t testing.TB, n *Network, w *fastpath.Walker, node topo.NodeID, inPort int, p *packet.Packet, boxes []topo.MBInstanceID) (fastpath.Result, int) {
	t.Helper()
	res := make([]fastpath.Result, 1)
	hops := 0
	for {
		r := w.Walk(int(node), inPort, []*packet.Packet{p}, res)[0]
		hops += int(r.Hops)
		if r.Disp != fastpath.DispSlow || len(boxes) == 0 {
			return r, hops
		}
		mb := boxes[0]
		boxes = boxes[1:]
		if at := n.T.MBoxes[mb].Attached; at != topo.NodeID(r.Last) {
			t.Fatalf("the burst walk left the fast path at switch %d; the next middlebox, %d, hangs off %d", r.Last, mb, at)
		}
		node, inPort = topo.NodeID(r.Last), n.mbPort[mb]
	}
}

// checkWalkers is the differential test of the walkers against core's
// written match order (FIB.Step, through Installer.Walk): for every class
// of traffic the controller's checker verifies, in both directions, the
// data plane's single-packet walk must take the controller walk's (switch,
// middlebox) sequence hop for hop and end as it does — downstream at a
// delivering microflow the probe gets, for the length of its walk, on the
// access switch where the controller says one claims it — and the burst
// walk must agree with the single-packet walk on traversals, end,
// disposition and final header. It returns how many path classes and how
// many reserved addresses it walked.
func (c *churn) checkWalkers(w *fastpath.Walker, when string) (paths, reserved int) {
	t, n := c.t, c.net
	t.Helper()
	in := n.Ctrl.Installer
	for _, k := range c.classes() {
		if _, id, _ := n.plan.Split(k.loc); id == 0 {
			paths++
		} else {
			reserved++
		}
		sport, err := n.plan.EmbedPort(k.rec.AccessTag(), 7)
		if err != nil {
			t.Fatal(err)
		}
		// Upstream first, as a connection opens: the firewalls drop a reply
		// to a flow they never saw leave.
		pkt := &packet.Packet{Src: k.loc, Dst: packet.AddrFrom4(198, 18, 0, 1),
			SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP, TTL: 64}
		arrives := pkt.Flow().Reverse() // the reply, as the access layer's microflows key it
		for _, dir := range []core.Direction{core.Up, core.Down} {
			from, tag, port := k.rec.Route.Access(), k.rec.AccessTag(), switchsim.PortUE
			var claim []topo.NodeID
			if dir == core.Down {
				pkt = reply(pkt, 8)
				from, tag, port, claim = n.Ctrl.Gateway(), k.rec.GatewayTag(), switchsim.PortExit, k.claim
			}
			what := fmt.Sprintf("%s: %s %s on path %d (%s)", when, dir, k.loc, k.rec.ID, k.rec.Route)
			want, err := in.Walk(dir, from, tag, k.loc, claim...)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			end, fastEnd := ExitedNet, fastpath.DispExited
			var holder *switchsim.Switch
			if dir == core.Down {
				end, fastEnd = Delivered, fastpath.DispDelivered
				holder = n.Switches[want[len(want)-1].Switch]
				holder.InstallMicroflow(arrives, switchsim.Action{Output: switchsim.PortUE})
			}
			fp := *pkt
			got, err := n.walk(from, port, pkt)
			if err != nil {
				t.Fatalf("%s: %v (first hops %v)", what, err, got.Hops[:min(24, len(got.Hops))])
			}
			// The data plane records a switch again when a packet comes back
			// from its middlebox; the controller walk does not.
			var hops []core.Hop
			traversals := 0
			for i, h := range got.Hops {
				if h.MB == core.NoMB {
					traversals++
					if i > 0 && got.Hops[i-1].MB != core.NoMB {
						continue
					}
				}
				hops = append(hops, core.Hop{Switch: h.Node, MB: h.MB})
			}
			if got.Disposition != end || !slices.Equal(hops, want) {
				t.Fatalf("%s: the data plane walked %v (%s), the controller %v", what, hops, got.Disposition, want)
			}
			r, fastHops := fastWalk(t, n, w, from, port, &fp, got.Middleboxes())
			if r.Disp != fastEnd || topo.NodeID(r.Last) != got.Last || fastHops != traversals ||
				fp.Flow() != pkt.Flow() || fp.DSCP != pkt.DSCP {
				t.Fatalf("%s: the burst walk ended %s at %d after %d traversals as %s; the single-packet walk %s at %d after %d as %s",
					what, r.Disp, r.Last, fastHops, fp.Flow(), got.Disposition, got.Last, traversals, pkt.Flow())
			}
			if holder != nil {
				holder.RemoveMicroflow(arrives)
			}
		}
	}
	return paths, reserved
}

// TestSyncMatchesFullRebuild is the differential test for version-gated
// Sync: whatever the control plane did, after a Sync every switch's TCAM is
// the multiset of rules a from-scratch export of its FIB yields — and the
// three walkers (controller, single-packet, burst) agree on what those
// tables do with every class of traffic the controller's checker verifies.
func TestSyncMatchesFullRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := newChurn(t, seed)
			w := c.net.EnableFastPath(1).Net().NewWalker()
			defer c.net.DisableFastPath()
			step, paths, reserved := 0, 0, 0
			c.run(80, func(op string) {
				step++
				when := fmt.Sprintf("step %d (%s)", step, op)
				checkTCAMs(t, c.net, when)
				if _, err := c.net.Ctrl.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				p, r := c.checkWalkers(w, when)
				paths, reserved = paths+p, reserved+r
			})
			if c.exited == 0 {
				t.Fatal("no flow of the schedule left the network; the ops exercised nothing")
			}
			t.Logf("walked %d path classes and %d reserved addresses, both directions each", paths, reserved)
			if paths == 0 || reserved == 0 {
				t.Fatal("the schedule left the walkers a kind of traffic to be compared on nothing")
			}
		})
	}
}

// TestSyncSameSeedSameTables: two plants driven by one seed hold identical
// tables — IDs, order and all — on every switch, although the FIBs export
// their rules in map order.
func TestSyncSameSeedSameTables(t *testing.T) {
	a, b := newChurn(t, 11), newChurn(t, 11)
	a.run(60, nil)
	b.run(60, nil)
	if !reflect.DeepEqual(a.log, b.log) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a.log, b.log)
	}
	for i := range a.net.Switches {
		ra, rb := a.net.Switches[i].Rules(), b.net.Switches[i].Rules()
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("switch %d differs between same-seed runs:\n%v\n%v", i, ra, rb)
		}
	}
}

func generations(n *Network) []uint64 {
	gens := make([]uint64, len(n.Switches))
	for i, sw := range n.Switches {
		gens[i] = sw.Generation()
	}
	return gens
}

// TestSyncNoChangeIsFree: with no control op since the last Sync, another
// one moves no generation (so no fast-path snapshot recompiles) and
// allocates nothing.
func TestSyncNoChangeIsFree(t *testing.T) {
	c := newChurn(t, 5)
	c.net.EnableFastPath(1)
	defer c.net.DisableFastPath()
	c.run(40, nil)
	before := generations(c.net)
	if err := c.net.Sync(); err != nil {
		t.Fatal(err)
	}
	if after := generations(c.net); !reflect.DeepEqual(before, after) {
		t.Fatalf("a Sync with nothing to do moved generations:\n%v\n%v", before, after)
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = c.net.Sync() }); allocs != 0 {
		t.Fatalf("a Sync with nothing to do allocates %.1f objects", allocs)
	}
}

// TestSyncKeepsCountersOfUntouchedSwitches: a control op rebuilds only the
// switches whose FIB it changed; everywhere else the rules — and the
// traffic they have counted — stay as they are.
func TestSyncKeepsCountersOfUntouchedSwitches(t *testing.T) {
	net := genNet(t)
	for _, imsi := range []string{"a", "b"} {
		_ = net.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"})
	}
	ueA, err := net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if res, err := net.SendUpstream(0, webPacket(ueA, 40000)); err != nil || res.Disposition != ExitedNet {
			t.Fatalf("flow a: %v %v", res.Disposition, err)
		}
	}
	versions := make([]uint64, len(net.Switches))
	tables := make([][]switchsim.Rule, len(net.Switches))
	for i, sw := range net.Switches {
		versions[i] = net.Ctrl.Installer.FIB(topo.NodeID(i)).Version()
		tables[i] = sw.Rules()
	}

	// A first flow from a far station installs a new path: some switches
	// change, most do not.
	far := packet.BSID(len(net.T.Stations) - 1)
	ueB, err := net.Attach("b", far)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := net.SendUpstream(far, webPacket(ueB, 40000)); err != nil || res.Disposition != ExitedNet {
		t.Fatalf("flow b: %v %v", res.Disposition, err)
	}

	rebuilt, counted := 0, 0
	for i, sw := range net.Switches {
		if net.Ctrl.Installer.FIB(topo.NodeID(i)).Version() != versions[i] {
			rebuilt++
			continue
		}
		now := sw.Rules()
		for j := range tables[i] {
			// Flow b may have added traffic; nothing may be lost or renumbered.
			was := tables[i][j]
			if now[j].ID != was.ID || now[j].Packets < was.Packets || now[j].Bytes < was.Bytes {
				t.Fatalf("switch %d rule %d: %+v became %+v", i, j, was, now[j])
			}
			if was.Packets > 0 {
				counted++
			}
		}
	}
	if rebuilt == 0 || rebuilt == len(net.Switches) {
		t.Fatalf("%d of %d switches rebuilt; the test needs some and not all", rebuilt, len(net.Switches))
	}
	if counted == 0 {
		t.Fatal("no untouched rule had counted traffic; the test observed nothing")
	}
	checkTCAMs(t, net, "after flow b")
}

// TestSyncErrorKeepsOldTable: a switch whose FIB cannot be translated keeps
// the table it had, stays marked for rebuild, and catches up on the first
// Sync that can translate it.
func TestSyncErrorKeepsOldTable(t *testing.T) {
	net, _ := newNet(t, packet.Prefix{})
	_ = net.Ctrl.RegisterSubscriber("a", policy.Attributes{Provider: "A", Plan: "silver"})
	ue, err := net.Attach("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := net.SendUpstream(0, webPacket(ue, 40000)); err != nil || res.Disposition != ExitedNet {
		t.Fatalf("web flow: %v %v", res.Disposition, err)
	}
	before := make([][]switchsim.Rule, len(net.Switches))
	for i, sw := range net.Switches {
		before[i] = sw.Rules()
	}

	// A second path gets a second tag; a data plane whose port layout has
	// room for one tag only cannot express its rules.
	video, _ := net.Ctrl.Policy.Match(ue.Attr, policy.AppVideo)
	if _, err := net.Ctrl.RequestPath(0, video); err != nil {
		t.Fatal(err)
	}
	plan := net.plan
	net.plan.TagBits = 1
	if err := net.Sync(); err == nil {
		t.Fatal("Sync translated a tag the plan has no room for")
	}
	net.plan = plan
	stale := 0
	for i, sw := range net.Switches {
		if net.synced[i] == net.Ctrl.Installer.FIB(topo.NodeID(i)).Version() {
			continue
		}
		stale++
		if !reflect.DeepEqual(sw.Rules(), before[i]) {
			t.Fatalf("switch %d is marked unsynced but its table changed", i)
		}
	}
	if stale == 0 {
		t.Fatal("the failed Sync left no switch to catch up")
	}
	if err := net.Sync(); err != nil {
		t.Fatal(err)
	}
	checkTCAMs(t, net, "after the plan was restored")
}

// TestBurstSenderErrors covers the injection API's refusals.
func TestBurstSenderErrors(t *testing.T) {
	net := newPlainNet(t)
	if _, err := net.NewBurstSender(); err == nil {
		t.Fatal("a sender without a fast path")
	}
	if net.EnableFastPath(1) != net.FastEngine() {
		t.Fatal("FastEngine is not the enabled engine")
	}
	defer net.DisableFastPath()
	s, err := net.NewBurstSender()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send(99, nil, nil); err == nil {
		t.Fatal("a burst at an unknown station")
	}
	if out, err := s.Send(0, nil, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty burst: %v %v", out, err)
	}
}

// TestBurstsForwardWhileOthersHandOff runs the data plane and the control
// plane side by side: one goroutine forwards an established middlebox-free
// flow in bursts while the test goroutine hands other UEs back and forth,
// releasing each handoff, with a Sync after every step. The shortcuts land
// on the gateway and the core switch the bursts cross, so a rebuild that
// exposed an empty or partial table would drop a packet or punt it to the
// (single-threaded) slow path.
func TestBurstsForwardWhileOthersHandOff(t *testing.T) {
	net := newPlainNetN(t, 4)
	for _, imsi := range []string{"fwd", "m0", "m1"} {
		_ = net.Ctrl.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"})
	}
	fwd, err := net.Attach("fwd", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := net.SendUpstream(0, webPacket(fwd, 40000)); err != nil || res.Disposition != ExitedNet {
		t.Fatalf("prime forwarder: %v %v", res.Disposition, err)
	}
	movers := []string{"m0", "m1"}
	at := map[string]packet.BSID{}
	for i, imsi := range movers {
		bs := packet.BSID(1 + i)
		ue, err := net.Attach(imsi, bs)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := net.SendUpstream(bs, webPacket(ue, 40000)); err != nil || res.Disposition != ExitedNet {
			t.Fatalf("prime %s: %v %v", imsi, res.Disposition, err)
		}
		at[imsi] = bs
	}
	// A handoff installs shortcuts for the paths cached at the station it
	// leaves, so every station the movers visit gets its path up front.
	for bs := packet.BSID(1); bs <= 3; bs++ {
		if _, err := net.Ctrl.RequestPath(bs, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Sync(); err != nil {
		t.Fatal(err)
	}
	net.EnableFastPath(1)
	defer net.DisableFastPath()
	sender, err := net.NewBurstSender()
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var bursts atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const burst = 16
		pkts := make([]*packet.Packet, burst)
		for i := range pkts {
			pkts[i] = new(packet.Packet)
		}
		var out []BurstOutcome
		for !stop.Load() {
			for _, p := range pkts {
				*p = *webPacket(fwd, 40000)
			}
			var err error
			if out, err = sender.Send(0, pkts, out); err != nil {
				t.Errorf("burst: %v", err)
				return
			}
			for i, o := range out {
				if o.Disposition != ExitedNet || o.Slow {
					t.Errorf("burst %d packet %d: %s at %d, slow=%v", bursts.Load(), i, o.Disposition, o.Last, o.Slow)
					return
				}
			}
			bursts.Add(1)
		}
	}()

	for round := 0; (round < 150 || bursts.Load() < 300) && !t.Failed(); round++ {
		imsi := movers[round%len(movers)]
		to := 1 + at[imsi]%3             // cycle through stations 1..3, never the forwarder's
		hr, err := net.Handoff(imsi, to) // syncs
		if err != nil {
			t.Fatalf("round %d handoff %s -> %d: %v", round, imsi, to, err)
		}
		at[imsi] = to
		if len(hr.Shortcuts) == 0 {
			t.Fatalf("round %d: handoff installed no shortcut, nothing was rebuilt", round)
		}
		net.Ctrl.ReleaseOldLocIP(hr.OldLocIP, hr.Shortcuts)
		if err := net.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	checkTCAMs(t, net, "after the handoff loop")
}

// syncBenchNet is the 193-switch generated plant with every (station,
// clause) path installed and the fast path on — the warmed state the
// network workloads of bench/ run their control ops against, on a larger
// topology.
func syncBenchNet(b *testing.B) *Network {
	net := genNet(b)
	for bs := range net.T.Stations {
		for clause := 0; clause < net.Ctrl.Policy.Len(); clause++ {
			if cl, _ := net.Ctrl.Policy.Clause(clause); !cl.Action.Allow {
				continue
			}
			if _, err := net.Ctrl.RequestPath(packet.BSID(bs), clause); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := net.Sync(); err != nil {
		b.Fatal(err)
	}
	net.EnableFastPath(1)
	b.Cleanup(net.DisableFastPath)
	return net
}

// BenchmarkSyncNoChange is the Sync a punt pays on a warmed plant: every
// FIB version already materialised.
func BenchmarkSyncNoChange(b *testing.B) {
	net := syncBenchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncAfterHandoff times the Sync that follows a controller
// handoff (shortcuts for every path cached at the old station); the handoff
// itself, the release and the release's Sync run off the clock.
func BenchmarkSyncAfterHandoff(b *testing.B) {
	net := syncBenchNet(b)
	_ = net.Ctrl.RegisterSubscriber("m", policy.Attributes{Provider: "A"})
	if _, err := net.Attach("m", 0); err != nil {
		b.Fatal(err)
	}
	far := packet.BSID(len(net.T.Stations) / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		to := far
		if i%2 == 1 {
			to = 0
		}
		hr, err := net.Ctrl.Handoff("m", to)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := net.Sync(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		net.Ctrl.ReleaseOldLocIP(hr.OldLocIP, hr.Shortcuts)
		if err := net.Sync(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
