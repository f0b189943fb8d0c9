package agent

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/switchsim"
)

// fakeController counts path requests and can inject failures.
type fakeController struct {
	nextTag  packet.Tag
	requests int
	fail     bool
	tags     map[int]packet.Tag
}

func newFakeController() *fakeController {
	return &fakeController{tags: make(map[int]packet.Tag)}
}

func (f *fakeController) RequestPath(bs packet.BSID, clause int) (packet.Tag, error) {
	f.requests++
	if f.fail {
		return 0, errors.New("controller unavailable")
	}
	if t, ok := f.tags[clause]; ok {
		return t, nil
	}
	f.nextTag++
	f.tags[clause] = f.nextTag
	return f.nextTag, nil
}

var plan = packet.DefaultPlan

func testUE(t *testing.T, bs packet.BSID, id packet.UEID) core.UE {
	t.Helper()
	loc, err := plan.LocIP(bs, id)
	if err != nil {
		t.Fatal(err)
	}
	return core.UE{
		IMSI:   fmt.Sprintf("imsi-%d-%d", bs, id),
		PermIP: packet.AddrFrom4(100, 64, 0, byte(id)),
		BS:     bs, UEID: id, LocIP: loc,
	}
}

func newAgent(t *testing.T, ctrl ControllerClient) *Agent {
	t.Helper()
	sw := switchsim.NewSwitch("as-test")
	return New(1, sw, plan, ctrl)
}

func webClassifiers(tag packet.Tag) []core.Classifier {
	return []core.Classifier{
		{App: policy.AppWeb, Clause: 5, Tag: tag, Allow: true},
		{App: policy.AppSSH, Clause: 1, Allow: false},
	}
}

func upPkt(ue core.UE, sport uint16) *packet.Packet {
	return &packet.Packet{Src: ue.PermIP, Dst: packet.AddrFrom4(1, 1, 1, 1),
		SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP}
}

func TestPacketInInstallsMicroflows(t *testing.T) {
	ctrl := newFakeController()
	ag := newAgent(t, ctrl)
	ue := testUE(t, 1, 3)
	if err := ag.AdmitUE(ue, webClassifiers(7)); err != nil {
		t.Fatal(err)
	}
	p := upPkt(ue, 40000)
	allowed, err := ag.HandlePacketIn(p)
	if err != nil {
		t.Fatal(err)
	}
	if !allowed {
		t.Fatal("web flow should be allowed")
	}
	if ctrl.requests != 0 {
		t.Fatalf("cache hit should not contact the controller (%d requests)", ctrl.requests)
	}
	if ag.Access.NumMicroflows() != 2 {
		t.Fatalf("microflows = %d, want 2", ag.Access.NumMicroflows())
	}
	// Replay the packet through the switch: rewritten and resubmitted.
	q := upPkt(ue, 40000)
	v := ag.Access.Process(q, switchsim.PortUE)
	if q.Src != ue.LocIP {
		t.Fatalf("src = %s, want LocIP", q.Src)
	}
	tag, _ := plan.SplitPort(q.SrcPort)
	if tag != 7 {
		t.Fatalf("embedded tag = %d, want 7", tag)
	}
	_ = v
	st := ag.Stats()
	if st.PacketIns != 1 || st.CacheHits != 1 || st.Microflows != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPacketInAsksControllerOnce(t *testing.T) {
	ctrl := newFakeController()
	ag := newAgent(t, ctrl)
	ue := testUE(t, 1, 3)
	_ = ag.AdmitUE(ue, webClassifiers(0)) // no tag: path missing
	if _, err := ag.HandlePacketIn(upPkt(ue, 40000)); err != nil {
		t.Fatal(err)
	}
	if ctrl.requests != 1 {
		t.Fatalf("requests = %d, want 1", ctrl.requests)
	}
	// Second flow of the same app: the agent cached the tag.
	if _, err := ag.HandlePacketIn(upPkt(ue, 40001)); err != nil {
		t.Fatal(err)
	}
	if ctrl.requests != 1 {
		t.Fatalf("requests = %d after second flow, want 1", ctrl.requests)
	}
	st := ag.Stats()
	if st.CacheMiss != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPacketInDenies(t *testing.T) {
	ctrl := newFakeController()
	ag := newAgent(t, ctrl)
	ue := testUE(t, 1, 3)
	_ = ag.AdmitUE(ue, webClassifiers(7))
	ssh := &packet.Packet{Src: ue.PermIP, Dst: packet.AddrFrom4(1, 1, 1, 1),
		SrcPort: 40000, DstPort: 22, Proto: packet.ProtoTCP}
	allowed, err := ag.HandlePacketIn(ssh)
	if err != nil {
		t.Fatal(err)
	}
	if allowed {
		t.Fatal("ssh should be denied")
	}
	// The drop is installed as a microflow so later packets never punt.
	v := ag.Access.Process(ssh, switchsim.PortUE)
	if !v.Drop {
		t.Fatal("drop microflow missing")
	}
	if ag.Stats().Denied != 1 {
		t.Fatal("denial not counted")
	}
}

func TestPacketInUnknownUE(t *testing.T) {
	ag := newAgent(t, newFakeController())
	p := &packet.Packet{Src: packet.AddrFrom4(9, 9, 9, 9), DstPort: 80, Proto: packet.ProtoTCP}
	if _, err := ag.HandlePacketIn(p); err == nil {
		t.Fatal("unknown UE should error")
	}
}

func TestControllerFailurePropagates(t *testing.T) {
	ctrl := newFakeController()
	ctrl.fail = true
	ag := newAgent(t, ctrl)
	ue := testUE(t, 1, 3)
	_ = ag.AdmitUE(ue, webClassifiers(0))
	if _, err := ag.HandlePacketIn(upPkt(ue, 40000)); err == nil {
		t.Fatal("controller failure should propagate")
	}
}

func TestAdmitWrongStation(t *testing.T) {
	ag := newAgent(t, newFakeController())
	ue := testUE(t, 2, 3) // attached to bs2, agent serves bs1
	if err := ag.AdmitUE(ue, nil); err == nil {
		t.Fatal("wrong station should be rejected")
	}
}

// TestAdmitRefusesAddressClash: the snapshot keys permanent addresses and
// LocIPs in one index, so a UE whose LocIP is another UE's permanent
// address, or whose permanent address is another UE's LocIP, is refused
// and the other UE keeps its record.
func TestAdmitRefusesAddressClash(t *testing.T) {
	ag := newAgent(t, newFakeController())
	a := testUE(t, 1, 1)
	if err := ag.AdmitUE(a, nil); err != nil {
		t.Fatal(err)
	}
	perm, loc := testUE(t, 1, 2), testUE(t, 1, 2)
	perm.PermIP, loc.LocIP = a.LocIP, a.PermIP
	for _, ue := range []core.UE{perm, loc} {
		if err := ag.AdmitUE(ue, nil); err == nil {
			t.Fatalf("UE with permanent address %s and LocIP %s admitted beside %+v", ue.PermIP, ue.LocIP, a)
		}
	}
	if got, ok := ag.lkg().UE(a.PermIP); !ok || got != a || ag.NumUEs() != 1 {
		t.Fatalf("after the refusals the snapshot holds %d UEs, %+v (%v) for %s", ag.NumUEs(), got, ok, a.PermIP)
	}
}

// TestMigrateRefusesAClashBeforeMoving: a migration whose old LocIP is a
// permanent address at the new station is refused before the old station
// lets go of the UE or its flows.
func TestMigrateRefusesAClashBeforeMoving(t *testing.T) {
	home := New(1, switchsim.NewSwitch("as-home"), plan, newFakeController())
	away := New(2, switchsim.NewSwitch("as-away"), plan, newFakeController())
	ue, moved, squatter := testUE(t, 1, 1), testUE(t, 2, 1), testUE(t, 2, 2)
	squatter.PermIP = ue.LocIP
	if err := home.AdmitUE(ue, webClassifiers(7)); err != nil {
		t.Fatal(err)
	}
	if ok, err := home.HandlePacketIn(upPkt(ue, 42000)); !ok || err != nil {
		t.Fatalf("first flow: allowed=%v err=%v", ok, err)
	}
	for _, u := range []core.UE{moved, squatter} {
		if err := away.AdmitUE(u, webClassifiers(7)); err != nil {
			t.Fatal(err)
		}
	}
	flows := home.Access.NumMicroflows()
	if err := home.MigrateFlows(away, moved, ue.LocIP); err == nil {
		t.Fatal("a migration whose old LocIP is a permanent address at the new station went through")
	}
	if _, ok := home.lkg().UE(ue.PermIP); !ok || home.Access.NumMicroflows() != flows || away.Access.NumMicroflows() != 0 {
		t.Fatalf("after the refusal: UE held at home %v, %d of %d microflows at home, %d away", ok, home.Access.NumMicroflows(), flows, away.Access.NumMicroflows())
	}
}

func TestUpdateClassifiers(t *testing.T) {
	ag := newAgent(t, newFakeController())
	ue := testUE(t, 1, 3)
	_ = ag.AdmitUE(ue, webClassifiers(0))
	if err := ag.UpdateClassifiers(ue.PermIP, webClassifiers(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := ag.HandlePacketIn(upPkt(ue, 40000)); err != nil {
		t.Fatal(err)
	}
	if ag.Stats().CacheMiss != 0 {
		t.Fatal("updated classifier should hit")
	}
	if err := ag.UpdateClassifiers(packet.AddrFrom4(9, 9, 9, 9), nil); err == nil {
		t.Fatal("unknown permanent IP should fail")
	}
}

func TestLocationReport(t *testing.T) {
	ag := newAgent(t, newFakeController())
	for i := packet.UEID(1); i <= 3; i++ {
		if err := ag.AdmitUE(testUE(t, 1, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	rep := ag.LocationReport()
	if rep.BS != 1 || len(rep.UEs) != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if ag.NumUEs() != 3 {
		t.Fatalf("NumUEs = %d", ag.NumUEs())
	}
}

// TestRestartedAgentReconcilesTheSwitch models an agent restart as a fresh
// agent over the same access switch, with the LKG snapshot re-published
// (§5.2: the switch did not fail). The restarted agent reads the flows it
// did not install from the switch, and when a later view drops UE a, the
// reconcile tears a's microflows down, so a's next packet is punted
// rather than forwarded under a LocIP the station may give another UE.
func TestRestartedAgentReconcilesTheSwitch(t *testing.T) {
	ag := newAgent(t, newFakeController())
	a, b := testUE(t, 1, 1), testUE(t, 1, 2)
	for _, ue := range []core.UE{a, b} {
		if err := ag.AdmitUE(ue, webClassifiers(7)); err != nil {
			t.Fatal(err)
		}
		if ok, err := ag.HandlePacketIn(upPkt(ue, 40000)); !ok || err != nil {
			t.Fatalf("flow of %s: allowed=%v err=%v", ue.IMSI, ok, err)
		}
	}
	sent := upPkt(a, 40000)
	ag.Access.Process(sent, switchsim.PortUE)
	aUp, aDown := upPkt(a, 40000).Flow(), sent.Flow().Reverse()

	re := New(ag.BS, ag.Access, plan, newFakeController())
	rep, err := re.Publish(ag.lkg())
	if err != nil {
		t.Fatal(err)
	}
	if rep != (ReconcileReport{Kept: 2}) || re.Version() != ag.Version() || re.NumUEs() != 2 {
		t.Fatalf("re-published LKG: report %+v, version %d (want %d), %d UEs", rep, re.Version(), ag.Version(), re.NumUEs())
	}
	if got := re.activeFlows(a.PermIP); !slices.Equal(got, []packet.FlowKey{aUp}) {
		t.Fatalf("restarted agent reads a's flows as %v, want [%s]", got, aUp)
	}

	rep, err = re.Publish(NewSnapshot(re.Version()+1, view([]core.UE{b}, core.TagGrant{Clause: 5, Tag: 7})))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornDown < 1 || rep.UEsDropped != 1 || rep.Kept != 1 {
		t.Fatalf("view without a: report %+v, want a torn down and dropped, b kept", rep)
	}
	for _, k := range []packet.FlowKey{aUp, aDown} {
		if _, ok := re.Access.Microflow(k); ok {
			t.Fatalf("a's microflow %s survived a's removal", k)
		}
	}
	if v := re.Access.Process(upPkt(a, 40000), switchsim.PortUE); !v.ToController {
		t.Fatalf("a's next packet: %+v, want punted", v)
	}
	if ok, err := re.HandlePacketIn(upPkt(b, 40001)); !ok || err != nil {
		t.Fatalf("b's new flow after the restart: allowed=%v err=%v", ok, err)
	}
}

func TestActiveFlows(t *testing.T) {
	ag := newAgent(t, newFakeController())
	ue := testUE(t, 1, 1)
	_ = ag.AdmitUE(ue, webClassifiers(7))
	for i := uint16(0); i < 4; i++ {
		if _, err := ag.HandlePacketIn(upPkt(ue, 41000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ag.activeFlows(ue.PermIP)); got != 4 {
		t.Fatalf("active flows = %d", got)
	}
	if ag.activeFlows(packet.AddrFrom4(9, 9, 9, 9)) != nil {
		t.Fatal("unknown UE should report no flows")
	}
}

func TestEphemeralPortsDistinctPerFlow(t *testing.T) {
	ag := newAgent(t, newFakeController())
	ue := testUE(t, 1, 1)
	_ = ag.AdmitUE(ue, webClassifiers(7))
	seen := map[uint16]bool{}
	for i := uint16(0); i < 16; i++ {
		p := upPkt(ue, 42000+i)
		if _, err := ag.HandlePacketIn(p); err != nil {
			t.Fatal(err)
		}
		q := upPkt(ue, 42000+i)
		ag.Access.Process(q, switchsim.PortUE)
		_, eph := plan.SplitPort(q.SrcPort)
		if seen[eph] {
			t.Fatalf("ephemeral %d reused too early", eph)
		}
		seen[eph] = true
	}
}

func TestTagTooWideRejected(t *testing.T) {
	ag := newAgent(t, newFakeController())
	ue := testUE(t, 1, 1)
	_ = ag.AdmitUE(ue, []core.Classifier{{App: policy.AppWeb, Clause: 0,
		Tag: plan.MaxTag() + 1, Allow: true}})
	if _, err := ag.HandlePacketIn(upPkt(ue, 40000)); err == nil {
		t.Fatal("oversized tag should be rejected")
	}
}

// TestEphemeralValuesRunOut fills every ephemeral value a 12-bit tag plan
// leaves (4 bits: 15) with live flows from one UE to one server. The next
// flow there is refused with ErrPortsExhausted, counted, and installs
// nothing; one to another server is admitted. An agent restarted over the
// same switch finds the values still held by the entries there, so the
// same flow is refused again.
func TestEphemeralValuesRunOut(t *testing.T) {
	wide := plan
	wide.TagBits = 12
	ag := New(1, switchsim.NewSwitch("as-test"), wide, newFakeController())
	ue := testUE(t, 1, 1)
	if err := ag.AdmitUE(ue, webClassifiers(7)); err != nil {
		t.Fatal(err)
	}
	values := 1<<wide.EphemeralBits() - 1
	for i := 0; i < values; i++ {
		if ok, err := ag.HandlePacketIn(upPkt(ue, uint16(42000+i))); !ok || err != nil {
			t.Fatalf("flow %d: allowed=%v err=%v", i, ok, err)
		}
	}
	before := ag.Access.NumMicroflows()
	extra := upPkt(ue, uint16(42000+values))
	if ok, err := ag.HandlePacketIn(extra); ok || !errors.Is(err, ErrPortsExhausted) {
		t.Fatalf("flow %d of %d values: allowed=%v err=%v, want ErrPortsExhausted", values+1, values, ok, err)
	}
	if n := ag.Stats().PortsExhausted; n != 1 || ag.Access.NumMicroflows() != before {
		t.Fatalf("%d refusals counted and %d microflows installed, want 1 and none", n, ag.Access.NumMicroflows()-before)
	}
	other := upPkt(ue, uint16(42000+values))
	other.Dst = packet.AddrFrom4(1, 1, 1, 2)
	if ok, err := ag.HandlePacketIn(other); !ok || err != nil {
		t.Fatalf("a flow to another server: allowed=%v err=%v", ok, err)
	}
	re := New(1, ag.Access, wide, newFakeController())
	if _, err := re.Publish(ag.lkg()); err != nil {
		t.Fatal(err)
	}
	if ok, err := re.HandlePacketIn(upPkt(ue, uint16(42000+values))); ok || !errors.Is(err, ErrPortsExhausted) {
		t.Fatalf("after a restart: allowed=%v err=%v, want ErrPortsExhausted", ok, err)
	}

	// A flow punted again when no value is left keeps its microflows. It came in by a handoff, so its wire tuple
	// carries the old station's address and frees no value here.
	home := New(2, switchsim.NewSwitch("as-home"), wide, newFakeController())
	away, moved := testUE(t, 2, 2), testUE(t, 1, 2)
	if err := home.AdmitUE(away, webClassifiers(7)); err != nil {
		t.Fatal(err)
	}
	if ok, err := home.HandlePacketIn(upPkt(away, 41999)); !ok || err != nil {
		t.Fatalf("the handed-over flow: allowed=%v err=%v", ok, err)
	}
	if err := ag.AdmitUE(moved, webClassifiers(7)); err != nil {
		t.Fatal(err)
	}
	if err := home.MigrateFlows(ag, moved, away.LocIP); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < values; i++ {
		if ok, err := ag.HandlePacketIn(upPkt(moved, uint16(43000+i))); !ok || err != nil {
			t.Fatalf("flow %d after the handoff: allowed=%v err=%v", i, ok, err)
		}
	}
	before = ag.Access.NumMicroflows()
	booked := upPkt(moved, 41999)
	if ok, err := ag.HandlePacketIn(booked); ok || !errors.Is(err, ErrPortsExhausted) {
		t.Fatalf("a booked flow punted again with every value held: allowed=%v err=%v, want ErrPortsExhausted", ok, err)
	}
	if !slices.Contains(ag.activeFlows(moved.PermIP), booked.Flow()) || ag.Access.NumMicroflows() != before {
		t.Fatalf("the refused flow is gone (%d flows listed) or changed the switch (%d microflows, %d before)",
			len(ag.activeFlows(moved.PermIP)), ag.Access.NumMicroflows(), before)
	}
}

// TestInheritedFlowsHoldTheirValues hands a UE away and back to the same
// station under the same LocIP. The flow it opened there before comes back
// with the ephemeral value it was given, and a new flow to
// the same server must not pick that value again.
func TestInheritedFlowsHoldTheirValues(t *testing.T) {
	home := New(1, switchsim.NewSwitch("as-home"), plan, newFakeController())
	away := New(2, switchsim.NewSwitch("as-away"), plan, newFakeController())
	ue, moved := testUE(t, 1, 1), testUE(t, 2, 1)
	if err := home.AdmitUE(ue, webClassifiers(7)); err != nil {
		t.Fatal(err)
	}
	if ok, err := home.HandlePacketIn(upPkt(ue, 42000)); !ok || err != nil {
		t.Fatalf("first flow: allowed=%v err=%v", ok, err)
	}
	if err := away.AdmitUE(moved, webClassifiers(7)); err != nil {
		t.Fatal(err)
	}
	if err := home.MigrateFlows(away, moved, ue.LocIP); err != nil {
		t.Fatal(err)
	}
	if err := home.AdmitUE(ue, webClassifiers(7)); err != nil {
		t.Fatal(err)
	}
	if err := away.MigrateFlows(home, ue, moved.LocIP); err != nil {
		t.Fatal(err)
	}
	if ok, err := home.HandlePacketIn(upPkt(ue, 42001)); !ok || err != nil {
		t.Fatalf("second flow: allowed=%v err=%v", ok, err)
	}
	first, second := upPkt(ue, 42000), upPkt(ue, 42001)
	home.Access.Process(first, switchsim.PortUE)
	home.Access.Process(second, switchsim.PortUE)
	if first.Flow() == second.Flow() {
		t.Fatalf("the inherited flow and the new one both go on the wire as %s", first.Flow())
	}
}

// resolver is a fakeController that also resolves permanent addresses (a
// LocResolver), refusing while failing is set.
type resolver struct {
	*fakeController
	loc     packet.Addr
	failing bool
	asked   int
}

var errUnresolved = errors.New("controller unavailable")

func (r *resolver) ResolveLocIP(packet.Addr) (packet.Addr, error) {
	r.asked++
	if r.failing {
		return 0, errUnresolved
	}
	return r.loc, nil
}

// m2mAgent builds an agent with one web UE, a resolver for peers in the
// 100.64.0.0/16 permanent pool, and the packet it sends to dst.
func m2mAgent(t *testing.T, dst packet.Addr) (*Agent, *resolver, *packet.Packet) {
	t.Helper()
	peerLoc, err := plan.LocIP(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	res := &resolver{fakeController: newFakeController(), loc: peerLoc}
	ag := New(1, switchsim.NewSwitch("as-test"), plan, res)
	ag.PermPool = packet.NewPrefix(packet.AddrFrom4(100, 64, 0, 0), 16)
	ue := testUE(t, 1, 1)
	if err := ag.AdmitUE(ue, webClassifiers(7)); err != nil {
		t.Fatal(err)
	}
	p := upPkt(ue, 40000)
	p.Dst = dst
	return ag, res, p
}

// TestFailedResolutionInstallsNothing: a mobile-to-mobile flow whose peer
// the controller cannot resolve is refused with the resolver's error, like
// a refused path request. It pins no drop microflow and counts no denial,
// so once the controller answers, the flow's next packet is punted again
// and admitted.
func TestFailedResolutionInstallsNothing(t *testing.T) {
	ag, res, p := m2mAgent(t, packet.AddrFrom4(100, 64, 0, 200))
	res.failing = true
	q := *p
	if ok, err := ag.HandlePacketIn(&q); ok || !errors.Is(err, errUnresolved) {
		t.Fatalf("unresolvable peer: allowed=%v err=%v, want the resolver's error", ok, err)
	}
	if st := ag.Stats(); st.Denied != 0 || st.CacheMiss != 1 || ag.Access.NumMicroflows() != 0 {
		t.Fatalf("after the failed resolution: %d denied, %d misses, %d microflows; want 0, 1, 0",
			st.Denied, st.CacheMiss, ag.Access.NumMicroflows())
	}
	res.failing = false
	q = *p
	if v := ag.Access.Process(&q, switchsim.PortUE); !v.ToController {
		t.Fatalf("the flow's next packet: %+v, want punted", v)
	}
	q = *p
	if ok, err := ag.HandlePacketIn(&q); !ok || err != nil {
		t.Fatalf("after the controller recovers: allowed=%v err=%v", ok, err)
	}
	q = *p
	if v := ag.Access.Process(&q, switchsim.PortUE); v.Drop || q.Dst != res.loc {
		t.Fatalf("the admitted flow: %+v to %s, want forwarded to %s", v, q.Dst, res.loc)
	}
}

// TestLocIPAddressedM2MIsACacheHit: a flow already addressed to a LocIP is
// routed by location with no controller round trip, so it counts as a hit;
// only a permanent address the controller resolves counts as a miss.
func TestLocIPAddressedM2MIsACacheHit(t *testing.T) {
	peerLoc, _ := plan.LocIP(2, 9)
	ag, res, p := m2mAgent(t, peerLoc)
	if ok, err := ag.HandlePacketIn(p); !ok || err != nil {
		t.Fatalf("LocIP-addressed flow: allowed=%v err=%v", ok, err)
	}
	if st := ag.Stats(); st.CacheHits != 1 || st.CacheMiss != 0 || res.asked != 0 {
		t.Fatalf("LocIP-addressed flow: %d hits, %d misses, %d resolutions; want 1, 0, 0", st.CacheHits, st.CacheMiss, res.asked)
	}
	q := upPkt(testUE(t, 1, 1), 40001)
	q.Dst = packet.AddrFrom4(100, 64, 0, 200)
	if ok, err := ag.HandlePacketIn(q); !ok || err != nil {
		t.Fatalf("permanent-addressed flow: allowed=%v err=%v", ok, err)
	}
	if st := ag.Stats(); st.CacheHits != 1 || st.CacheMiss != 1 || res.asked != 1 {
		t.Fatalf("then a permanent-addressed flow: %d hits, %d misses, %d resolutions; want 1, 1, 1", st.CacheHits, st.CacheMiss, res.asked)
	}
}

// TestFlowIsRecordedOnce measures the live heap, after two GCs, that one
// agent and its access switch keep per UE for one web flow each: the two
// microflow entries with their cookies and the owner index, and nothing in
// the agent. The UEs are in the snapshot before the count starts. It reads
// 192 B per UE with the entries in the switch's copy-on-write index at
// load ¾; 230 B in a Go map, 358 B while each entry was a 128 B TCAM rule,
// and 1 037 B while the agent kept a flow book beside the entries.
func TestFlowIsRecordedOnce(t *testing.T) {
	const n = 4000
	ag := newAgent(t, newFakeController())
	var v core.AgentView
	ues := make([]core.UE, n)
	for i := range ues {
		loc, err := plan.LocIP(1, packet.UEID(i+1))
		if err != nil {
			t.Fatal(err)
		}
		ues[i] = core.UE{IMSI: fmt.Sprintf("imsi-%d", i), PermIP: packet.AddrFrom4(100, 64, 0, 0) + packet.Addr(i+1),
			BS: 1, UEID: packet.UEID(i + 1), LocIP: loc}
	}
	v = view(ues, core.TagGrant{Clause: 5, Tag: 7})
	if _, err := ag.Publish(NewSnapshot(1, v)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, ue := range ues {
		if ok, err := ag.HandlePacketIn(upPkt(ue, 40000)); !ok || err != nil {
			t.Fatalf("flow of %s: allowed=%v err=%v", ue.IMSI, ok, err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ag)
	if got := ag.Access.NumMicroflows(); got != 2*n {
		t.Fatalf("%d microflows for %d flows", got, n)
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("retained per UE with one web flow: %.1f B (agent and access switch)", per)
	if per > 218 {
		t.Fatalf("agent and switch retain %.1f B per UE for one flow, want at most 218", per)
	}
}

// TestMigratedFlowsKeepTheirRewrites hands a UE with a video flow (DSCP
// marked) and a mobile-to-mobile flow to a permanent address over to
// another station. At the new station both upstream entries tunnel to the
// origin station with every rewrite they had there: the old LocIP and
// tagged port, the QoS mark, and the peer's LocIP in place of its
// permanent address.
func TestMigratedFlowsKeepTheirRewrites(t *testing.T) {
	peer := packet.AddrFrom4(100, 64, 0, 200)
	home, res, m2m := m2mAgent(t, peer)
	ue, moved := testUE(t, 1, 1), testUE(t, 2, 1)
	video := []core.Classifier{{App: policy.AppWeb, Clause: 5, Tag: 7, Allow: true, QoS: policy.QoSVideo}}
	if err := home.AdmitUE(ue, video); err != nil {
		t.Fatal(err)
	}
	web := upPkt(ue, 40001)
	for _, p := range []*packet.Packet{m2m, web} {
		q := *p
		if ok, err := home.HandlePacketIn(&q); !ok || err != nil {
			t.Fatalf("flow to %s: allowed=%v err=%v", p.Dst, ok, err)
		}
	}
	away := New(2, switchsim.NewSwitch("as-away"), plan, newFakeController())
	if err := away.AdmitUE(moved, video); err != nil {
		t.Fatal(err)
	}
	if err := home.MigrateFlows(away, moved, ue.LocIP); err != nil {
		t.Fatal(err)
	}
	tunnel := switchsim.PortTunnelBase + 1
	q := *web
	if v := away.Access.Process(&q, switchsim.PortUE); v.Output != tunnel || q.Src != ue.LocIP || q.DSCP != dscpFor(policy.QoSVideo) {
		t.Fatalf("migrated video flow: out %d from %s with DSCP %d, want out %d from %s with DSCP %d",
			v.Output, q.Src, q.DSCP, tunnel, ue.LocIP, dscpFor(policy.QoSVideo))
	}
	q = *m2m
	if v := away.Access.Process(&q, switchsim.PortUE); v.Output != tunnel || q.Src != ue.LocIP || q.Dst != res.loc {
		t.Fatalf("migrated M2M flow: out %d %s -> %s, want out %d %s -> %s", v.Output, q.Src, q.Dst, tunnel, ue.LocIP, res.loc)
	}
}

// TestPublishLiftsADenial: SSH is denied and its drop entry installed,
// owned by the UE and no flow of its. A published view that allows SSH
// lifts the entry, so the flow's next packet is punted and admitted.
func TestPublishLiftsADenial(t *testing.T) {
	ag := newAgent(t, newFakeController())
	ue := testUE(t, 1, 3)
	if err := ag.AdmitUE(ue, webClassifiers(7)); err != nil {
		t.Fatal(err)
	}
	ssh := upPkt(ue, 40000)
	ssh.DstPort = 22
	if ok, err := ag.HandlePacketIn(ssh); ok || err != nil {
		t.Fatalf("ssh: allowed=%v err=%v, want denied", ok, err)
	}
	if n := len(ag.activeFlows(ue.PermIP)); n != 0 {
		t.Fatalf("the denial counts as %d active flows", n)
	}
	allowSSH := core.AgentView{BS: 1, Tags: []core.TagGrant{{Clause: 5, Tag: 7}},
		UEs: []core.AgentViewUE{{UE: ue, Classifiers: []core.Classifier{
			{App: policy.AppWeb, Clause: 5, Allow: true},
			{App: policy.AppSSH, Clause: 5, Allow: true},
		}}}}
	rep, err := ag.Publish(NewSnapshot(ag.Version()+1, allowSSH))
	if err != nil {
		t.Fatal(err)
	}
	if rep != (ReconcileReport{}) {
		t.Fatalf("reconcile report %+v, want nothing counted for a lifted denial", rep)
	}
	q := *ssh
	if v := ag.Access.Process(&q, switchsim.PortUE); !v.ToController {
		t.Fatalf("ssh's next packet after the view allowing it: %+v, want punted", v)
	}
	if ok, err := ag.HandlePacketIn(ssh); !ok || err != nil {
		t.Fatalf("ssh after the view allowing it: allowed=%v err=%v", ok, err)
	}
}

// TestLocIPAddressedM2MNeedsNoResolver: an agent with no controller client
// (pushed-snapshot mode) routes a flow addressed to a LocIP by location;
// only a permanent address needs a resolver.
func TestLocIPAddressedM2MNeedsNoResolver(t *testing.T) {
	ag := newAgent(t, nil)
	ue := testUE(t, 1, 1)
	if err := ag.AdmitUE(ue, webClassifiers(7)); err != nil {
		t.Fatal(err)
	}
	p := upPkt(ue, 40000)
	p.Dst, _ = plan.LocIP(2, 9)
	if ok, err := ag.HandlePacketIn(p); !ok || err != nil {
		t.Fatalf("LocIP-addressed flow with no client: allowed=%v err=%v", ok, err)
	}
	if st := ag.Stats(); st.Denied != 0 || st.CacheHits != 1 {
		t.Fatalf("%d denied, %d hits; want 0 and 1", st.Denied, st.CacheHits)
	}
}

// activeFlows lists a UE's live upstream flow keys (original form), read
// from the access switch's entries its cookie owns, denials aside.
func (a *Agent) activeFlows(permIP packet.Addr) []packet.FlowKey {
	var out []packet.FlowKey
	for _, m := range a.Access.Owned(nil, permIP) {
		if upstream(m) && !isDenial(m) {
			out = append(out, m.Key)
		}
	}
	return out
}
