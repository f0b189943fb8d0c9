package agent

import (
	"errors"
	"fmt"
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

func TestRestartKeepsLKGAndCounters(t *testing.T) {
	ag := newAgent(t, newFakeController())
	ue := testUE(t, 1, 1)
	_ = ag.AdmitUE(ue, webClassifiers(7))
	if _, err := ag.HandlePacketIn(upPkt(ue, 40000)); err != nil {
		t.Fatal(err)
	}
	before := ag.Stats()
	ver := ag.Version()
	ag.Restart()
	// The validated, versioned LKG snapshot survives a process restart
	// (like persisted config would), so the agent keeps classifying and
	// keeps its version floor; the counters stay coherent with it.
	if ag.NumUEs() != 1 {
		t.Fatalf("NumUEs = %d after restart, want 1 (LKG snapshot survives)", ag.NumUEs())
	}
	if got := ag.Version(); got != ver {
		t.Fatalf("version = %d after restart, want %d", got, ver)
	}
	if got := ag.Stats(); got != before {
		t.Fatalf("stats changed across restart: %+v != %+v", got, before)
	}
	// The flow book is soft state and is dropped...
	if got := len(ag.ActiveFlows(ue.PermIP)); got != 0 {
		t.Fatalf("active flows = %d after restart, want 0", got)
	}
	// ...but microflows survive in the switch (it did not fail).
	if ag.Access.NumMicroflows() == 0 {
		t.Fatal("switch state should survive an agent restart")
	}
	// And the agent still classifies new flows purely from the snapshot.
	if allowed, err := ag.HandlePacketIn(upPkt(ue, 40001)); err != nil || !allowed {
		t.Fatalf("post-restart packet-in: allowed=%v err=%v", allowed, err)
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
	if got := len(ag.ActiveFlows(ue.PermIP)); got != 4 {
		t.Fatalf("active flows = %d", got)
	}
	if ag.ActiveFlows(packet.AddrFrom4(9, 9, 9, 9)) != nil {
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
// nothing; one to another server is admitted. After a Restart drops the
// flow books, the switch entries left behind hold no value, so the same
// flow is admitted.
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
	ag.Restart()
	if ok, err := ag.HandlePacketIn(upPkt(ue, uint16(42000+values))); !ok || err != nil {
		t.Fatalf("after a restart: allowed=%v err=%v", ok, err)
	}

	// A booked flow punted again when no value is left keeps its book
	// entry and its microflows. It came in by a handoff, so its wire tuple
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
	if !slices.Contains(ag.ActiveFlows(moved.PermIP), booked.Flow()) || ag.Access.NumMicroflows() != before {
		t.Fatalf("the refused flow left the book (%d flows listed) or changed the switch (%d microflows, %d before)",
			len(ag.ActiveFlows(moved.PermIP)), ag.Access.NumMicroflows(), before)
	}
}

// TestInheritedFlowsHoldTheirValues hands a UE away and back to the same
// station under the same LocIP. The flow it opened there before comes back
// in the flow book with the ephemeral value it was given, and a new flow to
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
