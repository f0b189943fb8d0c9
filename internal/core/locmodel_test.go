package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/policy"
)

// locModel is the reference a controller's LocIP allocation must match:
// which UE each LocIP in use names — its current one or a reserved old one;
// "" for one its UE's Detach or ExtractUE parked — each UE's current LocIP,
// and per station the high-water mark and a LIFO stack of free UE IDs.
type locModel struct {
	plan  packet.Plan
	owner map[packet.Addr]string
	cur   map[string]packet.Addr
	mark  [3]packet.UEID
	free  [3][]packet.UEID
}

func newLocModel(plan packet.Plan) *locModel {
	return &locModel{plan: plan, owner: map[packet.Addr]string{}, cur: map[string]packet.Addr{}}
}

// place gives bs's next UE ID to imsi as its current LocIP.
func (m *locModel) place(imsi string, bs packet.BSID) packet.Addr {
	var id packet.UEID
	if n := len(m.free[bs]); n > 0 {
		id, m.free[bs] = m.free[bs][n-1], m.free[bs][:n-1]
	} else {
		m.mark[bs]++
		id = m.mark[bs]
	}
	loc, _ := m.plan.LocIP(bs, id)
	m.owner[loc], m.cur[imsi] = imsi, loc
	return loc
}

func (m *locModel) release(loc packet.Addr) {
	bs, id, _ := m.plan.Split(loc)
	delete(m.owner, loc)
	m.free[bs] = append(m.free[bs], id)
}

// reserved lists the LocIPs reserved for imsi ("" for the parked ones),
// ascending.
func (m *locModel) reserved(imsi string) []packet.Addr {
	var out []packet.Addr
	for loc, who := range m.owner {
		if who == imsi && m.cur[who] != loc {
			out = append(out, loc)
		}
	}
	slices.Sort(out)
	return out
}

// remove drops imsi's current LocIP and parks its reserved ones, each until
// its own release: Detach and ExtractUE alike.
func (m *locModel) remove(imsi string) {
	m.release(m.cur[imsi])
	delete(m.cur, imsi)
	for _, loc := range m.reserved(imsi) {
		m.owner[loc] = ""
	}
}

// recover keeps exactly the reported current LocIPs; each station's mark
// is its highest reported UE ID, and the IDs below it that no report names
// are stacked highest first.
func (m *locModel) recover(reported map[string]packet.Addr) {
	*m = *newLocModel(m.plan)
	for imsi, loc := range reported {
		bs, id, _ := m.plan.Split(loc)
		m.owner[loc], m.cur[imsi], m.mark[bs] = imsi, loc, max(m.mark[bs], id)
	}
	for bs := range m.mark {
		for id := m.mark[bs]; id > 0; id-- {
			loc, _ := m.plan.LocIP(packet.BSID(bs), id)
			if _, held := m.owner[loc]; !held {
				m.free[bs] = append(m.free[bs], id)
			}
		}
	}
}

// TestQuickLocIPAllocationMatchesModel drives a random op stream over three
// stations — attach, re-attach elsewhere, handoff, ReleaseOldLocIP, Detach,
// ExtractUE then AdoptUE, RecoverLocations from a random subset of the
// attached UEs — against locModel. After every op each LocIP handed out
// must be the model's, and every LocIP up to past the model's marks must
// resolve through LookupByLocIP to the UE the model names, or to none.
func TestQuickLocIPAllocationMatchesModel(t *testing.T) {
	imsis := []string{"q0", "q1", "q2", "q3", "q4"}
	prop := func(ops []uint16) bool {
		c, _ := testController(t)
		for _, imsi := range imsis {
			if err := c.RegisterSubscriber(imsi, policy.Attributes{Provider: "A"}); err != nil {
				t.Fatal(err)
			}
		}
		m := newLocModel(c.Plan())
		for step, op := range ops {
			kind, imsi, bs := op%7, imsis[int(op/7)%len(imsis)], packet.BSID(op/35%3)
			pick := int(op / 105)
			what := ""
			var got, want packet.Addr
			_, attached := m.cur[imsi]
			switch {
			case kind <= 1: // attach, here or elsewhere
				what = fmt.Sprintf("attach %s at %d", imsi, bs)
				ue, _, err := c.Attach(imsi, bs)
				if err != nil {
					t.Fatalf("step %d: %s: %v", step, what, err)
				}
				got = ue.LocIP
				if old, ok := m.cur[imsi]; ok {
					if obs, _, _ := m.plan.Split(old); obs == bs {
						want = old
						break
					}
					want = m.place(imsi, bs)
					m.release(old)
				} else {
					want = m.place(imsi, bs)
				}
			case kind == 2 && attached:
				what = fmt.Sprintf("handoff %s to %d", imsi, bs)
				res, err := c.Handoff(imsi, bs)
				if obs, _, _ := m.plan.Split(m.cur[imsi]); obs == bs {
					if err == nil {
						t.Fatalf("step %d: %s: a handoff to the UE's own station succeeded", step, what)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: %s: %v", step, what, err)
				}
				got, want = res.UE.LocIP, m.place(imsi, bs)
			case kind == 3:
				var held []packet.Addr
				for loc, who := range m.owner {
					if m.cur[who] != loc {
						held = append(held, loc)
					}
				}
				slices.Sort(held)
				loc := m.cur[imsi] // not reserved: releasing it changes nothing
				if len(held) > 0 {
					loc = held[pick%len(held)]
					m.release(loc)
				}
				what = fmt.Sprintf("release %s", loc)
				c.ReleaseOldLocIP(loc, nil)
			case kind == 4 && attached:
				what = fmt.Sprintf("detach %s", imsi)
				if err := c.Detach(imsi); err != nil {
					t.Fatalf("step %d: %s: %v", step, what, err)
				}
				m.remove(imsi)
			case kind == 5 && attached:
				what = fmt.Sprintf("move %s to %d by extract and adopt", imsi, bs)
				mig, err := c.ExtractUE(imsi)
				if err != nil {
					t.Fatalf("step %d: %s: %v", step, what, err)
				}
				ue, _, err := c.AdoptUE(mig, bs)
				if err != nil {
					t.Fatalf("step %d: %s: %v", step, what, err)
				}
				m.remove(imsi)
				got, want = ue.LocIP, m.place(imsi, bs)
			case kind == 6:
				what = fmt.Sprintf("recover from subset %#x", pick)
				reported := map[string]packet.Addr{}
				var reports []AgentLocationReport
				for i, who := range imsis {
					ue, ok := c.LookupUE(who)
					if !ok || pick>>i&1 == 0 {
						continue
					}
					reported[who] = ue.LocIP
					reports = append(reports, AgentLocationReport{BS: ue.BS, UEs: []UE{ue}})
				}
				if err := c.RecoverLocations(reports); err != nil {
					t.Fatalf("step %d: %s: %v", step, what, err)
				}
				m.recover(reported)
			default:
				continue
			}
			if got != want {
				t.Fatalf("step %d: %s handed out %s, the model %s", step, what, got, want)
			}
			if _, err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
			for bs := packet.BSID(0); bs < 3; bs++ {
				for id := packet.UEID(1); id <= m.mark[bs]+2; id++ {
					loc, _ := m.plan.LocIP(bs, id)
					ue, ok := c.LookupByLocIP(loc)
					who := m.owner[loc]
					if ok != (who != "") || ok && (ue.IMSI != who || ue.LocIP != m.cur[who]) {
						t.Fatalf("step %d: after %s, LocIP %s resolves to %q at %s (%v); the model names %q at %s",
							step, what, loc, ue.IMSI, ue.LocIP, ok, who, m.cur[who])
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
