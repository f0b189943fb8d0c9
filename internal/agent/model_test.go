package agent

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/switchsim"
)

// refSnap is the reference an agent's snapshot must read as: its rules
// kept in plain maps, as the snapshot kept them before its paged index.
type refSnap struct {
	ues   map[packet.Addr]refUE       // by permanent address
	byLoc map[packet.Addr]packet.Addr // LocIP -> permanent address
	tags  map[int]packet.Tag          // clause -> tag
}

type refUE struct {
	ue      core.UE
	classes appClasses
	locs    []packet.Addr
}

func newRef() *refSnap {
	return &refSnap{ues: map[packet.Addr]refUE{}, byLoc: map[packet.Addr]packet.Addr{}, tags: map[int]packet.Tag{}}
}

func (r *refSnap) clone() *refSnap {
	return &refSnap{ues: maps.Clone(r.ues), byLoc: maps.Clone(r.byLoc), tags: maps.Clone(r.tags)}
}

func (r *refSnap) putUE(ue core.UE, cls []core.Classifier) {
	u := refUE{ue: ue}
	u.classes.set(cls)
	u.locs = append(slices.Clone(r.ues[ue.PermIP].locs), ue.LocIP)
	r.ues[ue.PermIP] = u
	r.byLoc[ue.LocIP] = ue.PermIP
}

func (r *refSnap) grant(cls []core.Classifier) {
	for _, c := range cls {
		if c.Tag != 0 {
			r.tags[c.Clause] = c.Tag
		}
	}
}

func (r *refSnap) merge(perm packet.Addr, cls []core.Classifier) {
	u, ok := r.ues[perm]
	if !ok {
		return
	}
	u.classes.set(cls)
	r.ues[perm] = u
	for _, c := range cls {
		delete(r.tags, c.Clause)
	}
	r.grant(cls)
}

func (r *refSnap) alias(loc, perm packet.Addr) {
	if u, ok := r.ues[perm]; ok {
		u.locs = append(slices.Clone(u.locs), loc)
		r.ues[perm] = u
		r.byLoc[loc] = perm
	}
}

func (r *refSnap) remove(perm packet.Addr) {
	for _, loc := range r.ues[perm].locs {
		if r.byLoc[loc] == perm {
			delete(r.byLoc, loc)
		}
	}
	delete(r.ues, perm)
}

func (r *refSnap) classify(perm packet.Addr, app policy.AppType) Verdict {
	u, ok := r.ues[perm]
	if !ok {
		return Verdict{}
	}
	cl := u.classes.of(app)
	if !cl.allow {
		return Verdict{Known: true}
	}
	if tag := r.tags[int(cl.clause)]; tag != 0 {
		return Verdict{Known: true, Allowed: true, Tag: tag}
	}
	return Verdict{Known: true, Allowed: true, Pending: true}
}

// modelOp is one step of the model test, drawn by modelOps.
type modelOp struct {
	kind     string // admit, update, migrate, alias, remove, publish
	at       int    // the agent it runs at (migrate: the one the UE leaves)
	sub      int    // the subscriber it concerns
	id       packet.UEID
	gold     bool
	cls      []core.Classifier
	view     []int // publish: subscribers the view lists
	reserved bool  // publish: each listed UE also reserves an address at the other station
}

const (
	modelSubs = 6 // subscribers
	modelIDs  = 4 // UE IDs per station, so LocIPs are handed out again
)

func modelPerm(sub int) packet.Addr { return packet.AddrFrom4(100, 64, 0, byte(sub+1)) }

func modelLoc(bs packet.BSID, id packet.UEID) packet.Addr {
	loc, err := plan.LocIP(bs, id)
	if err != nil {
		panic(err)
	}
	return loc
}

// randomClassifiers draws classifiers for a random subset of apps, over
// four clauses, with tag 0 about a third of the time.
func randomClassifiers(r *rand.Rand) []core.Classifier {
	var cls []core.Classifier
	for _, app := range policy.AllApps {
		if r.Intn(3) > 0 {
			cls = append(cls, core.Classifier{App: app, Clause: r.Intn(4), Tag: packet.Tag(r.Intn(3)), Allow: r.Intn(4) > 0})
		}
	}
	return cls
}

func modelOps(r *rand.Rand) []modelOp {
	kinds := []string{"admit", "admit", "admit", "update", "migrate", "alias", "remove", "publish"}
	ops := make([]modelOp, 30+r.Intn(120))
	for i := range ops {
		o := modelOp{kind: kinds[r.Intn(len(kinds))], at: r.Intn(2), sub: r.Intn(modelSubs),
			id: packet.UEID(1 + r.Intn(modelIDs)), gold: r.Intn(2) == 0, cls: randomClassifiers(r), reserved: r.Intn(2) == 0}
		for s := range modelSubs {
			if r.Intn(2) == 0 {
				o.view = append(o.view, s)
			}
		}
		ops[i] = o
	}
	return ops
}

// modelUE is subscriber sub's record at station bs with UE ID id.
func modelUE(sub int, bs packet.BSID, id packet.UEID, gold bool) core.UE {
	ue := core.UE{IMSI: fmt.Sprintf("imsi-%d", sub), PermIP: modelPerm(sub), BS: bs, UEID: id, LocIP: modelLoc(bs, id)}
	if gold {
		ue.Attr.Plan = "gold"
	}
	return ue
}

// runModel drives two agents, at stations 1 and 2, and a reference for
// each through ops, and compares them after every step.
func runModel(t *testing.T, ops []modelOp) error {
	var agents [2]*Agent
	var refs [2]*refSnap
	for i := range agents {
		agents[i] = New(packet.BSID(i+1), switchsim.NewSwitch(fmt.Sprintf("as-%d", i+1)), plan, nil)
		refs[i] = newRef()
	}
	for n, o := range ops {
		var before [2]*Snapshot
		var beforeRefs [2]*refSnap
		for i := range agents {
			before[i], beforeRefs[i] = agents[i].lkg(), refs[i].clone()
		}
		a, ref := agents[o.at], refs[o.at]
		bs, perm := a.BS, modelPerm(o.sub)
		_, held := ref.ues[perm]
		switch o.kind {
		case "admit":
			ue := modelUE(o.sub, bs, o.id, o.gold)
			if err := a.AdmitUE(ue, o.cls); err != nil {
				return fmt.Errorf("op %d: AdmitUE: %v", n, err)
			}
			ref.putUE(ue, o.cls)
			ref.grant(o.cls)
		case "update":
			if err := a.UpdateClassifiers(perm, o.cls); (err == nil) != held {
				return fmt.Errorf("op %d: UpdateClassifiers of a UE held=%v: %v", n, held, err)
			}
			ref.merge(perm, o.cls)
		case "migrate":
			to, toRef := agents[1-o.at], refs[1-o.at]
			dst, admitted := toRef.ues[perm]
			var newUE core.UE
			if admitted {
				newUE = dst.ue
			}
			oldLoc := ref.ues[perm].ue.LocIP
			if err := a.MigrateFlows(to, newUE, oldLoc); (err == nil) != (held && admitted) {
				return fmt.Errorf("op %d: MigrateFlows of a UE held=%v admitted=%v: %v", n, held, admitted, err)
			}
			if held && admitted {
				ref.remove(perm)
				toRef.alias(oldLoc, perm)
			}
		case "alias":
			loc := modelLoc(3-bs, o.id) // an address reserved at the other station
			a.derive(func(d *snapshotDraft) { d.alias(loc, perm) })
			ref.alias(loc, perm)
		case "remove":
			a.derive(func(d *snapshotDraft) { d.removeUE(perm) })
			ref.remove(perm)
		case "publish":
			v := core.AgentView{BS: bs}
			next := newRef()
			for i, sub := range o.view {
				u := core.AgentViewUE{UE: modelUE(sub, bs, packet.UEID(1+(int(o.id)+i)%modelIDs), o.gold), Classifiers: o.cls}
				if o.reserved {
					u.Reserved = []packet.Addr{modelLoc(3-bs, packet.UEID(1+i%modelIDs))}
				}
				v.UEs = append(v.UEs, u)
				next.putUE(u.UE, u.Classifiers)
				for _, loc := range u.Reserved {
					next.alias(loc, u.UE.PermIP)
				}
			}
			for c := range 4 {
				if tag := packet.Tag((int(o.id) + c) % 3); tag != 0 {
					v.Tags = append(v.Tags, core.TagGrant{Clause: c, Tag: tag})
					next.tags[c] = tag
				}
			}
			if _, err := a.Publish(NewSnapshot(a.Version()+1, v)); err != nil {
				return fmt.Errorf("op %d: Publish: %v", n, err)
			}
			refs[o.at] = next
		}
		for i := range agents {
			if err := compareModel(t, agents[i], refs[i]); err != nil {
				return fmt.Errorf("op %d (%s at agent %d), agent %d: %w", n, o.kind, o.at, i, err)
			}
			if err := compareSnapshot(before[i], beforeRefs[i]); err != nil {
				return fmt.Errorf("op %d (%s at agent %d), agent %d's snapshot before it changed: %w", n, o.kind, o.at, i, err)
			}
		}
	}
	return nil
}

// compareSnapshot checks that s still reads as ref, the reference of the
// state it was published with: a published snapshot is immutable, however
// its successors are derived.
func compareSnapshot(s *Snapshot, ref *refSnap) error {
	if s.ues != len(ref.ues) {
		return fmt.Errorf("%d UEs, want %d", s.ues, len(ref.ues))
	}
	for sub := range modelSubs {
		perm := modelPerm(sub)
		u, held := ref.ues[perm]
		su, ok := s.ue(perm)
		if ok != held || (ok && (su.ue != u.ue || su.classifiers != u.classes)) {
			return fmt.Errorf("the record of %s changed", perm)
		}
	}
	for bs := packet.BSID(1); bs <= 2; bs++ {
		for id := packet.UEID(1); id <= modelIDs; id++ {
			loc := modelLoc(bs, id)
			want, held := ref.byLoc[loc]
			if su, ok := s.byLoc(loc); ok != held || (ok && su.ue.PermIP != want) {
				return fmt.Errorf("%s resolves differently", loc)
			}
		}
	}
	for c := range 4 {
		if s.tag(c) != ref.tags[c] {
			return fmt.Errorf("clause %d's grant is %d, want %d", c, s.tag(c), ref.tags[c])
		}
	}
	return nil
}

// compareModel checks a's snapshot against ref through UE, Classify,
// HandleArrival, NumUEs and LocationReport, and checks that every LocIP
// entry of the snapshot's index names its UE's current record.
func compareModel(t *testing.T, a *Agent, ref *refSnap) error {
	if n := a.NumUEs(); n != len(ref.ues) {
		return fmt.Errorf("NumUEs %d, want %d", n, len(ref.ues))
	}
	for sub := range modelSubs {
		perm := modelPerm(sub)
		u, held := ref.ues[perm]
		if got, ok := a.lkg().UE(perm); ok != held || got != u.ue {
			return fmt.Errorf("UE(%s) = %+v, %v; want %+v, %v", perm, got, ok, u.ue, held)
		}
		for _, app := range policy.AllApps {
			p := &packet.Packet{Src: perm, Dst: packet.AddrFrom4(1, 1, 1, 1), SrcPort: 4000, DstPort: 80,
				Proto: packet.ProtoTCP, App: uint8(app)}
			if got, want := a.Classify(p), ref.classify(perm, app); got != want {
				return fmt.Errorf("Classify(%s, %v) = %+v, want %+v", perm, app, got, want)
			}
		}
	}
	for bs := packet.BSID(1); bs <= 2; bs++ {
		for id := packet.UEID(1); id <= modelIDs; id++ {
			loc := modelLoc(bs, id)
			want, held := ref.byLoc[loc]
			if got, ok := arrive(t, a, loc); ok != held || got != want {
				return fmt.Errorf("HandleArrival(%s) resolves to %s, %v; want %s, %v", loc, got, ok, want, held)
			}
		}
	}
	var got, want []core.UE
	got = a.LocationReport().UEs
	for _, u := range ref.ues {
		want = append(want, u.ue)
	}
	byIMSI := func(x, y core.UE) int { return strings.Compare(x.IMSI, y.IMSI) }
	slices.SortFunc(got, byIMSI)
	slices.SortFunc(want, byIMSI)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("LocationReport %+v, want %+v", got, want)
	}
	var stale error
	snap := a.lkg()
	snap.addrs.Range(func(k packet.Addr, su *snapUE) bool {
		if cur, _ := snap.ue(su.ue.PermIP); cur != su {
			stale = fmt.Errorf("%s names a record of %s that is not its current one", k, su.ue.PermIP)
		}
		return stale == nil
	})
	return stale
}

// TestSnapshotMatchesAMapModel drives random AdmitUE, UpdateClassifiers,
// MigrateFlows, alias, removeUE and Publish sequences over two agents and
// a map-based reference of each, comparing them after every step.
func TestSnapshotMatchesAMapModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1)),
		Values: func(args []reflect.Value, r *rand.Rand) { args[0] = reflect.ValueOf(modelOps(r)) }}
	if err := quick.Check(func(ops []modelOp) bool {
		if err := runModel(t, ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}
