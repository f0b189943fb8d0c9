package agent

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/switchsim"
)

// ErrStaleSnapshot rejects a published snapshot whose version does not
// exceed the agent's current one: old versions must never overwrite new
// state, no matter how the wire reorders deliveries.
var ErrStaleSnapshot = errors.New("agent: stale snapshot version")

// ErrNoPath marks a packet-in whose clause has no admitted tag in the LKG
// snapshot and no synchronous resolver to fall back on: the pushed-snapshot
// deployment shape, where the controller answers with a fresh snapshot
// instead of a blocking RPC.
var ErrNoPath = errors.New("agent: no admitted policy path in snapshot")

// ErrPortsExhausted refuses a new flow when every ephemeral value of the
// UE's tagged source port is held by a live flow to the same destination:
// one more would put two flows on one wire five-tuple.
var ErrPortsExhausted = errors.New("agent: every ephemeral port toward the destination is in use")

// Snapshot is the agent's versioned classifier state: per-UE classifiers
// and the station's admitted (clause -> tag) grants, the agent's one
// record of a clause's tag. It is immutable after publish — readers pick
// it up through one atomic pointer load and classify against that one
// consistent view, so a packet-in never observes half of an update. New
// states are whole replacement snapshots built by NewSnapshot (controller
// pushes) or derived copy-on-write from the current one (local admits),
// then swapped in by version: this is the last-known-good state the data
// plane keeps forwarding on through controller and shard blackouts.
type Snapshot struct {
	version uint64
	ues     map[packet.Addr]*snapUE     // by permanent address
	byLoc   map[packet.Addr]packet.Addr // LocIP, incl. reserved old ones (§5.1) -> permanent address
	tags    map[int]packet.Tag          // admitted policy paths: clause -> tag
}

// snapUE is one UE's share of a Snapshot. Instances are shared across
// snapshot generations and never mutated after construction; an update
// replaces the whole record. locs lists the LocIPs byLoc has given the UE,
// current and reserved; one may since have gone to another UE.
type snapUE struct {
	ue          core.UE
	classifiers appClasses
	locs        []packet.Addr
}

// appClass is a UE's classifier for one app: the clause that decides its
// flows and the QoS an admitted flow is marked with. Its tag is the
// station's grant. An absent classifier is the zero value, which denies,
// as a denying one does.
type appClass struct {
	clause int32
	allow  bool
	qos    policy.QoS
}

// appClasses is a UE's classifiers indexed by app.
type appClasses [policy.AppOther + 1]appClass

// of reports the classifier for app; an app past the end has none.
func (c *appClasses) of(app policy.AppType) appClass {
	if int(app) < len(c) {
		return c[app]
	}
	return appClass{}
}

// set records classifiers over c, dropping an app past c's end.
func (c *appClasses) set(classifiers []core.Classifier) {
	for _, cl := range classifiers {
		if int(cl.App) < len(c) {
			c[cl.App] = appClass{clause: int32(cl.Clause), allow: cl.Allow, qos: cl.QoS}
		}
	}
}

// UE reports the snapshot's record for a permanent address.
func (s *Snapshot) UE(perm packet.Addr) (core.UE, bool) {
	su, ok := s.ues[perm]
	if !ok {
		return core.UE{}, false
	}
	return su.ue, true
}

// pathFor resolves the forwarding tag a clause grants one UE under this
// snapshot. ok is false when the clause no longer admits traffic for the UE
// (classifier withdrawn or denied) or no tag is admitted.
func (s *Snapshot) pathFor(su *snapUE, clause int) (packet.Tag, policy.QoS, bool) {
	for _, cl := range su.classifiers {
		if cl.allow && int(cl.clause) == clause {
			tag := s.tags[clause]
			return tag, cl.qos, tag != 0
		}
	}
	return 0, 0, false
}

// NewSnapshot builds a publishable snapshot from a controller's exported
// station view. version is assigned by the pusher and must exceed the
// receiving agent's current version to take effect (see Publish).
func NewSnapshot(version uint64, view core.AgentView) *Snapshot {
	d := newDraft()
	for _, v := range view.UEs {
		d.putUE(v.UE, v.Classifiers) // their tags are view.Tags' grants
		for _, loc := range v.Reserved {
			d.alias(loc, v.UE.PermIP)
		}
	}
	for _, g := range view.Tags {
		d.tags[g.Clause] = g.Tag
	}
	return d.seal(version)
}

// snapshotDraft is the private mutable form a successor snapshot is built
// in before it is sealed and published. Drafts shallow-copy the previous
// generation's maps; snapUE values are shared until replaced whole.
type snapshotDraft struct {
	ues   map[packet.Addr]*snapUE
	byLoc map[packet.Addr]packet.Addr
	tags  map[int]packet.Tag
}

func newDraft() *snapshotDraft {
	return &snapshotDraft{
		ues:   make(map[packet.Addr]*snapUE),
		byLoc: make(map[packet.Addr]packet.Addr),
		tags:  make(map[int]packet.Tag),
	}
}

// draftOf copies a snapshot's maps into a fresh draft (copy-on-write: the
// snapUE records themselves are shared, not copied).
func draftOf(s *Snapshot) *snapshotDraft {
	d := &snapshotDraft{
		ues:   make(map[packet.Addr]*snapUE, len(s.ues)+1),
		byLoc: make(map[packet.Addr]packet.Addr, len(s.byLoc)+1),
		tags:  make(map[int]packet.Tag, len(s.tags)+1),
	}
	for k, v := range s.ues {
		d.ues[k] = v
	}
	for k, v := range s.byLoc {
		d.byLoc[k] = v
	}
	for k, v := range s.tags {
		d.tags[k] = v
	}
	return d
}

// seal freezes the draft into a publishable snapshot.
//
// seal constructs Snapshot.
func (d *snapshotDraft) seal(version uint64) *Snapshot {
	return &Snapshot{
		version: version,
		ues:     d.ues,
		byLoc:   d.byLoc,
		tags:    d.tags,
	}
}

// putUE installs (or replaces) one UE record and gives it its LocIP. The
// LocIPs its previous record held keep naming it: byLoc names the UE, not
// the record, so they resolve to the fresh state. The classifiers' tags
// are left to the caller.
func (d *snapshotDraft) putUE(ue core.UE, classifiers []core.Classifier) {
	var locs []packet.Addr
	if old, ok := d.ues[ue.PermIP]; ok {
		locs = old.locs
	}
	su := &snapUE{ue: ue, locs: withLoc(locs, ue.LocIP)}
	su.classifiers.set(classifiers)
	d.ues[ue.PermIP] = su
	d.byLoc[ue.LocIP] = ue.PermIP
}

// grant sets the station's grants to the non-zero tags classifiers carry.
func (d *snapshotDraft) grant(classifiers []core.Classifier) {
	for _, c := range classifiers {
		if c.Tag != 0 {
			d.tags[c.Clause] = c.Tag
		}
	}
}

// removeUE drops one UE record and each of its LocIPs that still names it.
func (d *snapshotDraft) removeUE(perm packet.Addr) {
	if su, ok := d.ues[perm]; ok {
		for _, loc := range su.locs {
			if d.byLoc[loc] == perm {
				delete(d.byLoc, loc)
			}
		}
	}
	delete(d.ues, perm)
}

// alias gives an existing UE an extra LocIP (a §5.1 reserved old address).
func (d *snapshotDraft) alias(loc packet.Addr, perm packet.Addr) {
	if su, ok := d.ues[perm]; ok {
		d.ues[perm] = &snapUE{ue: su.ue, classifiers: su.classifiers, locs: withLoc(su.locs, loc)}
		d.byLoc[loc] = perm
	}
}

// withLoc returns locs with loc listed, copying rather than appending in
// place: earlier snapshots share the slice.
func withLoc(locs []packet.Addr, loc packet.Addr) []packet.Addr {
	if slices.Contains(locs, loc) {
		return locs
	}
	return append(slices.Clip(locs), loc)
}

// mergeClassifiers replaces a UE's classifiers for the listed apps and
// sets their grants. A classifier arriving with Tag 0 is an explicit
// invalidation: the station's grant for its clause is withdrawn, so the
// next flow re-asks the controller (the Table 2 hit-ratio semantics).
func (d *snapshotDraft) mergeClassifiers(perm packet.Addr, classifiers []core.Classifier) {
	su, ok := d.ues[perm]
	if !ok {
		return
	}
	next := *su
	next.classifiers.set(classifiers)
	d.ues[perm] = &next
	for _, c := range classifiers {
		delete(d.tags, c.Clause)
	}
	d.grant(classifiers)
}

// ReconcileReport accounts for what a newly published snapshot did to the
// agent's live microflow state: nothing is ever silently dropped — every
// tagged flow is either kept, replayed onto the snapshot's current tag, or
// torn down because the snapshot withdrew its path or its UE.
type ReconcileReport struct {
	Kept       int // flows whose tag the snapshot confirms
	Replayed   int // flows reinstalled under a changed tag
	TornDown   int // flows removed: path or classifier withdrawn, or UE gone
	UEsDropped int // UEs tombstoned by the snapshot whose microflows were removed
}

// lkg returns the agent's current last-known-good snapshot (never nil).
func (a *Agent) lkg() *Snapshot { return a.snap.Load() }

// Version reports the current LKG snapshot version.
func (a *Agent) Version() uint64 { return a.lkg().version }

// validateSnapshot is the validate half of validate-then-swap: a snapshot
// that misattributes UEs or carries un-embeddable tags is refused whole,
// before it can become anyone's LKG state.
func (a *Agent) validateSnapshot(s *Snapshot) error {
	for perm, su := range s.ues {
		if su.ue.BS != a.BS {
			return fmt.Errorf("agent: snapshot v%d places UE %s at bs%d, not bs%d",
				s.version, su.ue.IMSI, su.ue.BS, a.BS)
		}
		if su.ue.PermIP != perm {
			return fmt.Errorf("agent: snapshot v%d keys UE %s under %s", s.version, su.ue.IMSI, perm)
		}
		if su.ue.LocIP == 0 {
			return fmt.Errorf("agent: snapshot v%d carries UE %s with no LocIP", s.version, su.ue.IMSI)
		}
	}
	for clause, tag := range s.tags {
		if tag == 0 || tag > a.plan.MaxTag() {
			return fmt.Errorf("agent: snapshot v%d grants clause %d unusable tag %d", s.version, clause, tag)
		}
	}
	return nil
}

// Publish validates s and atomically swaps it in as the agent's LKG state,
// provided its version is strictly newer than the current one (CAS on the
// snapshot pointer, ordered by version — an out-of-order delivery fails
// with ErrStaleSnapshot and changes nothing). On success it reconciles the
// agent's live microflows against the new state and reports what was kept,
// replayed, or torn down.
func (a *Agent) Publish(s *Snapshot) (ReconcileReport, error) {
	sp := a.obs.spPublish.Root()
	defer sp.End()
	if s == nil {
		return ReconcileReport{}, errors.New("agent: nil snapshot")
	}
	if err := a.validateSnapshot(s); err != nil {
		a.stats.rejected.Add(1)
		a.obs.rejected.Inc()
		return ReconcileReport{}, err
	}
	for {
		cur := a.snap.Load()
		if s.version <= cur.version {
			a.stats.staleDrops.Add(1)
			a.obs.staleDrops.Inc()
			return ReconcileReport{}, fmt.Errorf("agent: bs%d holds v%d, refused v%d: %w",
				a.BS, cur.version, s.version, ErrStaleSnapshot)
		}
		if a.snap.CompareAndSwap(cur, s) {
			break
		}
	}
	a.stats.publishes.Add(1)
	a.obs.publishes.Inc()
	a.obs.version.Set(int64(s.version))
	return a.reconcile(), nil
}

// derive publishes a local successor of the current LKG snapshot: copy the
// maps into a draft, apply mutate, seal at version+1, and swap — retrying
// from the fresh state if a concurrent publication won the pointer.
func (a *Agent) derive(mutate func(d *snapshotDraft)) *Snapshot {
	for {
		cur := a.snap.Load()
		d := draftOf(cur)
		mutate(d)
		next := d.seal(cur.version + 1)
		if a.snap.CompareAndSwap(cur, next) {
			a.obs.version.Set(int64(next.version))
			return next
		}
	}
}

// reconcile walks the access switch's owned microflows, UE by UE, under
// the freshly published snapshot. Stale admits are replayed (reinstalled
// under the snapshot's tag) or torn down (path or UE withdrawn) — never
// silently dropped; every disposition is counted here and on the obs
// registry. A denial's drop entry goes too, uncounted, so the flow's next
// packet is classified again under the new state. The switch, not the
// agent, holds the flows, so a restarted agent reconciles what its
// predecessor installed.
func (a *Agent) reconcile() ReconcileReport {
	snap := a.lkg()
	a.mu.Lock()
	defer a.mu.Unlock()
	var rep ReconcileReport
	var flows []switchsim.Microflow
	for _, perm := range a.Access.Owners(nil) {
		flows = a.Access.Owned(flows[:0], perm)
		su, ok := snap.ues[perm]
		if !ok {
			// Tombstoned UE: the snapshot no longer carries it, so its
			// microflows must not keep forwarding.
			for _, m := range flows {
				a.Access.RemoveMicroflow(m.Key)
				if upstream(m) && !isDenial(m) {
					rep.TornDown++
				}
			}
			rep.UEsDropped++
			continue
		}
		for _, m := range flows {
			if isDenial(m) {
				a.Access.RemoveMicroflow(m.Key)
				continue
			}
			// M2M and location-routed flows carry no tag to reconcile. A
			// migrated flow does not resubmit: MigrateFlows tunnels it to its
			// origin station, and it rides that station's path, not this one's.
			if !upstream(m) || m.Action.Set&switchsim.SetSrcPort == 0 || !m.Action.Resubmit {
				continue
			}
			// An arrival's reply restores the sender's wire form, its tag
			// included: it is no path of this UE's to re-tag.
			if m.Cookie.Clause == arrivalClause {
				continue
			}
			clause := int(m.Cookie.Clause)
			old, _ := a.plan.SplitPort(m.Action.SrcPort)
			tag, qos, ok := snap.pathFor(su, clause)
			if ok && tag == old {
				rep.Kept++
				continue
			}
			a.Access.RemoveMicroflow(m.Key)
			a.Access.RemoveMicroflow(m.Action.Rewritten(m.Key).Reverse())
			switch {
			case !ok:
				rep.TornDown++
			case a.installMicroflows(su, m.Key, tag, clause, qos) != nil:
				rep.TornDown++ // unembeddable replacement tag: counted, not hidden
			default:
				rep.Replayed++
			}
		}
	}
	a.stats.replayed.Add(uint64(rep.Replayed))
	a.stats.tornDown.Add(uint64(rep.TornDown))
	a.obs.replayed.Add(uint64(rep.Replayed))
	a.obs.tornDown.Add(uint64(rep.TornDown))
	return rep
}

// Verdict is Classify's result: the decision the agent would make for a
// packet using only the LKG snapshot.
type Verdict struct {
	Known   bool       // the source UE is in the snapshot
	Allowed bool       // its classifier admits the flow
	Pending bool       // admitted, but no tag yet: needs a path (ErrNoPath territory)
	Tag     packet.Tag // the tag the flow would carry (0 for M2M location routing)
}

// Classify resolves the verdict for p against the current LKG snapshot —
// read-only: no locks taken, no controller contact, no microflows
// installed. The chaos harness's continuity checker drives it during
// control-plane blackouts, where any verdict flip for previously admitted
// traffic is an invariant violation.
//
// hotpath: no alloc, no lock
func (a *Agent) Classify(p *packet.Packet) Verdict {
	snap := a.lkg()
	su, ok := snap.ues[p.Src]
	if !ok {
		return Verdict{}
	}
	cl := su.classifiers.of(classifyApp(p))
	if !cl.allow {
		return Verdict{Known: true}
	}
	tag := snap.tags[int(cl.clause)]
	if tag == 0 && !(a.plan.Carrier.Contains(p.Dst) || a.isLocalPerm(p.Dst)) {
		return Verdict{Known: true, Allowed: true, Pending: true}
	}
	return Verdict{Known: true, Allowed: true, Tag: tag}
}
