package agent

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/cowindex"
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
//
// One paged copy-on-write index holds every UE record under each address
// that names it: its permanent address and each LocIP, current and
// reserved (§5.1). The two never collide, since the permanent pool lies
// outside the carrier block; a snapshot in which they would is refused. A
// derived snapshot copies only the index pages its change writes. The
// grants are a slice sorted by clause, found by binary search and shared
// until one changes: a station holds one per clause of the policy at most,
// and a grant changes far less often than an attach writes the index.
type Snapshot struct {
	version uint64
	ues     int                                  // UE records: the entries keyed by their permanent address
	addrs   cowindex.Index[packet.Addr, *snapUE] // permanent address or LocIP -> UE record
	tags    []grant                              // admitted policy paths, by clause
	// clashed marks a snapshot built with one address given both as a
	// permanent address and as a LocIP; it is never published.
	clashed bool
}

// grant is one admitted policy path: a clause and the station's tag for it.
type grant struct {
	clause int32
	tag    packet.Tag
}

// grantIndex returns the position of clause's grant among the sorted
// grants, or the position it would take, and whether it is there.
func grantIndex(tags []grant, clause int) (int, bool) {
	lo, hi := 0, len(tags)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(tags[m].clause) < clause {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(tags) && int(tags[lo].clause) == clause
}

// snapUE is one UE's share of a Snapshot. Instances are shared across
// snapshot generations and never mutated after construction; an update
// replaces the whole record. locs lists the LocIPs the index has given the
// UE, current and reserved; one may since have gone to another UE. They
// are held in inline when they fit, so a record never points into
// another's.
type snapUE struct {
	ue          core.UE
	classifiers appClasses
	locs        []packet.Addr
	inline      [2]packet.Addr
}

// newSnapUE builds a record listing locs and loc.
func newSnapUE(ue core.UE, classifiers appClasses, locs []packet.Addr, loc packet.Addr) *snapUE {
	su := &snapUE{ue: ue, classifiers: classifiers}
	n := len(locs)
	listed := slices.Contains(locs, loc)
	if !listed {
		n++
	}
	if n <= len(su.inline) {
		su.locs = su.inline[:0:n]
	} else {
		su.locs = make([]packet.Addr, 0, n)
	}
	su.locs = append(su.locs, locs...)
	if !listed {
		su.locs = append(su.locs, loc)
	}
	return su
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

// ue returns the record of the UE whose permanent address is perm.
func (s *Snapshot) ue(perm packet.Addr) (*snapUE, bool) {
	if su, ok := s.addrs.Get(perm); ok && su.ue.PermIP == perm {
		return su, true
	}
	return nil, false
}

// byLoc returns the record of the UE loc, a LocIP, names.
func (s *Snapshot) byLoc(loc packet.Addr) (*snapUE, bool) {
	if su, ok := s.addrs.Get(loc); ok && su.ue.PermIP != loc {
		return su, true
	}
	return nil, false
}

// tag reports the station's grant for clause, 0 when it has none.
func (s *Snapshot) tag(clause int) packet.Tag {
	if i, ok := grantIndex(s.tags, clause); ok {
		return s.tags[i].tag
	}
	return 0
}

// eachUE calls f with every UE record, in index order.
func (s *Snapshot) eachUE(f func(su *snapUE) bool) {
	s.addrs.Range(func(k packet.Addr, su *snapUE) bool {
		return k != su.ue.PermIP || f(su)
	})
}

// UE reports the snapshot's record for a permanent address.
func (s *Snapshot) UE(perm packet.Addr) (core.UE, bool) {
	su, ok := s.ue(perm)
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
			tag := s.tag(clause)
			return tag, cl.qos, tag != 0
		}
	}
	return 0, 0, false
}

// NewSnapshot builds a publishable snapshot from a controller's exported
// station view. version is assigned by the pusher and must exceed the
// receiving agent's current version to take effect (see Publish). A grant
// of tag 0 is kept as given, for validation to refuse.
func NewSnapshot(version uint64, view core.AgentView) *Snapshot {
	d := draftOf(&emptySnapshot)
	for _, v := range view.UEs {
		d.putUE(v.UE, v.Classifiers) // their tags are view.Tags' grants
		for _, loc := range v.Reserved {
			d.alias(loc, v.UE.PermIP)
		}
	}
	for _, g := range view.Tags {
		d.putGrant(g.Clause, g.Tag)
	}
	return d.seal(version)
}

// emptySnapshot is version 0, the state before anything is published.
var emptySnapshot Snapshot

// snapshotDraft is the private mutable form a successor snapshot is built
// in before it is sealed and published: a copy of its predecessor (base)
// that shares base's index pages and grants until it writes them.
type snapshotDraft struct {
	Snapshot
	base    *Snapshot
	ownTags bool // tags is the draft's own copy
}

// draftOf starts a successor of s.
func draftOf(s *Snapshot) *snapshotDraft {
	return &snapshotDraft{Snapshot: *s, base: s}
}

// seal freezes the draft into a publishable snapshot. The draft is not
// used after.
//
// seal constructs Snapshot.
func (d *snapshotDraft) seal(version uint64) *Snapshot {
	d.version, d.base = version, nil
	return &d.Snapshot
}

// set points addr at su. An address that was a permanent address and
// becomes a LocIP, or the other way round, marks the draft clashed.
//
// set constructs Snapshot.
func (d *snapshotDraft) set(addr packet.Addr, su *snapUE) {
	if old, ok := d.addrs.Put(&d.base.addrs, addr, su); ok && (old.ue.PermIP == addr) != (su.ue.PermIP == addr) {
		d.clashed = true
	}
}

// rebind makes su, the successor of old (nil for a new UE), the record its
// permanent address and every LocIP still naming old resolve to.
//
// rebind constructs Snapshot.
func (d *snapshotDraft) rebind(old, su *snapUE) {
	if old == nil {
		d.ues++
	} else {
		for _, loc := range old.locs {
			if cur, ok := d.addrs.Get(loc); ok && cur == old {
				d.set(loc, su)
			}
		}
	}
	d.set(su.ue.PermIP, su)
}

// putUE installs (or replaces) one UE record and gives it its LocIP. The
// LocIPs its previous record held keep naming it, now its fresh state. The
// classifiers' tags are left to the caller.
func (d *snapshotDraft) putUE(ue core.UE, classifiers []core.Classifier) {
	var classes appClasses
	classes.set(classifiers)
	old, _ := d.ue(ue.PermIP)
	var locs []packet.Addr
	if old != nil {
		locs = old.locs
	}
	su := newSnapUE(ue, classes, locs, ue.LocIP)
	d.rebind(old, su)
	d.set(ue.LocIP, su)
}

// setTag makes tag clause's grant (0 withdraws it), copying the grants
// only when that changes them.
//
// setTag constructs Snapshot.
func (d *snapshotDraft) setTag(clause int, tag packet.Tag) {
	i, held := grantIndex(d.tags, clause)
	switch {
	case held && d.tags[i].tag == tag, !held && tag == 0:
	case tag == 0:
		d.ownGrants()
		d.tags = slices.Delete(d.tags, i, i+1)
	default:
		d.putGrant(clause, tag)
	}
}

// putGrant makes tag clause's grant, a tag of 0 included.
//
// putGrant constructs Snapshot.
func (d *snapshotDraft) putGrant(clause int, tag packet.Tag) {
	d.ownGrants()
	if i, held := grantIndex(d.tags, clause); held {
		d.tags[i].tag = tag
	} else {
		d.tags = slices.Insert(d.tags, i, grant{int32(clause), tag})
	}
}

// ownGrants gives the draft a copy of the grants of its own to write.
//
// ownGrants constructs Snapshot.
func (d *snapshotDraft) ownGrants() {
	if !d.ownTags {
		d.tags, d.ownTags = slices.Clone(d.tags), true
	}
}

// grant sets the station's grants to the non-zero tags classifiers carry.
func (d *snapshotDraft) grant(classifiers []core.Classifier) {
	for _, c := range classifiers {
		if c.Tag != 0 {
			d.setTag(c.Clause, c.Tag)
		}
	}
}

// removeUE drops one UE record and each of its addresses that still names
// it.
//
// removeUE constructs Snapshot.
func (d *snapshotDraft) removeUE(perm packet.Addr) {
	su, ok := d.ue(perm)
	if !ok {
		return
	}
	for _, loc := range su.locs {
		if cur, ok := d.addrs.Get(loc); ok && cur == su {
			d.addrs.Delete(&d.base.addrs, loc)
		}
	}
	d.addrs.Delete(&d.base.addrs, perm)
	d.ues--
}

// alias gives an existing UE an extra LocIP (a §5.1 reserved old address).
func (d *snapshotDraft) alias(loc packet.Addr, perm packet.Addr) {
	if su, ok := d.ue(perm); ok {
		next := newSnapUE(su.ue, su.classifiers, su.locs, loc)
		d.rebind(su, next)
		d.set(loc, next)
	}
}

// mergeClassifiers replaces a UE's classifiers for the listed apps and
// sets their grants. A classifier arriving with Tag 0 is an explicit
// invalidation: the station's grant for its clause is withdrawn, so the
// next flow re-asks the controller (the Table 2 hit-ratio semantics).
func (d *snapshotDraft) mergeClassifiers(perm packet.Addr, classifiers []core.Classifier) {
	su, ok := d.ue(perm)
	if !ok {
		return
	}
	classes := su.classifiers
	classes.set(classifiers)
	d.rebind(su, newSnapUE(su.ue, classes, su.locs, su.ue.LocIP))
	for _, c := range classifiers {
		var tag packet.Tag // the clause's last non-zero tag, 0 for none
		for _, o := range classifiers {
			if o.Clause == c.Clause && o.Tag != 0 {
				tag = o.Tag
			}
		}
		d.setTag(c.Clause, tag)
	}
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
	if s.clashed {
		return fmt.Errorf("agent: snapshot v%d gives one address as a permanent address and as a LocIP", s.version)
	}
	var err error
	s.eachUE(func(su *snapUE) bool {
		switch {
		case su.ue.BS != a.BS:
			err = fmt.Errorf("agent: snapshot v%d places UE %s at bs%d, not bs%d",
				s.version, su.ue.IMSI, su.ue.BS, a.BS)
		case su.ue.LocIP == 0:
			err = fmt.Errorf("agent: snapshot v%d carries UE %s with no LocIP", s.version, su.ue.IMSI)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	for _, g := range s.tags {
		if g.tag == 0 || g.tag > a.plan.MaxTag() {
			return fmt.Errorf("agent: snapshot v%d grants clause %d unusable tag %d", s.version, g.clause, g.tag)
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

// derive publishes a local successor of the current LKG snapshot: start a
// draft of it, apply mutate (which copies only the index pages it writes),
// seal at version+1, and swap — retrying from the fresh state if a
// concurrent publication won the pointer. A draft mutate left clashed is
// dropped, and derive reports false.
func (a *Agent) derive(mutate func(d *snapshotDraft)) bool {
	for {
		cur := a.snap.Load()
		d := draftOf(cur)
		mutate(d)
		if d.clashed {
			return false
		}
		next := d.seal(cur.version + 1)
		if a.snap.CompareAndSwap(cur, next) {
			a.obs.version.Set(int64(next.version))
			return true
		}
	}
}

// reconcile walks the access switch's owned microflows, UE by UE, under
// the freshly published snapshot. Stale admits are replayed (reinstalled
// under the snapshot's tag) or torn down (path or UE withdrawn) — never
// silently dropped; every disposition is counted here and on the obs
// registry. A denial's drop entry goes too, uncounted, so the flow's next
// packet is classified again under the new state. Every entry that goes,
// goes in one switch write, before the replays. The switch, not the
// agent, holds the flows, so a restarted agent reconciles what its
// predecessor installed.
func (a *Agent) reconcile() ReconcileReport {
	snap := a.lkg()
	a.mu.Lock()
	defer a.mu.Unlock()
	type replay struct {
		su     *snapUE
		orig   packet.FlowKey
		tag    packet.Tag
		clause int
		qos    policy.QoS
	}
	var rep ReconcileReport
	var flows []switchsim.Microflow
	var gone []packet.FlowKey
	var replays []replay
	for _, perm := range a.Access.Owners(nil) {
		flows = a.Access.Owned(flows[:0], perm)
		su, ok := snap.ue(perm)
		if !ok {
			// Tombstoned UE: the snapshot no longer carries it, so its
			// microflows must not keep forwarding.
			for _, m := range flows {
				gone = append(gone, m.Key)
				if upstream(m) && !isDenial(m) {
					rep.TornDown++
				}
			}
			rep.UEsDropped++
			continue
		}
		for _, m := range flows {
			if isDenial(m) {
				gone = append(gone, m.Key)
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
			gone = append(gone, m.Key, m.Action.Rewritten(m.Key).Reverse())
			if ok {
				replays = append(replays, replay{su, m.Key, tag, clause, qos})
			} else {
				rep.TornDown++
			}
		}
	}
	if len(gone) > 0 {
		a.Access.WriteMicroflows(gone, nil)
	}
	for _, r := range replays {
		if a.installMicroflows(r.su, r.orig, r.tag, r.clause, r.qos) != nil {
			rep.TornDown++ // unembeddable replacement tag: counted, not hidden
		} else {
			rep.Replayed++
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
	su, ok := snap.ue(p.Src)
	if !ok {
		return Verdict{}
	}
	cl := su.classifiers.of(classifyApp(p))
	if !cl.allow {
		return Verdict{Known: true}
	}
	tag := snap.tag(int(cl.clause))
	if tag == 0 && !(a.plan.Carrier.Contains(p.Dst) || a.isLocalPerm(p.Dst)) {
		return Verdict{Known: true, Allowed: true, Pending: true}
	}
	return Verdict{Known: true, Allowed: true, Tag: tag}
}
