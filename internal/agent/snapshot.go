package agent

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/policy"
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

// Snapshot is the agent's versioned classifier state: per-UE classifiers,
// the station's admitted (clause -> tag) grants, and the controller's
// tag-plan epoch. It is immutable after publish — readers pick it up
// through one atomic pointer load and classify against that one consistent
// view, so a packet-in never observes half of an update. New states are
// whole replacement snapshots built by NewSnapshot (controller pushes) or
// derived copy-on-write from the current one (local admits), then swapped
// in by version: this is the last-known-good state the data plane keeps
// forwarding on through controller and shard blackouts.
type Snapshot struct {
	version uint64
	epoch   uint64
	ues     map[packet.Addr]*snapUE
	byLoc   map[packet.Addr]*snapUE // incl. reserved old-LocIP aliases (§5.1)
	tags    map[int]packet.Tag      // admitted policy paths: clause -> tag
}

// snapUE is one UE's share of a Snapshot. Instances are shared across
// snapshot generations and never mutated after construction; an update
// replaces the whole record.
type snapUE struct {
	ue          core.UE
	classifiers map[policy.AppType]core.Classifier
}

// Version reports the snapshot's publication version.
func (s *Snapshot) Version() uint64 { return s.version }

// Epoch reports the controller tag-plan epoch the snapshot was cut from.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumUEs reports how many UEs the snapshot carries.
func (s *Snapshot) NumUEs() int { return len(s.ues) }

// Tag reports the admitted tag for a policy clause, if any.
func (s *Snapshot) Tag(clause int) (packet.Tag, bool) {
	t, ok := s.tags[clause]
	return t, ok
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
// snapshot: the classifier's own pinned tag first, then the station-wide
// admitted-tag table. ok is false when the clause no longer admits traffic
// for the UE (classifier withdrawn or denied) or no tag is admitted.
func (s *Snapshot) pathFor(su *snapUE, clause int) (packet.Tag, policy.QoS, bool) {
	for _, cl := range su.classifiers {
		if cl.Clause != clause || !cl.Allow {
			continue
		}
		if cl.Tag != 0 {
			return cl.Tag, cl.QoS, true
		}
		if t, ok := s.tags[clause]; ok && t != 0 {
			return t, cl.QoS, true
		}
		return 0, cl.QoS, false
	}
	return 0, 0, false
}

// NewSnapshot builds a publishable snapshot from a controller's exported
// station view. version is assigned by the pusher and must exceed the
// receiving agent's current version to take effect (see Publish).
func NewSnapshot(version uint64, view core.AgentView) *Snapshot {
	d := newDraft(view.Epoch)
	for _, v := range view.UEs {
		d.putUE(v.UE, v.Classifiers)
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
	epoch uint64
	ues   map[packet.Addr]*snapUE
	byLoc map[packet.Addr]*snapUE
	tags  map[int]packet.Tag
}

func newDraft(epoch uint64) *snapshotDraft {
	return &snapshotDraft{
		epoch: epoch,
		ues:   make(map[packet.Addr]*snapUE),
		byLoc: make(map[packet.Addr]*snapUE),
		tags:  make(map[int]packet.Tag),
	}
}

// draftOf copies a snapshot's maps into a fresh draft (copy-on-write: the
// snapUE records themselves are shared, not copied).
func draftOf(s *Snapshot) *snapshotDraft {
	d := &snapshotDraft{
		epoch: s.epoch,
		ues:   make(map[packet.Addr]*snapUE, len(s.ues)+1),
		byLoc: make(map[packet.Addr]*snapUE, len(s.byLoc)+1),
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
		epoch:   d.epoch,
		ues:     d.ues,
		byLoc:   d.byLoc,
		tags:    d.tags,
	}
}

// putUE installs (or replaces) one UE record, repointing every location
// alias that referenced the UE's previous record so reserved old LocIPs
// keep resolving to fresh state.
func (d *snapshotDraft) putUE(ue core.UE, classifiers []core.Classifier) {
	cls := make(map[policy.AppType]core.Classifier, len(classifiers))
	for _, c := range classifiers {
		cls[c.App] = c
	}
	su := &snapUE{ue: ue, classifiers: cls}
	d.ues[ue.PermIP] = su
	for loc, old := range d.byLoc {
		if old.ue.PermIP == ue.PermIP {
			d.byLoc[loc] = su
		}
	}
	d.byLoc[ue.LocIP] = su
}

// removeUE drops one UE record and every location alias pointing at it.
func (d *snapshotDraft) removeUE(perm packet.Addr) {
	delete(d.ues, perm)
	for loc, su := range d.byLoc {
		if su.ue.PermIP == perm {
			delete(d.byLoc, loc)
		}
	}
}

// alias maps an extra LocIP (a §5.1 reserved old address) to an existing
// UE record. It reports whether the UE exists.
func (d *snapshotDraft) alias(loc packet.Addr, perm packet.Addr) bool {
	su, ok := d.ues[perm]
	if !ok {
		return false
	}
	d.byLoc[loc] = su
	return true
}

// mergeClassifiers replaces a UE's classifiers for the listed apps. A
// classifier arriving with Tag 0 is an explicit invalidation: any admitted
// station-wide tag for its clause is withdrawn, so the next flow re-asks
// the controller (the Table 2 hit-ratio semantics).
func (d *snapshotDraft) mergeClassifiers(perm packet.Addr, classifiers []core.Classifier) bool {
	su, ok := d.ues[perm]
	if !ok {
		return false
	}
	cls := make(map[policy.AppType]core.Classifier, len(su.classifiers)+len(classifiers))
	for k, v := range su.classifiers {
		cls[k] = v
	}
	for _, c := range classifiers {
		cls[c.App] = c
		if c.Tag == 0 {
			delete(d.tags, c.Clause)
		}
	}
	next := &snapUE{ue: su.ue, classifiers: cls}
	d.ues[perm] = next
	for loc, old := range d.byLoc {
		if old.ue.PermIP == perm {
			d.byLoc[loc] = next
		}
	}
	return true
}

// ReconcileReport accounts for what a newly published snapshot did to the
// agent's live microflow state: nothing is ever silently dropped — every
// tagged flow is either kept, replayed onto the snapshot's current tag, or
// torn down because the snapshot withdrew its path or its UE.
type ReconcileReport struct {
	Kept       int // flows whose tag the snapshot confirms
	Replayed   int // flows reinstalled under a changed tag
	TornDown   int // flows removed: path or classifier withdrawn, or UE gone
	UEsDropped int // UEs tombstoned by the snapshot whose flow state was discarded
}

// lkg returns the agent's current last-known-good snapshot (never nil).
func (a *Agent) lkg() *Snapshot { return a.snap.Load() }

// Version reports the current LKG snapshot version. It survives Restart.
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

// reconcile walks the agent's live flow book under the freshly published
// snapshot. Stale admits are replayed (reinstalled under the snapshot's
// tag) or torn down (path or UE withdrawn) — never silently dropped; every
// disposition is counted here and on the obs registry.
func (a *Agent) reconcile() ReconcileReport {
	snap := a.lkg()
	a.mu.Lock()
	defer a.mu.Unlock()
	var rep ReconcileReport
	for perm, uf := range a.flows {
		su, ok := snap.ues[perm]
		if !ok {
			// Tombstoned UE: the snapshot no longer carries it, so its
			// microflows must not keep forwarding.
			for _, f := range uf.flows {
				a.Access.RemoveMicroflow(f.orig)
				a.Access.RemoveMicroflow(f.rewritten.Reverse())
			}
			rep.TornDown += len(uf.flows)
			rep.UEsDropped++
			delete(a.flows, perm)
			continue
		}
		for orig, f := range uf.flows {
			if f.tag == 0 {
				continue // M2M and location-routed flows carry no tag to reconcile
			}
			tag, qos, ok := snap.pathFor(su, f.clause)
			switch {
			case !ok:
				a.Access.RemoveMicroflow(f.orig)
				a.Access.RemoveMicroflow(f.rewritten.Reverse())
				uf.drop(f)
				rep.TornDown++
			case tag != f.tag:
				a.Access.RemoveMicroflow(f.orig)
				a.Access.RemoveMicroflow(f.rewritten.Reverse())
				uf.drop(f)
				if err := a.installMicroflows(su, uf, orig, tag, f.clause, qos); err != nil {
					rep.TornDown++ // unembeddable replacement tag: counted, not hidden
				} else {
					rep.Replayed++
				}
			default:
				rep.Kept++
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
	cl, ok := su.classifiers[classifyApp(p)]
	if !ok || !cl.Allow {
		return Verdict{Known: true}
	}
	tag := cl.Tag
	if tag == 0 {
		tag = snap.tags[cl.Clause]
	}
	if tag == 0 && !(a.plan.Carrier.Contains(p.Dst) || a.isLocalPerm(p.Dst)) {
		return Verdict{Known: true, Allowed: true, Pending: true}
	}
	return Verdict{Known: true, Allowed: true, Tag: tag}
}
