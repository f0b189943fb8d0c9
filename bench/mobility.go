package main

// e2e_mobility: the one run where control writes happen beside data-plane
// reads. Scripted UE sessions (netwl.go) are interleaved tick by tick on
// the 48-station network plant: in every tick some UEs attach, some open
// flows, some send established traffic, some hand off to a station served
// by other middlebox instances (and keep their old flows on the old
// instances), some release, some detach. UEs alternate gold and silver, so
// about half of all flows cross firewall (+ transcoder / echo canceller)
// and must take the slow path. core is used without the dispatcher.

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
)

const (
	// A round at --seconds 10: e2eStarts ticks start e2eCohort sessions
	// each; the round ends when the last session has detached and the
	// agents are flushed, so every round starts from the same tables.
	e2eStarts = 30
	e2eCohort = 4
	// Residents per station and flows per resident.
	e2eResidentUEs   = 4
	e2eResidentFlows = 4
)

// Four (burst of 32 up, block of 32 down) pairs per traffic step: packet
// forwarding is about a fifth of a round's time.
var e2eShape = sessionShape{flowsHome: 3, flowsAway: 2, burst: 32, downs: 32, reps: 4}

type e2eMobility struct {
	cfg runConfig
	reg *obs.Registry
	rec recorder

	plant     *netPlant
	residents [][]flow // per station; idle during the rounds
	mob       *mobility
	pool      int
}

func newE2EMobility(cfg runConfig, reg *obs.Registry, tr *tracer) *e2eMobility {
	return &e2eMobility{cfg: cfg, reg: reg, rec: recorder{tr: tr}}
}

func (w *e2eMobility) setup() error {
	p, err := newNetPlant(w.reg)
	if err != nil {
		return err
	}
	w.plant = p
	// The resident population: established flows that load the tables the
	// sessions' control ops rewrite and recompile.
	if w.residents, err = populate(p, "res", e2eResidentUEs, e2eResidentFlows, mixedPlan); err != nil {
		return err
	}
	// Every (station, clause) path warmed, as on the control plants: a new
	// flow costs an agent miss and a controller hit, not an Algorithm 1 run,
	// and the rule tables do not depend on which stations the seed visits.
	for bs := 0; bs < p.stations; bs++ {
		for _, c := range allowClauses(p.net.Ctrl.Policy) {
			if _, err := p.net.Ctrl.RequestPath(packet.BSID(bs), c); err != nil {
				return fmt.Errorf("warm bs %d clause %d: %w", bs, c, err)
			}
		}
	}
	if err := p.net.Sync(); err != nil {
		return err
	}
	p.enableFastPath()
	d, err := newNetDriver(p, &w.rec)
	if err != nil {
		return err
	}
	w.pool = w.cfg.scaled(e2eStarts, 1) * e2eCohort
	imsis, err := registerPool(p, "mob", w.pool, mixedPlan)
	if err != nil {
		return err
	}
	w.mob = newMobility(d, w.cfg.seed, e2eShape, imsis)
	sessions := (measuredRounds + 1) * w.pool
	w.rec.lat[latAttach] = make(samples, 0, sessions)
	w.rec.lat[latHandoff] = make(samples, 0, sessions)
	w.rec.lat[latFlow] = make(samples, 0, sessions*(e2eShape.flowsHome+e2eShape.flowsAway))
	return nil
}

// mixedPlan alternates gold and silver subscribers.
func mixedPlan(i int) string {
	if i%2 == 1 {
		return "silver"
	}
	return "gold"
}

func (w *e2eMobility) subscribers() int {
	return w.pool + w.plant.stations*e2eResidentUEs
}
func (w *e2eMobility) recorders() []*recorder { return []*recorder{&w.rec} }
func (w *e2eMobility) close()                 { w.plant.close() }
func (w *e2eMobility) ruleTable() (int, int)  { return w.plant.ruleTable() }

func (w *e2eMobility) round(warmup bool) (roundStat, error) {
	starts := w.cfg.scaled(e2eStarts, 1)
	if warmup {
		starts = (starts + 3) / 4
	}
	w.rec.tally = tally{}
	var rs roundStat
	m0 := mallocCount()
	start := clock()
	if err := w.mob.run(starts, e2eCohort); err != nil {
		return rs, err
	}
	rs.wallNS = clock() - start
	rs.mallocs = mallocCount() - m0
	rs.tally = w.rec.tally
	// ops_per_s: control ops per second of time inside the control calls,
	// as on city_churn. The packet rate of this workload is a per-layer
	// number (dataplane.up_pkts_per_s, dataplane.down_pkts_per_s), not the
	// gated one: the packet calls share the process with the collection of
	// the control ops' garbage, and how the two happen to overlap moves
	// their rate by a third from one build of the program to the next.
	rs.bulkOps, rs.bulkNS = rs.ctrlOps(), rs.ctrlNS()
	rs.allocOps = rs.ctrlOps() + rs.packets()
	return rs, nil
}

func (w *e2eMobility) verify() error {
	if n := len(w.mob.live); n != 0 {
		return fmt.Errorf("%d sessions still live at the end of the run", n)
	}
	return verifyNet(w.plant)
}

func (w *e2eMobility) layerInputs() layerInputs {
	return layerInputs{net: w.plant, flows: directFlows(w.residents), k: smallK, c: smallC,
		values: netLayerValues(w.plant, w.mob.d)}
}
