package main

// forward_plain: steady-state forwarding of established, middlebox-free
// flows on the 48-station network plant, where the burst fast path is
// eligible for every packet. One generator alternates, station by station,
// one upstream burst and a block of downstream return packets.
//
// No control op runs inside a forwarding phase. Because the driver's
// contract has every workload report every end-to-end metric, each round
// begins with a short population turnover (scripted sessions of a roaming
// gold cohort, see netwl.go) with the forwarding clock stopped: that is
// where this workload's attach / handoff / flow set-up latencies come
// from. ops_per_s and allocs_per_op cover the forwarding phase only.

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
)

const (
	fwdUEsPerStation = 8
	fwdFlowsPerUE    = 8 // 64 established flows per station, 3072 in all: the microflow working set
	fwdBurst         = 32
	// fwdRoundSweeps is the station sweeps of one forwarding phase at
	// --seconds 10; a sweep is one burst up and one block down per station.
	fwdRoundSweeps = 400
	// Turnover per round at --seconds 10: fwdTurnStarts ticks start
	// fwdTurnCohort sessions each.
	fwdTurnStarts = 25
	fwdTurnCohort = 4
)

var fwdTurnShape = sessionShape{flowsHome: 3, flowsAway: 2, burst: fwdBurst, downs: 8, reps: 1}

type forwardPlain struct {
	cfg runConfig
	reg *obs.Registry

	plant *netPlant
	fwd   recorder // forwarding phases
	turn  recorder // turnover phases
	d     *netDriver
	mob   *mobility

	flows    [][]flow // per station
	upCur    []int
	downCur  []int
	nStatic  int
	nRoaming int
}

func newForwardPlain(cfg runConfig, reg *obs.Registry, tr *tracer) *forwardPlain {
	return &forwardPlain{cfg: cfg, reg: reg, fwd: recorder{tr: tr}, turn: recorder{tr: tr}}
}

func goldPlan(int) string { return "gold" }

func (w *forwardPlain) setup() error {
	p, err := newNetPlant(w.reg)
	if err != nil {
		return err
	}
	w.plant = p
	w.nStatic = p.stations * fwdUEsPerStation
	if w.flows, err = populate(p, "fwd", fwdUEsPerStation, fwdFlowsPerUE, goldPlan); err != nil {
		return err
	}
	for bs := range w.flows {
		for i := range w.flows[bs] {
			if fl := &w.flows[bs][i]; len(fl.mbs) != 0 {
				return fmt.Errorf("gold flow %s crossed middleboxes %v", fl.up.Flow(), fl.mbs)
			}
		}
	}
	w.upCur, w.downCur = make([]int, p.stations), make([]int, p.stations)
	w.nRoaming = w.cfg.scaled(fwdTurnStarts, 1) * fwdTurnCohort
	roaming, err := registerPool(p, "roam", w.nRoaming, goldPlan)
	if err != nil {
		return err
	}
	// The static flows are in place: from here every packet can ride the
	// fast path.
	p.enableFastPath()
	if w.d, err = newNetDriver(p, &w.fwd); err != nil {
		return err
	}
	td, err := newNetDriver(p, &w.turn)
	if err != nil {
		return err
	}
	w.mob = newMobility(td, w.cfg.seed, fwdTurnShape, roaming)
	sessions := (measuredRounds + 1) * w.nRoaming
	w.turn.lat[latAttach] = make(samples, 0, sessions)
	w.turn.lat[latHandoff] = make(samples, 0, sessions)
	w.turn.lat[latFlow] = make(samples, 0, sessions*(fwdTurnShape.flowsHome+fwdTurnShape.flowsAway))
	return nil
}

func (w *forwardPlain) subscribers() int       { return w.nStatic + w.nRoaming }
func (w *forwardPlain) recorders() []*recorder { return []*recorder{&w.turn} }
func (w *forwardPlain) close()                 { w.plant.close() }
func (w *forwardPlain) ruleTable() (int, int)  { return w.plant.ruleTable() }

func (w *forwardPlain) round(warmup bool) (roundStat, error) {
	sweeps, starts := w.cfg.scaled(fwdRoundSweeps, 2), w.cfg.scaled(fwdTurnStarts, 1)
	if warmup {
		sweeps = (sweeps + 3) / 4
	}
	w.fwd.tally, w.turn.tally = tally{}, tally{}
	var rs roundStat
	start := clock()
	if err := w.mob.run(starts, fwdTurnCohort); err != nil {
		return rs, fmt.Errorf("turnover: %w", err)
	}
	m0 := mallocCount()
	for s := 0; s < sweeps; s++ {
		for bs := 0; bs < w.plant.stations; bs++ {
			if err := w.d.burstUp(packet.BSID(bs), w.flows[bs], &w.upCur[bs], fwdBurst, true); err != nil {
				return rs, err
			}
			if err := w.d.downBlock(packet.BSID(bs), w.flows[bs], &w.downCur[bs], fwdBurst); err != nil {
				return rs, err
			}
		}
	}
	rs.mallocs = mallocCount() - m0
	rs.wallNS = clock() - start
	rs.bulkOps, rs.bulkNS, rs.allocOps = w.fwd.packets(), w.fwd.packetNS(), w.fwd.packets()
	rs.tally = w.fwd.tally
	rs.tally.add(&w.turn.tally)
	return rs, nil
}

// verify: the controller's invariant sweep and zero middlebox violations;
// per-packet dispositions (and the fast-path flag) were asserted as the
// packets were sent.
func (w *forwardPlain) verify() error { return verifyNet(w.plant) }

func verifyNet(p *netPlant) error {
	if _, err := p.net.Ctrl.CheckInvariants(); err != nil {
		return err
	}
	if v, _ := p.net.MiddleboxStats(); v != 0 {
		return fmt.Errorf("%d middlebox policy-consistency violations", v)
	}
	return nil
}

func (w *forwardPlain) layerInputs() layerInputs {
	return layerInputs{net: w.plant, flows: w.flows, k: smallK, c: smallC,
		values: netLayerValues(w.plant, w.d, w.mob.d)}
}
