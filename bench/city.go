package main

// city_churn: the §6.1 LTE event stream applied, in event order and in
// process, to a sharded control plane sized like a city district. No wire,
// no agents, no data plane.

import (
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/workload"
)

const (
	citySubscribers    = 200_000   // at --seconds 10 and above; never below cityMinSubscribers
	cityMinSubscribers = 60_000    // the ~50k initially attached must fit
	cityStartSecond    = 19 * 3600 // the evening peak
	cityReleaseAfter   = 2         // sim-seconds a handoff's old LocIP stays reserved (§5.1 soft timeout)
	cityWarmupSimSecs  = 30
	// cityRoundSimSecs is a measured round at --seconds 10.
	cityRoundSimSecs = 60
)

type cityChurn struct {
	cfg runConfig
	reg *obs.Registry
	rec recorder

	plant  *ctrlPlant
	stream *workload.Stream
	// nextFresh is the first subscriber index that has never attached.
	nextFresh int
	releases  []release
	sec       int

	// crossHandoffs counts handoffs whose stations sit on different shards.
	crossHandoffs int64
}

func newCityChurn(cfg runConfig, reg *obs.Registry, tr *tracer) *cityChurn {
	return &cityChurn{cfg: cfg, reg: reg, rec: recorder{tr: tr}}
}

// cityStations is the plant's station count (C*K^3/4).
const cityStations = cityC * cityK * cityK * cityK / 4

// cityWorkloadParams scales the paper's network-wide rates (calibrated for
// ~1500 stations) to the plant, keeping per-station intensity, as cbench's
// city soak does.
func cityWorkloadParams(seed int64) workload.Params {
	scale := float64(cityStations) / 1500
	return workload.Params{
		Stations:           cityStations,
		StartSecond:        cityStartSecond,
		Seed:               seed,
		PeakArrivalsPerSec: 206 * scale,
		PeakHandoffsPerSec: 275 * scale,
	}
}

func (w *cityChurn) setup() error {
	w.stream = workload.NewStream(cityWorkloadParams(w.cfg.seed))
	initial := w.stream.InitialPopulation()
	p, err := newCtrlPlant(ctrlPlantSpec{k: cityK, c: cityC, subscribers: w.subscribers(), initial: initial, obs: w.reg})
	if err != nil {
		return err
	}
	w.plant = p
	w.nextFresh = p.attached
	// Pre-size the sample pools so measured rounds do not pay for growth.
	simSecs := measuredRounds*w.cfg.scaled(cityRoundSimSecs, 2) + cityWarmupSimSecs
	w.rec.lat[latAttach] = make(samples, 0, simSecs*80)
	w.rec.lat[latHandoff] = make(samples, 0, simSecs*100)
	w.rec.lat[latFlow] = make(samples, 0, simSecs*4500)
	return nil
}

func (w *cityChurn) subscribers() int {
	if w.cfg.seconds >= runSeconds {
		return citySubscribers
	}
	return w.cfg.scaled(citySubscribers, cityMinSubscribers)
}
func (w *cityChurn) recorders() []*recorder { return []*recorder{&w.rec} }
func (w *cityChurn) close()                 { w.plant.close() }
func (w *cityChurn) ruleTable() (int, int)  { return w.plant.ruleTable() }

func (w *cityChurn) round(warmup bool) (roundStat, error) {
	simSecs := w.cfg.scaled(cityRoundSimSecs, 2)
	if warmup {
		simSecs = w.cfg.scaled(cityWarmupSimSecs, 1)
	}
	w.rec.tally = tally{}
	var rs roundStat
	m0 := mallocCount()
	start := clock()
	for end := w.sec + simSecs; w.sec < end; w.sec++ {
		g0 := clock()
		ev := w.stream.Next()
		rs.genNS += clock() - g0
		w.applySecond(ev)
	}
	rs.wallNS = clock() - start
	rs.mallocs = mallocCount() - m0
	rs.tally = w.rec.tally
	// ops_per_s: control ops per second of time spent inside control calls.
	rs.bulkOps, rs.bulkNS, rs.allocOps = rs.ctrlOps(), rs.ctrlNS(), rs.ctrlOps()
	return rs, nil
}

// applySecond applies one simulated second of events in the stream's
// order: arrivals, handoffs, departures, bearers, then due releases.
func (w *cityChurn) applySecond(ev *workload.SecondEvents) {
	p, r, d := w.plant, &w.rec, w.plant.d

	for _, bs := range ev.Arrivals {
		// Arrivals are subscribers attaching for the first time in the run
		// (200k registered, ~50k attached: the pool outlasts any run), so
		// every attach does the same work; subscribers that were handed the
		// LIFO re-attach path instead made attach latency bimodal.
		if w.nextFresh == len(p.imsis) {
			continue // the whole population has attached
		}
		ue := w.nextFresh
		w.nextFresh++
		o, c := r.open(kAttach)
		_, _, err := d.Attach(p.imsis[ue], packet.BSID(bs))
		if r.done(&o, sShardAttach, c, 1, err) != nil {
			continue
		}
		p.attachedAt[bs] = append(p.attachedAt[bs], ue)
	}

	for _, ho := range ev.Handoffs {
		src, dst := ho[0], ho[1]
		l := p.attachedAt[src]
		if len(l) == 0 {
			continue // model and plant disagree; nothing to move
		}
		ue := l[len(l)-1]
		o, c := r.open(kHandoff)
		hr, err := d.Handoff(p.imsis[ue], packet.BSID(dst))
		if r.done(&o, sShardHandoff, c, 1, err) != nil {
			continue
		}
		p.attachedAt[src] = l[:len(l)-1]
		p.attachedAt[dst] = append(p.attachedAt[dst], ue)
		if s, err := d.ShardOf(packet.BSID(dst)); err == nil && hr.OldLocIP != 0 {
			if so, err := d.ShardOf(packet.BSID(src)); err == nil && so != s {
				w.crossHandoffs++
			} else {
				w.releases = append(w.releases, release{due: int64(w.sec + cityReleaseAfter), shard: s, oldLoc: hr.OldLocIP})
			}
		}
	}

	for _, bs := range ev.Departures {
		l := p.attachedAt[bs]
		if len(l) == 0 {
			continue
		}
		ue := l[len(l)-1]
		o, c := r.open(kDetach)
		if r.done(&o, sShardDetach, c, 1, d.Detach(p.imsis[ue])) != nil {
			continue
		}
		p.attachedAt[bs] = l[:len(l)-1]
	}

	for bs, n := range ev.Bearers {
		for i := 0; i < n; i++ {
			o, c := r.open(kFlow)
			_, err := d.RequestPath(packet.BSID(bs), p.clauses[(bs+i)%len(p.clauses)])
			if r.done(&o, sShardRequestPath, c, 1, err) != nil {
				continue
			}
		}
	}

	// The §5.1 soft timeouts due this sim-second.
	w.releases = r.expire(w.releases, int64(w.sec))
}

// verify drains the outstanding reservations so the plant is quiescent,
// then runs the dispatcher's cross-shard invariant sweep.
func (w *cityChurn) verify() error {
	w.releases = w.rec.expire(w.releases, int64(w.sec+cityReleaseAfter+1))
	_, err := w.plant.d.CheckInvariants()
	return err
}

func (w *cityChurn) layerInputs() layerInputs {
	in := layerInputs{ctrl: w.plant, k: cityK, c: cityC, values: map[string]float64{}}
	if h := len(w.rec.lat[latHandoff]); h > 0 {
		in.values["shard.cross_handoff_share"] = float64(w.crossHandoffs) / float64(h)
	}
	return in
}
