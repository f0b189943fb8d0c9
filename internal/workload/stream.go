package workload

import "math/rand"

// Stream is the §6.1 model itself: the seeded diurnal curve, station
// popularity weights and Poisson arrival/handoff/departure/bearer
// processes, emitted as concrete per-second events so a live control plane
// can be driven by them. Generate is one consumer: it tallies the same
// events into the Fig. 6 distributions.

// SecondEvents is one simulated second of workload, with stations named by
// dense index (the city benchmark maps index i to base-station ID i).
// Slices are reused across Next calls — consume before the next call.
type SecondEvents struct {
	Sec  int     // simulated second since the stream started
	Load float64 // diurnal load factor in (0, 1]

	// Arrivals holds the station index of each UE arrival this second.
	Arrivals []int
	// Handoffs holds [src, dst] station-index pairs; the model moves one
	// active UE from src to its ring neighbour dst. HandoffsDrawn is the
	// Poisson draw behind them — Fig. 6(a)'s handoff rate — which also
	// counts draws that found their source station empty and moved nobody.
	Handoffs      [][2]int
	HandoffsDrawn int
	// Departures holds the station index of each session end this second.
	Departures []int
	// Bearers[bs] is the number of radio-bearer arrivals at station bs
	// this second (each is one path/classifier request).
	Bearers []int
}

// Stream drives the workload model one simulated second at a time.
type Stream struct {
	p      Params
	rng    *rand.Rand
	smp    *sampler
	active []int
	sec    int
	ev     SecondEvents

	// Departure rates depend on a station's active count alone, bearer
	// rates also on the second's load.
	departures, bearers poissonMemo
}

// NewStream builds a stream over the default-filled parameters, seeded by
// p.Seed. The model's station populations start empty; call
// InitialPopulation to pre-populate to the diurnal steady state (and attach
// the same UEs in the system under test).
func NewStream(p Params) *Stream {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	s := &Stream{p: p, rng: rng, active: make([]int, p.Stations)}
	s.smp = newSampler(stationWeights(p.Stations, p.SkewSigma, rng))
	s.ev.Bearers = make([]int, p.Stations)
	return s
}

// Params returns the stream's effective (default-filled) parameters.
func (s *Stream) Params() Params { return s.p }

// InitialPopulation draws the warm-up population — the station index of
// each UE active at t=0, sized to the diurnal steady state — and installs
// it in the model. Call at most once, before the first Next.
func (s *Stream) InitialPopulation() []int {
	mean := int(s.p.PeakArrivalsPerSec * diurnal(s.p.StartSecond) * s.p.MeanSessionSeconds)
	out := make([]int, mean)
	for i := range out {
		bs := s.smp.draw(s.rng)
		s.active[bs]++
		out[i] = bs
	}
	return out
}

// Active reports the model's current active-UE count at a station.
func (s *Stream) Active(bs int) int { return s.active[bs] }

// Next advances the model one simulated second and returns its events.
// The returned struct (and its slices) are reused by the following call.
func (s *Stream) Next() *SecondEvents {
	ev := &s.ev
	ev.Sec = s.sec
	load := diurnal(s.p.StartSecond + s.sec)
	ev.Load = load
	ev.Arrivals = ev.Arrivals[:0]
	ev.Handoffs = ev.Handoffs[:0]
	ev.Departures = ev.Departures[:0]

	nArr := poisson(s.rng, s.p.PeakArrivalsPerSec*load)
	for i := 0; i < nArr; i++ {
		bs := s.smp.draw(s.rng)
		s.active[bs]++
		ev.Arrivals = append(ev.Arrivals, bs)
	}

	ev.HandoffsDrawn = poisson(s.rng, s.p.PeakHandoffsPerSec*load)
	for i := 0; i < ev.HandoffsDrawn; i++ {
		src := s.smp.draw(s.rng)
		if s.active[src] == 0 {
			continue
		}
		dst := (src + 1) % s.p.Stations
		s.active[src]--
		s.active[dst]++
		ev.Handoffs = append(ev.Handoffs, [2]int{src, dst})
	}

	pDep := 1 / s.p.MeanSessionSeconds
	s.bearers.reset()
	for bs := 0; bs < s.p.Stations; bs++ {
		if a := s.active[bs]; a > 0 {
			dep := s.departures.draw(s.rng, a, float64(a)*pDep)
			if dep > a {
				dep = a
			}
			s.active[bs] = a - dep
			for i := 0; i < dep; i++ {
				ev.Departures = append(ev.Departures, bs)
			}
		}
		a := s.active[bs]
		ev.Bearers[bs] = s.bearers.draw(s.rng, a, float64(a)*s.p.BearersPerUESec*load)
	}

	s.sec++
	return ev
}
