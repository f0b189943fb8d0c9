// Package workload synthesises the LTE control-plane workload of §6.1.
//
// The paper measured one week of bearer-level traces from a large ISP's LTE
// network (≈1500 base stations, ≈1M devices) — data we cannot obtain. Per
// DESIGN.md's substitution policy, this generator reproduces the *published
// aggregate characteristics* the paper derives from that trace:
//
//	Fig. 6(a): network-wide UE arrivals and handoffs per second
//	           (99.999-pct ≈ 214 and 280);
//	Fig. 6(b): active UEs per base station (99.999-pct ≈ 514);
//	Fig. 6(c): radio-bearer arrivals per second per base station
//	           (99.999-pct ≈ 34).
//
// The model: a diurnal load curve modulates Poisson arrival/handoff
// processes; stations draw popularity weights from a Zipf-like law (cities
// have hot cells); sessions end geometrically; bearer arrivals are Poisson
// in the per-station active-UE count. Everything is seeded and deterministic.
package workload

import (
	"math"
	"math/rand"

	"repro/internal/metrics"
)

// Params configures the generator. Zero values take the paper-calibrated
// defaults.
type Params struct {
	Stations int // default 1500
	Seconds  int // simulated wall-clock seconds; default 86400 (one day)
	// StartSecond offsets the diurnal clock (0 = midnight). Short windows
	// should start near the evening peak (e.g. 18*3600) to observe the
	// high quantiles a full day would.
	StartSecond int
	Seed        int64

	// PeakArrivalsPerSec is the diurnal peak of the network-wide UE-arrival
	// Poisson rate (default 206, calibrated so the observed 99.999-pct over
	// a day lands near the paper's 214).
	PeakArrivalsPerSec float64
	// PeakHandoffsPerSec likewise for handoffs (default 275 → ≈280).
	PeakHandoffsPerSec float64
	// MeanSessionSeconds is the average attachment lifetime (default 1300).
	MeanSessionSeconds float64
	// BearersPerUESec is the per-active-UE radio-bearer arrival rate
	// (default 0.062: a handful of concurrent flows with multi-second
	// bearer timeouts, per the paper's [25,26] discussion).
	BearersPerUESec float64
	// SkewSigma is the lognormal sigma of station popularity (default
	// 0.35): real cells differ, but the paper's per-station distribution is
	// only mildly skewed (99.999-pct ≈ 2-3x the typical station).
	SkewSigma float64
}

func (p Params) withDefaults() Params {
	if p.Stations == 0 {
		p.Stations = 1500
	}
	if p.Seconds == 0 {
		p.Seconds = 86400
	}
	if p.PeakArrivalsPerSec == 0 {
		p.PeakArrivalsPerSec = 206
	}
	if p.PeakHandoffsPerSec == 0 {
		p.PeakHandoffsPerSec = 275
	}
	if p.MeanSessionSeconds == 0 {
		p.MeanSessionSeconds = 1300
	}
	if p.BearersPerUESec == 0 {
		p.BearersPerUESec = 0.062
	}
	if p.SkewSigma == 0 {
		p.SkewSigma = 0.35
	}
	return p
}

// Result carries the three Fig. 6 distributions plus totals.
type Result struct {
	Params Params

	// Fig. 6(a): per-second network-wide counts.
	ArrivalsPerSec metrics.CDF
	HandoffsPerSec metrics.CDF
	// Fig. 6(b): per-(station, sample) active-UE counts (sampled each
	// simulated minute, like a periodic poll of every station).
	ActiveUEsPerBS metrics.CDF
	// Fig. 6(c): per-(station, second) bearer arrivals.
	BearersPerBSSec metrics.CDF

	TotalArrivals uint64
	TotalHandoffs uint64
	TotalBearers  uint64
	PeakActive    int
}

// diurnal is the load curve: a day shaped like real cellular load — a deep
// night trough, a morning ramp, and an evening peak with bursts.
func diurnal(sec int) float64 {
	h := float64(sec%86400) / 3600
	base := 0.25 +
		0.45*math.Exp(-((h-12.5)*(h-12.5))/18) + // daytime bulge
		0.55*math.Exp(-((h-20)*(h-20))/4.5) // evening peak
	if base > 1 {
		base = 1
	}
	return base
}

// poisson draws a Poisson variate (Knuth for small lambda, normal
// approximation above 64 — adequate for aggregate-rate simulation).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	return knuth(rng, math.Exp(-lambda))
}

// knuth draws a Poisson variate of mean -ln(l) as Knuth does: the number of
// uniforms whose running product stays above l.
func knuth(rng *rand.Rand, l float64) int {
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonMemo draws Poisson variates whose rate is a function of a small
// count (a station's active UEs) until the next reset, computing each
// count's exponential once: most stations share their count with another.
// It draws exactly what poisson draws.
type poissonMemo struct {
	gen   uint32    // resets so far
	stamp []uint32  // stamp[a] == gen+1: l[a] is current
	l     []float64 // l[a] = exp(-lambda) for count a
}

// reset forgets every cached exponential: the rate function changed.
func (m *poissonMemo) reset() { m.gen++ }

// draw is poisson(rng, lambda), where lambda is the rate function's value
// at count a.
func (m *poissonMemo) draw(rng *rand.Rand, a int, lambda float64) int {
	if lambda <= 0 || lambda > 64 {
		return poisson(rng, lambda)
	}
	if a >= len(m.l) {
		m.l = append(m.l, make([]float64, a+1-len(m.l))...)
		m.stamp = append(m.stamp, make([]uint32, a+1-len(m.stamp))...)
	}
	if m.stamp[a] != m.gen+1 {
		m.stamp[a], m.l[a] = m.gen+1, math.Exp(-lambda)
	}
	return knuth(rng, m.l[a])
}

// stationWeights builds normalised lognormal popularity weights: mildly
// skewed, matching the paper's narrow spread between the typical and the
// busiest station.
func stationWeights(n int, sigma float64, rng *rand.Rand) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Exp(sigma * rng.NormFloat64())
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// sampler draws station indices proportionally to weights via the alias-free
// cumulative method with binary search. A guide table narrows the search to
// the few entries around the draw; it finds what a search of the whole
// table finds.
type sampler struct {
	cum   []float64
	guide []int // guide[i]: the first index whose cumulative weight reaches i/len(cum)
}

func newSampler(w []float64) *sampler {
	cum := make([]float64, len(w))
	var acc float64
	for i, v := range w {
		acc += v
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	guide := make([]int, len(cum)+1)
	j := 0
	for i := range guide {
		for t := float64(i) / float64(len(cum)); cum[j] < t; {
			j++
		}
		guide[i] = j
	}
	return &sampler{cum: cum, guide: guide}
}

func (s *sampler) draw(rng *rand.Rand) int { return s.pick(rng.Float64()) }

// pick returns the first index whose cumulative weight reaches x, for x in
// [0, 1). The answer lies between the guide entries one bucket either side
// of x's: rounding in x*n or i/n moves a boundary by far less than that.
func (s *sampler) pick(x float64) int {
	n := len(s.cum)
	i := min(int(x*float64(n)), n-1)
	lo, hi := s.guide[max(i-1, 0)], s.guide[min(i+2, n)]
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Generate runs the model for p.Seconds and returns the Fig. 6
// distributions. It is a Stream consumer: the stream draws the events, this
// loop only tallies them.
func Generate(p Params) *Result {
	s := NewStream(p)
	p = s.Params()
	res := &Result{Params: p}
	s.InitialPopulation()
	for sec := 0; sec < p.Seconds; sec++ {
		ev := s.Next()
		res.ArrivalsPerSec.Add(float64(len(ev.Arrivals)))
		res.TotalArrivals += uint64(len(ev.Arrivals))
		res.HandoffsPerSec.Add(float64(ev.HandoffsDrawn))
		res.TotalHandoffs += uint64(ev.HandoffsDrawn)
		for bs, nb := range ev.Bearers {
			res.BearersPerBSSec.Add(float64(nb))
			res.TotalBearers += uint64(nb)
			if a := s.Active(bs); a > res.PeakActive {
				res.PeakActive = a
			}
			// Sample the per-station population once a simulated minute.
			if sec%60 == 0 {
				res.ActiveUEsPerBS.Add(float64(s.Active(bs)))
			}
		}
	}
	return res
}

// PaperTargets are the percentile values §6.1 reports; EXPERIMENTS.md
// compares the generator against them.
type PaperTargets struct {
	ArrivalsP99999 float64 // 214
	HandoffsP99999 float64 // 280
	ActiveP99999   float64 // 514
	BearersP99999  float64 // 34
}

// Targets returns the paper's numbers.
func Targets() PaperTargets {
	return PaperTargets{ArrivalsP99999: 214, HandoffsP99999: 280, ActiveP99999: 514, BearersP99999: 34}
}
