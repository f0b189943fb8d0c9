package workload

import (
	"math"
	"math/rand"
	"testing"
)

// quickParams simulates a shorter, peak-hour window so tests stay fast.
func quickParams(seed int64) Params {
	return Params{Stations: 300, Seconds: 1200, Seed: seed}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(quickParams(5))
	b := Generate(quickParams(5))
	if a.TotalArrivals != b.TotalArrivals || a.TotalHandoffs != b.TotalHandoffs ||
		a.TotalBearers != b.TotalBearers {
		t.Fatal("same seed must give identical totals")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(quickParams(1))
	b := Generate(quickParams(2))
	if a.TotalArrivals == b.TotalArrivals && a.TotalBearers == b.TotalBearers {
		t.Fatal("different seeds should differ")
	}
}

func TestDistributionsPopulated(t *testing.T) {
	r := Generate(quickParams(7))
	if len(r.ArrivalsPerSec.Samples()) != 1200 {
		t.Fatalf("arrival samples = %d", len(r.ArrivalsPerSec.Samples()))
	}
	if len(r.HandoffsPerSec.Samples()) != 1200 {
		t.Fatalf("handoff samples = %d", len(r.HandoffsPerSec.Samples()))
	}
	if len(r.BearersPerBSSec.Samples()) != 1200*300 {
		t.Fatalf("bearer samples = %d", len(r.BearersPerBSSec.Samples()))
	}
	if len(r.ActiveUEsPerBS.Samples()) != 20*300 {
		t.Fatalf("active samples = %d", len(r.ActiveUEsPerBS.Samples()))
	}
	if r.TotalArrivals == 0 || r.TotalBearers == 0 {
		t.Fatal("no activity generated")
	}
}

func TestDiurnalShape(t *testing.T) {
	night := diurnal(4 * 3600)
	noon := diurnal(12 * 3600)
	evening := diurnal(20 * 3600)
	if !(night < noon && noon < evening) {
		t.Fatalf("diurnal shape wrong: night=%.2f noon=%.2f evening=%.2f", night, noon, evening)
	}
	for s := 0; s < 86400; s += 600 {
		v := diurnal(s)
		if v <= 0 || v > 1 {
			t.Fatalf("diurnal(%d) = %f out of (0,1]", s, v)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, lambda := range []float64{0.5, 4, 40, 200} {
		n := 20000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(poisson(rng, lambda))
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(n)
		if math.Abs(mean-lambda) > 0.1*lambda+0.5 {
			t.Errorf("lambda=%v: mean=%v", lambda, mean)
		}
		variance := sumSq/float64(n) - mean*mean
		if math.Abs(variance-lambda) > 0.25*lambda+1 {
			t.Errorf("lambda=%v: var=%v", lambda, variance)
		}
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("non-positive lambda should give 0")
	}
}

func TestStationWeightsNormalised(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := stationWeights(500, 0.35, rng)
	var sum float64
	max := 0.0
	for _, v := range w {
		if v <= 0 {
			t.Fatal("non-positive weight")
		}
		sum += v
		if v > max {
			max = v
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	if max < 1.5/500 {
		t.Fatalf("no skew: max weight %v", max)
	}
	if max > 10.0/500 {
		t.Fatalf("too much skew: max weight %v", max)
	}
}

func TestSamplerMatchesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := []float64{0.5, 0.3, 0.2}
	s := newSampler(w)
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[s.draw(rng)]++
	}
	for i, want := range w {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("station %d: frequency %v, want %v", i, got, want)
		}
	}
}

// TestSamplerGuideFindsWhatAFullSearchFinds checks the guided pick against
// a binary search of the whole cumulative table, at random points and at
// every bucket boundary and its neighbouring floats.
func TestSamplerGuideFindsWhatAFullSearchFinds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 7, 384, 1500} {
		s := newSampler(stationWeights(n, 0.35, rng))
		full := func(x float64) int {
			lo, hi := 0, len(s.cum)-1
			for lo < hi {
				if mid := (lo + hi) / 2; s.cum[mid] < x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return lo
		}
		xs := []float64{0, math.Nextafter(1, 0)}
		for i := 0; i < 20000; i++ {
			xs = append(xs, rng.Float64())
		}
		for i := 0; i <= n; i++ {
			b := float64(i) / float64(n)
			xs = append(xs, math.Nextafter(b, 0), b, math.Nextafter(b, 1))
		}
		for _, c := range s.cum {
			xs = append(xs, math.Nextafter(c, 0), c, math.Nextafter(c, 1))
		}
		for _, x := range xs {
			if x < 0 || x >= 1 {
				continue
			}
			if got, want := s.pick(x), full(x); got != want {
				t.Fatalf("n=%d: pick(%v) = %d, a full search finds %d", n, x, got, want)
			}
		}
	}
}

// TestPoissonMemoDrawsWhatPoissonDraws checks that the memoised draws take
// the same variates from the same random stream as poisson, across resets
// and rates on both sides of the normal approximation.
func TestPoissonMemoDrawsWhatPoissonDraws(t *testing.T) {
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	var m poissonMemo
	for round := 0; round < 50; round++ {
		m.reset()
		scale := 0.05 + float64(round)*0.1
		for i := 0; i < 400; i++ {
			count := i % 97
			lambda := float64(count) * scale
			if got, want := m.draw(a, count, lambda), poisson(b, lambda); got != want {
				t.Fatalf("round %d, count %d: memo drew %d, poisson %d", round, count, got, want)
			}
		}
	}
}

func TestSkewProducesHotStations(t *testing.T) {
	r := Generate(quickParams(9))
	med := r.ActiveUEsPerBS.Quantile(0.5)
	hot := r.ActiveUEsPerBS.Quantile(0.999)
	if !(hot > 1.3*med) {
		t.Fatalf("expected mild skew: median=%v p99.9=%v", med, hot)
	}
}

func TestPaperScaleCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibration run")
	}
	// Two peak hours at full scale: the high quantiles should land in the
	// paper's ballpark (exactness is checked by the Fig. 6 bench run).
	r := Generate(Params{Stations: 1500, Seconds: 7200, StartSecond: 19 * 3600, Seed: 42})
	// Shift the window into the evening peak by reading the top quantiles.
	arr := r.ArrivalsPerSec.Quantile(0.99999)
	if arr < 30 || arr > 400 {
		t.Errorf("arrivals p99.999 = %v, out of plausible band", arr)
	}
	act := r.ActiveUEsPerBS.Quantile(1)
	if act < 100 || act > 1500 {
		t.Errorf("active max = %v, out of plausible band", act)
	}
	bear := r.BearersPerBSSec.Quantile(0.99999)
	if bear < 3 || bear > 120 {
		t.Errorf("bearers p99.999 = %v, out of plausible band", bear)
	}
	if tg := Targets(); tg.ArrivalsP99999 != 214 || tg.BearersP99999 != 34 {
		t.Error("paper targets changed")
	}
}
