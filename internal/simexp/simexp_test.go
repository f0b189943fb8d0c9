package simexp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// small is a fast configuration exercising the full pipeline.
func small() Params { return Params{K: 4, N: 20, M: 3, Seed: 1} }

func TestRunBasics(t *testing.T) {
	r, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	if r.BaseStations != 160 {
		t.Fatalf("base stations = %d", r.BaseStations)
	}
	if r.PathsInstalled != uint64(160*20) {
		t.Fatalf("paths = %d", r.PathsInstalled)
	}
	if r.Max < r.Median || r.Max == 0 {
		t.Fatalf("max=%d median=%d", r.Max, r.Median)
	}
	if r.String() == "" {
		t.Fatal("empty string")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	if a.Max != b.Max || a.Median != b.Median || a.TagsAllocated != b.TagsAllocated {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestRunScalesLinearlyInN(t *testing.T) {
	small1, err := Run(Params{K: 4, N: 10, M: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(Params{K: 4, N: 40, M: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(big.Mean) / float64(small1.Mean)
	if ratio < 2 || ratio > 8 {
		t.Fatalf("mean grew %.1fx for 4x clauses (want roughly linear)", ratio)
	}
}

func TestStationStrideReducesWork(t *testing.T) {
	full, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	p := small()
	p.StationStride = 4
	quarter, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if quarter.PathsInstalled*4 != full.PathsInstalled {
		t.Fatalf("stride 4: %d paths vs %d", quarter.PathsInstalled, full.PathsInstalled)
	}
}

func TestBothDirectionsCostMore(t *testing.T) {
	down, err := Run(small())
	if err != nil {
		t.Fatal(err)
	}
	p := small()
	p.BothDirections = true
	both, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if both.Mean <= down.Mean {
		t.Fatalf("both-direction install should cost more: %v vs %v", both.Mean, down.Mean)
	}
}

func TestAblationsOrdering(t *testing.T) {
	var rs []AblationResult
	if err := Ablations(small(), func(r AblationResult) { rs = append(rs, r) }); err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("ablation count = %d", len(rs))
	}
	full := rs[0]
	if full.Name != "full" {
		t.Fatalf("first ablation = %s", full.Name)
	}
	for _, r := range rs[1:] {
		// At this tiny n the no-location ablation can edge out the full
		// design (the bootstrapped location table is a constant overhead
		// that pays off as n grows — the n=1000 ablation run in
		// EXPERIMENTS.md shows the crossover); everything else must lose
		// outright even here.
		slack := full.Mean * 0.99
		if r.Name == "no-location-routing" {
			slack = full.Mean * 0.7
		}
		if r.Mean < slack {
			t.Errorf("%s should not beat the full design: %.1f vs %.1f", r.Name, r.Mean, full.Mean)
		}
	}
}

func TestRandomChainsNoImmediateRepeats(t *testing.T) {
	g, err := topo.Generate(topo.GenParams{K: 4, ClusterSize: 10, MBTypes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	chains := randomChains(g.Topology, 50, 7, 4, newTestRng())
	for _, ch := range chains {
		if len(ch) != 7 {
			t.Fatalf("chain length %d", len(ch))
		}
		for i := 1; i < len(ch); i++ {
			if ch[i] == ch[i-1] {
				t.Fatalf("immediate repeat in %v", ch)
			}
		}
	}
	// m <= k uses distinct types throughout.
	chains = randomChains(g.Topology, 50, 4, 4, newTestRng())
	for _, ch := range chains {
		seen := map[topo.MBType]bool{}
		for _, inst := range ch {
			typ := g.Instance(inst).Type
			if seen[typ] {
				t.Fatalf("type repeated in %v", ch)
			}
			seen[typ] = true
		}
	}
}

func TestPlanForSizes(t *testing.T) {
	for _, bs := range []int{160, 1280, 20000} {
		pl, err := planFor(bs)
		if err != nil {
			t.Fatal(err)
		}
		if int(pl.MaxBS())+1 < bs {
			t.Fatalf("plan for %d stations holds only %d", bs, pl.MaxBS()+1)
		}
	}
	if _, err := planFor(1 << 25); err == nil {
		t.Fatal("absurd station count should fail")
	}
}

func TestSweepDriversScaleDown(t *testing.T) {
	count := 0
	if err := Fig7b(SweepOptions{Seed: 1, Scale: 100}, func(r Result) {
		count++
		if r.PathsInstalled == 0 {
			t.Error("empty sweep point")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if count != len(Fig7bPoints) {
		t.Fatalf("points = %d", count)
	}
}

func newTestRng() *rand.Rand { return rand.New(rand.NewSource(9)) }

// TestGoldenRuleCounts pins Algorithm 1's output on one fixed point, recorded
// at commit 3aeb1fa. TestRunDeterministic only compares a run with itself;
// this catches a change of representation that changes what gets installed.
func TestGoldenRuleCounts(t *testing.T) {
	type golden struct {
		stations, max, median int
		paths, tags, loops    uint64
		mean                  string
		tagPrefix, tagOnly    int
		location              int
	}
	for _, tc := range []struct {
		name string
		p    Params
		want golden
	}{
		{"downstream", Params{K: 4, N: 200, M: 4, Seed: 1},
			golden{stations: 160, max: 1629, median: 494, paths: 32000, tags: 278, loops: 7280,
				mean: "498.21", tagPrefix: 13094, tagOnly: 2453, location: 894}},
		{"both directions, access switches counted",
			Params{K: 4, N: 200, M: 4, Seed: 1, BothDirections: true, CountAccessSwitches: true},
			golden{stations: 160, max: 3590, median: 4, paths: 32000, tags: 342, loops: 7280,
				mean: "181.66", tagPrefix: 26942, tagOnly: 6473, location: 942}},
	} {
		r, err := Run(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := golden{r.BaseStations, r.Max, r.Median, r.PathsInstalled, r.TagsAllocated, r.LoopsSplit,
			fmt.Sprintf("%.2f", r.Mean), r.TagPrefixRules, r.TagOnlyRules, r.LocationRules}
		if got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
