// Package simexp drives the paper's large-scale simulations (§6.3, Fig. 7):
// it generates the synthetic three-layer topology, draws n random service
// policy clauses of length m, installs one policy path per (clause, base
// station) through the Algorithm 1 installer, and reports per-switch rule
// table occupancy.
package simexp

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/topo"
)

// Params configures one simulation point.
type Params struct {
	K           int // topology parameter (paper: 8 base case, up to 20)
	N           int // number of service policy clauses (paper: 1000 base)
	M           int // clause length in middleboxes (paper: 5 base)
	ClusterSize int // base stations per ring (paper: 10)
	Seed        int64

	// StationStride installs paths for the first 1/StationStride of the
	// base stations (default 1 = all), keeping the sampled stations
	// CONTIGUOUS so sibling-prefix aggregation behaves as at full scale.
	// The covered region's rule densities match a full run; switches
	// serving only unsampled stations hold just the shared location
	// tables.
	StationStride int

	// MaxCandidates bounds Algorithm 1's tag-candidate evaluation
	// (0 = paper-exact full candidate set).
	MaxCandidates int

	// Ablations (DESIGN.md §5).
	FreshTagPerPath     bool
	NoPrefixAggregation bool
	NoTagDefault        bool
	NoLocationRouting   bool

	// BothDirections also installs and counts upstream rules. The default
	// (false) counts downstream only, matching the paper's methodology
	// (Fig. 3: "rules for traffic arriving from the Internet").
	BothDirections bool

	// CountAccessSwitches includes software access switches in the reported
	// summary (off by default: Fig. 7 is about hardware TCAMs).
	CountAccessSwitches bool

	// Now, when set, supplies the timestamps behind Result.Elapsed (callers
	// that want wall-clock timing pass time.Now). The simulation itself is a
	// pure function of the other parameters; with Now nil, Elapsed stays
	// zero and no clock is read at all.
	Now func() time.Time
}

func (p Params) withDefaults() Params {
	if p.ClusterSize == 0 {
		p.ClusterSize = 10
	}
	if p.StationStride <= 0 {
		p.StationStride = 1
	}
	return p
}

// planFor picks an address plan wide enough for the topology's stations.
func planFor(numBS int) (packet.Plan, error) {
	bsBits := 1
	for 1<<bsBits < numBS {
		bsBits++
	}
	ueBits := 32 - 8 - bsBits
	if ueBits < 1 {
		return packet.Plan{}, fmt.Errorf("simexp: %d base stations exceed the address plan", numBS)
	}
	if ueBits > 12 {
		// Keep prefixes aligned with the default plan when possible.
		bsBits, ueBits = 12, 12
	}
	pl := packet.Plan{
		Carrier: packet.NewPrefix(packet.AddrFrom4(10, 0, 0, 0), 8),
		BSBits:  bsBits,
		UEBits:  ueBits,
		TagBits: 12,
	}
	return pl, pl.Validate()
}

// Result is one simulation row — exactly what one Fig. 7 point plots, plus
// diagnostics.
type Result struct {
	Params         Params
	BaseStations   int
	PathsInstalled uint64

	// Fig. 7 reports the maximum and median switch table size.
	Max    int
	Median int
	Mean   float64

	// Rule-type split (§7 multi-table discussion).
	TagPrefixRules int
	TagOnlyRules   int
	LocationRules  int

	TagsAllocated uint64
	LoopsSplit    uint64
	Elapsed       time.Duration
}

// String renders the row the way the experiment tables print it.
func (r Result) String() string {
	return fmt.Sprintf("k=%d n=%d m=%d bs=%d paths=%d max=%d median=%d mean=%.1f tags=%d (%.2fs)",
		r.Params.K, r.Params.N, r.Params.M, r.BaseStations, r.PathsInstalled,
		r.Max, r.Median, r.Mean, r.TagsAllocated, r.Elapsed.Seconds())
}

// randomChains draws n policy clauses: each is an ordered sequence of m
// middlebox instances chosen uniformly (one instance fixed per clause, as a
// deployed service chain would be), with no instance repeated back-to-back.
// Distinct types are preferred while m <= k, mirroring "k different types of
// middleboxes ... A policy path traverses m randomly chosen middlebox
// instances".
func randomChains(t *topo.Topology, n, m, k int, rng *rand.Rand) [][]topo.MBInstanceID {
	chains := make([][]topo.MBInstanceID, n)
	for c := range chains {
		chain := make([]topo.MBInstanceID, m)
		var types []topo.MBType
		if m <= k {
			perm := rng.Perm(k)[:m]
			types = make([]topo.MBType, m)
			for i, v := range perm {
				types[i] = topo.MBType(v)
			}
		} else {
			types = make([]topo.MBType, m)
			for i := range types {
				types[i] = topo.MBType(rng.Intn(k))
				for i > 0 && types[i] == types[i-1] {
					types[i] = topo.MBType(rng.Intn(k))
				}
			}
		}
		for i, typ := range types {
			insts := t.InstancesOf(typ)
			chain[i] = insts[rng.Intn(len(insts))]
			for i > 0 && chain[i] == chain[i-1] {
				chain[i] = insts[rng.Intn(len(insts))]
			}
		}
		chains[c] = chain
	}
	return chains
}

// Run executes one simulation point.
func Run(p Params) (Result, error) {
	p = p.withDefaults()
	now := p.Now
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	start := now()
	g, err := topo.Generate(topo.GenParams{K: p.K, ClusterSize: p.ClusterSize, MBTypes: p.K, Seed: p.Seed})
	if err != nil {
		return Result{}, err
	}
	plan, err := planFor(len(g.Stations))
	if err != nil {
		return Result{}, err
	}
	inst, err := core.NewInstaller(g.Topology, core.InstallerOptions{
		Plan:                  plan,
		MaxCandidates:         p.MaxCandidates,
		FreshTagPerPath:       p.FreshTagPerPath,
		NoPrefixAggregation:   p.NoPrefixAggregation,
		NoTagDefault:          p.NoTagDefault,
		NoLocationRouting:     p.NoLocationRouting,
		DownstreamOnly:        !p.BothDirections,
		SkipAccessSwitchRules: !p.CountAccessSwitches,
		// Rule-counting methodology: table sizes are the measured quantity,
		// so tag allocation is not bounded by the plan's encodable space
		// (the fresh-tag-per-path ablation alone exceeds any TagBits).
		UnboundedTags: true,
	})
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(p.Seed + 1))
	chains := randomChains(g.Topology, p.N, p.M, p.K, rng)
	planner := routing.NewPlanner(g.Topology)
	planner.LegacyTails = p.NoLocationRouting

	// Station-major iteration keeps the planner's reverse-walk cache hot.
	limit := len(g.Stations) / p.StationStride
	if limit < 1 {
		limit = 1
	}
	for s := 0; s < limit; s++ {
		bs := g.Stations[s].ID
		for _, chain := range chains {
			route, err := planner.PlanInstances(bs, chain, g.GatewayID)
			if err != nil {
				return Result{}, fmt.Errorf("simexp: plan bs%d: %w", bs, err)
			}
			if _, err := inst.InstallPath(route); err != nil {
				return Result{}, fmt.Errorf("simexp: install bs%d: %w", bs, err)
			}
		}
	}

	hw, sw := inst.TableSizes()
	summary := hw
	if p.CountAccessSwitches {
		summary.Merge(sw)
	}
	tp, to, loc, _ := inst.RuleTypeTotals()
	st := inst.Stats()
	return Result{
		Params:         p,
		BaseStations:   len(g.Stations),
		PathsInstalled: st.Paths,
		Max:            summary.Max(),
		Median:         summary.Median(),
		Mean:           summary.Mean(),
		TagPrefixRules: tp,
		TagOnlyRules:   to,
		LocationRules:  loc,
		TagsAllocated:  st.TagsAllocated,
		LoopsSplit:     st.LoopsSplit,
		Elapsed:        now().Sub(start),
	}, nil
}
