// City-scale soak benchmark (DESIGN.md §14): the §6.1 workload generator
// drives a sharded control plane sized like the paper's measured network —
// ~1500 base stations and a ~1M-subscriber population — for minutes of
// sustained arrival/handoff/bearer churn, and the report answers the
// memory question directly: live-heap bytes per subscriber under the
// struct-of-arrays layout (EXPERIMENTS.md records the 2.33x it saved over
// the pointer-and-maps layout it replaced).
package cbench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/plant"
	"repro/internal/policy"
	"repro/internal/shard"
	"repro/internal/topo"
	"repro/internal/workload"
)

// CityOptions configure the city soak.
type CityOptions struct {
	// Stations is the base-station count; it must be expressible as
	// C·K³/4 for the topology generator (default 1536 = K=8, C=12 — the
	// closest generator point to the paper's ≈1500).
	Stations int
	// Shards is the control-plane partition width (default 4).
	Shards int
	// UEs is the subscriber population (default 1,000,000). The attached
	// population at any instant follows the workload model (§6.1: ~220K at
	// the evening peak); the rest are registered subscribers between
	// sessions.
	UEs int
	// SimSeconds is the minimum number of simulated workload seconds to
	// soak (default 300).
	SimSeconds int
	// MinWall keeps the soak looping (whole simulated seconds) until this
	// much wall clock has elapsed, whichever of SimSeconds/MinWall is
	// longer (default 0 — SimSeconds alone bounds the run).
	MinWall time.Duration
	// StartSecond is the diurnal clock offset (default 19h — the evening
	// peak, so short soaks see the high quantiles).
	StartSecond int
	Seed        int64
	// ReleaseAfter delays each handoff's old-LocIP release by this many
	// simulated seconds (default 2), modelling the §5.1 soft timeout.
	ReleaseAfter int
	// Obs instruments the stack under test; the final MemStats snapshot
	// also refreshes each shard's core.mem.* gauges.
	Obs *obs.Registry
}

func (o CityOptions) withDefaults() CityOptions {
	if o.Stations <= 0 {
		o.Stations = 1536
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.UEs <= 0 {
		o.UEs = 1_000_000
	}
	if o.SimSeconds <= 0 {
		o.SimSeconds = 300
	}
	if o.StartSecond == 0 {
		o.StartSecond = 19 * 3600
	}
	if o.ReleaseAfter <= 0 {
		o.ReleaseAfter = 2
	}
	return o
}

// workloadParams scales the paper's network-wide rates (calibrated for
// ~1500 stations / ~1M subscribers) to the configured population, so a
// scaled-down smoke run keeps the same per-station intensity.
func (o CityOptions) workloadParams() workload.Params {
	scale := float64(o.Stations) / 1500
	return workload.Params{
		Stations:           o.Stations,
		StartSecond:        o.StartSecond,
		Seed:               o.Seed,
		PeakArrivalsPerSec: 206 * scale,
		PeakHandoffsPerSec: 275 * scale,
	}
}

// cityTopoParams maps a station count onto generator parameters: the
// largest K in {8, 4, 2} whose K³/4 divides the count. 1536 → K=8 C=12;
// the smoke point 48 → K=4 C=3.
func cityTopoParams(stations int) (topo.GenParams, error) {
	for _, k := range []int{8, 4, 2} {
		rings := k * k / 2 * k / 2
		if stations >= rings && stations%rings == 0 {
			return topo.GenParams{K: k, ClusterSize: stations / rings, MBTypes: 3, Seed: 1}, nil
		}
	}
	return topo.GenParams{}, fmt.Errorf(
		"cbench: %d stations is not C·K³/4 for K in {8,4,2}; try 1536 (city) or 48 (smoke)", stations)
}

// ValidateCity checks, before anything is built, that the configured
// shard count and population fit the address plan's sub-spaces — turning
// what would be a mid-soak allocator failure into an immediate, explicit
// error naming the flag to change.
func ValidateCity(o CityOptions) error {
	o = o.withDefaults()
	if _, err := cityTopoParams(o.Stations); err != nil {
		return err
	}
	if err := plant.CheckTagCapacity(o.Shards); err != nil {
		return fmt.Errorf("cbench: -shards %d: %w", o.Shards, err)
	}

	// Per-station UE-ID sub-space: the workload's attached population
	// concentrates on popular stations; demand 4× the mean concurrent
	// per-station load (Fig. 6(b)'s tail is ≈3× the typical station).
	wp := o.workloadParams()
	concurrent := int(wp.PeakArrivalsPerSec * wp.MeanSessionSeconds)
	if concurrent > o.UEs {
		concurrent = o.UEs
	}
	ueCap := 1<<plant.PlanFor(o.Shards).UEBits - 1
	if need := 4 * (concurrent/o.Stations + 1); ueCap < need {
		return fmt.Errorf(
			"cbench: -ues %d across %d stations peaks near %d attached per popular station, but the plan encodes only %d UE IDs per station; lower -ues or raise -stations",
			o.UEs, o.Stations, need, ueCap)
	}

	// Permanent addresses: one per subscriber that ever attaches, all from
	// the subscriber table's one pool, whatever the shard count.
	if permCap := 1<<(32-10) - 1; permCap < o.UEs { // 100.64.0.0/10
		return fmt.Errorf("cbench: -ues %d needs as many permanent IPs, but 100.64.0.0/10 holds %d; lower -ues", o.UEs, permCap)
	}
	return nil
}

// CityResult is the BENCH_city.json payload.
type CityResult struct {
	// Configuration.
	Stations   int   `json:"stations"`
	Shards     int   `json:"shards"`
	UEs        int   `json:"ues"`
	Seed       int64 `json:"seed"`
	SimSeconds int   `json:"sim_seconds"` // simulated seconds actually soaked

	// Load phase: registering the population and attaching the initial
	// steady-state population.
	Registered    int     `json:"registered"`
	InitialAttach int     `json:"initial_attached"`
	LoadWallMS    int64   `json:"load_wall_ms"`
	LoadOpsPerSec float64 `json:"load_ops_per_sec"`

	// Soak phase: sustained churn, measured in wall time.
	SoakWallMS     int64   `json:"soak_wall_ms"`
	Arrivals       uint64  `json:"arrivals"`
	Handoffs       uint64  `json:"handoffs"`
	Departures     uint64  `json:"departures"`
	Bearers        uint64  `json:"bearers"`
	Releases       uint64  `json:"releases"`
	OpErrors       uint64  `json:"op_errors"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	ArrivalsPerSec float64 `json:"arrivals_per_sec"`
	HandoffsPerSec float64 `json:"handoffs_per_sec"`

	// Handoff completion latency over the soak (nanoseconds).
	HandoffP50NS float64 `json:"handoff_p50_ns"`
	HandoffP99NS float64 `json:"handoff_p99_ns"`
	HandoffMaxNS float64 `json:"handoff_max_ns"`

	// Rule-table occupancy at the end of the soak (hardware switches).
	RuleTableMax    int `json:"rule_table_max"`
	RuleTableMedian int `json:"rule_table_median"`
	RuleTableTotal  int `json:"rule_table_total"`

	// Memory: GC-settled live-heap growth across the load phase, divided
	// by the registered population. AttachedBytesPerUE charges the whole
	// delta to the concurrently-attached population instead (the paper's
	// ~220K). BytesPerUE covers the whole fleet: the one shared
	// subscriber table with its replicated store, plus every shard's own
	// UE records and the policy-path documents of its store.
	LiveHeapBytes      uint64  `json:"live_heap_bytes"`
	BytesPerUE         float64 `json:"bytes_per_ue"`
	AttachedBytesPerUE float64 `json:"bytes_per_attached_ue"`

	// GC behaviour across the soak window.
	GCCount        uint32  `json:"gc_count"`
	GCPauseTotalMS float64 `json:"gc_pause_total_ms"`
	GCPauseMaxMS   float64 `json:"gc_pause_max_ms"`

	// Controller-internal accounting, aggregated across shards.
	Mem core.MemStats `json:"mem"`

	// Attribution is the per-layer critical-path waterfall over the soak's
	// sampled traces (DESIGN.md §16): handoffs root an e2e.handoff span
	// around exactly the region the latency CDF times, so within every
	// complete trace the segment self-times sum to the measured end-to-end
	// latency. Absent when the soak ran uninstrumented.
	Attribution *obs.Attribution `json:"attribution,omitempty"`
}

// liveHeap returns the GC-settled live-heap size.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// cityAttr draws a subscriber's attributes from a small set of profiles —
// a real carrier's population clusters onto far fewer distinct attribute
// combinations than it has subscribers, which is what makes the intern
// pool pay.
func cityAttr(i int) policy.Attributes {
	providers := [4]string{"carrier-a", "carrier-b", "mvno-c", "mvno-d"}
	plans := [3]string{"gold", "silver", "bronze"}
	devices := [3]string{"phone", "tablet", "m2m"}
	return policy.Attributes{
		Provider:   providers[i%4],
		Plan:       plans[(i/4)%3],
		DeviceType: devices[(i/12)%3],
		Roaming:    i%17 == 0,
	}
}

// pendingRelease is one handoff's deferred old-LocIP release.
type pendingRelease struct {
	due       int // simulated second
	shard     *shard.Shard
	oldLoc    packet.Addr
	shortcuts []*core.Shortcut
}

// BenchCity runs the city soak.
func BenchCity(opts CityOptions) (CityResult, error) {
	opts = opts.withDefaults()
	if err := ValidateCity(opts); err != nil {
		return CityResult{}, err
	}
	res := CityResult{Stations: opts.Stations, Shards: opts.Shards, UEs: opts.UEs, Seed: opts.Seed}

	gp, err := cityTopoParams(opts.Stations)
	if err != nil {
		return res, err
	}
	p, err := plant.New(plant.Spec{Topo: gp, Shards: opts.Shards, Obs: opts.Obs})
	if err != nil {
		return res, err
	}
	d, clauses := p.Disp, p.Clauses
	defer d.Close()

	heapBase := liveHeap()
	loadStart := time.Now()

	// Register the full subscriber population. IMSIs are materialised once
	// here and reused for every later operation.
	imsis := make([]string, opts.UEs)
	for i := range imsis {
		imsis[i] = fmt.Sprintf("imsi-%07d", i)
		if err := d.RegisterSubscriber(imsis[i], cityAttr(i)); err != nil {
			return res, fmt.Errorf("cbench: register %s: %w", imsis[i], err)
		}
	}
	res.Registered = opts.UEs

	// Pre-warm every (station, clause) path so the soak measures
	// steady-state request handling, then attach the diurnal steady-state
	// population at the stations the workload model chose for it.
	if err := p.WarmPaths(); err != nil {
		return res, fmt.Errorf("cbench: %w", err)
	}
	stream := workload.NewStream(opts.workloadParams())
	initial := stream.InitialPopulation()
	if len(initial) > opts.UEs {
		initial = initial[:opts.UEs]
	}
	// attachedAt[bs] lists attached UE indices; detached is a LIFO of
	// indices between sessions; UEs ≥ nextFresh have never attached.
	attachedAt := make([][]int, opts.Stations)
	var detached []int
	nextFresh := 0
	attach := func(ue, bs int) error {
		if _, _, err := d.Attach(imsis[ue], packet.BSID(bs)); err != nil {
			return err
		}
		attachedAt[bs] = append(attachedAt[bs], ue)
		return nil
	}
	for _, bs := range initial {
		if nextFresh >= opts.UEs {
			break
		}
		if err := attach(nextFresh, bs); err != nil {
			return res, fmt.Errorf("cbench: initial attach: %w", err)
		}
		nextFresh++
	}
	res.InitialAttach = nextFresh
	res.LoadWallMS = time.Since(loadStart).Milliseconds()
	if res.LoadWallMS > 0 {
		res.LoadOpsPerSec = float64(opts.UEs+nextFresh) / (float64(res.LoadWallMS) / 1000)
	}

	// Memory, measured: GC-settled heap growth across the load phase over
	// the registered population.
	res.LiveHeapBytes = liveHeap() - heapBase
	res.BytesPerUE = float64(res.LiveHeapBytes) / float64(opts.UEs)
	if res.InitialAttach > 0 {
		res.AttachedBytesPerUE = float64(res.LiveHeapBytes) / float64(res.InitialAttach)
	}

	// Soak. Single-threaded event application in workload order keeps the
	// run deterministic for a fixed SimSeconds; MinWall extends it by
	// whole simulated seconds.
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	var handoffLat metrics.CDF
	var releases []pendingRelease
	// The e2e root spans bracket the same code region the latency CDF
	// times, so a sampled trace's root duration is the measured latency.
	spE2E := opts.Obs.SpanName("e2e.handoff")
	soakStart := time.Now()
	sec := 0
	for ; sec < opts.SimSeconds || time.Since(soakStart) < opts.MinWall; sec++ {
		ev := stream.Next()

		for _, bs := range ev.Arrivals {
			var ue int
			if n := len(detached); n > 0 {
				ue = detached[n-1]
				detached = detached[:n-1]
			} else if nextFresh < opts.UEs {
				ue = nextFresh
				nextFresh++
			} else {
				continue // whole population already attached
			}
			if err := attach(ue, bs); err != nil {
				res.OpErrors++
				continue
			}
			res.Arrivals++
		}

		for _, ho := range ev.Handoffs {
			src, dst := ho[0], ho[1]
			l := attachedAt[src]
			if len(l) == 0 {
				continue // model and plant disagree; nothing to move
			}
			ue := l[len(l)-1]
			t0 := time.Now()
			sp := spE2E.Root()
			hr, err := d.HandoffCtx(sp.Context(), imsis[ue], packet.BSID(dst))
			sp.End()
			if err != nil {
				res.OpErrors++
				continue
			}
			handoffLat.Add(float64(time.Since(t0)))
			attachedAt[src] = l[:len(l)-1]
			attachedAt[dst] = append(attachedAt[dst], ue)
			res.Handoffs++
			if hr.OldLocIP != 0 && len(hr.Shortcuts) > 0 {
				if s, err := d.ShardOf(packet.BSID(dst)); err == nil {
					releases = append(releases, pendingRelease{
						due: sec + opts.ReleaseAfter, shard: s,
						oldLoc: hr.OldLocIP, shortcuts: hr.Shortcuts,
					})
				}
			}
		}

		for _, bs := range ev.Departures {
			l := attachedAt[bs]
			if len(l) == 0 {
				continue
			}
			ue := l[len(l)-1]
			if err := d.Detach(imsis[ue]); err != nil {
				res.OpErrors++
				continue
			}
			attachedAt[bs] = l[:len(l)-1]
			detached = append(detached, ue)
			res.Departures++
		}

		for bs, n := range ev.Bearers {
			for i := 0; i < n; i++ {
				if _, err := d.RequestPath(packet.BSID(bs), clauses[(bs+i)%len(clauses)]); err != nil {
					res.OpErrors++
					continue
				}
				res.Bearers++
			}
		}

		// Expire the §5.1 soft timeouts that have come due.
		kept := releases[:0]
		for _, r := range releases {
			if r.due > sec {
				kept = append(kept, r)
				continue
			}
			r.shard.Ctrl.ReleaseOldLocIP(r.oldLoc, r.shortcuts)
			res.Releases++
		}
		releases = kept
	}
	// Drain the remaining reservations so the final invariant check sees
	// a quiescent plant.
	for _, r := range releases {
		r.shard.Ctrl.ReleaseOldLocIP(r.oldLoc, r.shortcuts)
		res.Releases++
	}
	soakWall := time.Since(soakStart)
	res.SimSeconds = sec
	res.SoakWallMS = soakWall.Milliseconds()
	if s := soakWall.Seconds(); s > 0 {
		ops := res.Arrivals + res.Handoffs + res.Departures + res.Bearers
		res.OpsPerSec = float64(ops) / s
		res.ArrivalsPerSec = float64(res.Arrivals) / s
		res.HandoffsPerSec = float64(res.Handoffs) / s
	}
	res.HandoffP50NS = handoffLat.Quantile(0.5)
	res.HandoffP99NS = handoffLat.Quantile(0.99)
	res.HandoffMaxNS = handoffLat.Max()

	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	res.GCCount = gcAfter.NumGC - gcBefore.NumGC
	res.GCPauseTotalMS = float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e6
	for n := gcBefore.NumGC; n < gcAfter.NumGC && n < gcBefore.NumGC+256; n++ {
		if p := float64(gcAfter.PauseNs[(n+255)%256]) / 1e6; p > res.GCPauseMaxMS {
			res.GCPauseMaxMS = p
		}
	}

	// Final cross-shard invariant sweep: a soak that corrupted state does
	// not get to report numbers.
	if _, err := d.CheckInvariants(); err != nil {
		return res, fmt.Errorf("cbench: post-soak invariant violation: %w", err)
	}

	var hw metrics.IntSummary
	for _, s := range d.Shards() {
		h, _ := s.Ctrl.Installer.TableSizes()
		hw.Merge(h)
	}
	res.RuleTableMax = hw.Max()
	res.RuleTableMedian = hw.Median()
	res.RuleTableTotal = hw.Total()
	res.Mem = d.MemStats()
	if opts.Obs != nil {
		a := obs.Attribute(opts.Obs.SpanRecords())
		res.Attribution = &a
	}
	return res, nil
}
