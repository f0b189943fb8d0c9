// softcell-bench regenerates §6.2: the controller micro-benchmark (Cbench
// equivalent) and Table 2 (local-agent throughput vs classifier-cache hit
// ratio).
//
// Usage:
//
//	softcell-bench -mode controller        # throughput vs worker count
//	softcell-bench -mode agent             # Table 2
//	softcell-bench -mode chaos             # seeded fault-injection soak
//	softcell-bench -mode blackout          # control-plane blackout continuity soak
//	softcell-bench -mode city              # city-scale 1M-UE memory/churn soak
//
// Forwarding-plane numbers are not measured here: they come from the
// repository benchmark (`bash bench/run.sh --workload forward_plain`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/cbench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// benchPoint is one row of the machine-readable controller benchmark.
type benchPoint struct {
	Workers        int     `json:"workers"`
	Requests       uint64  `json:"requests"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
}

// benchReport is the BENCH_controller.json schema: enough configuration to
// reproduce the run, plus the sweep rows.
type benchReport struct {
	Mode       string       `json:"mode"`
	Agents     int          `json:"agents"`
	OverWire   bool         `json:"over_wire"`
	DurationMS int64        `json:"duration_ms"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Points     []benchPoint `json:"points"`
	// Mem is the controller's memory accounting after the last sweep point.
	Mem core.MemStats `json:"mem"`
	// Obs is the cumulative telemetry snapshot across every sweep point
	// (one registry spans the sweep; get-or-create registration merges the
	// points into the same series).
	Obs obs.Snapshot `json:"obs"`
	// Attribution is the span critical-path waterfall over the sweep's
	// sampled traces (bench.op roots with wire and controller children).
	Attribution obs.Attribution `json:"attribution"`
}

// chaosReport is the BENCH_chaos.json schema: the run's configuration,
// wall-clock throughput, fault/check tallies, and the registry snapshot.
type chaosReport struct {
	Seed         int64             `json:"seed"`
	Events       int               `json:"events"`
	EventsPerSec float64           `json:"events_per_sec"`
	Ops          int               `json:"ops"`
	OpErrors     int               `json:"op_errors"`
	Checks       int               `json:"checks"`
	Releases     int               `json:"releases"`
	Faults       chaos.FaultCounts `json:"faults"`
	Mem          core.MemStats     `json:"mem"` // fleet accounting at quiescence
	Obs          obs.Snapshot      `json:"obs"`
}

// blackoutReport is the BENCH_blackout.json schema: the continuity result,
// wall-clock forwarding throughput sustained while the control plane was
// dark, and the registry snapshot.
type blackoutReport struct {
	Seed                 int64                `json:"seed"`
	Result               chaos.BlackoutResult `json:"result"`
	WallMS               int64                `json:"wall_ms"`
	OutageForwardPerSec  float64              `json:"outage_forward_per_sec"`
	OutageNewFlowsPerSec float64              `json:"outage_new_flows_per_sec"`
	GOMAXPROCS           int                  `json:"gomaxprocs"`
	Obs                  obs.Snapshot         `json:"obs"`
	// Attribution is the span critical-path waterfall over the soak's
	// sampled control-plane traces.
	Attribution obs.Attribution `json:"attribution"`
}

// cityReport is the BENCH_city.json schema: the soak result plus the host
// shape and the telemetry snapshot.
type cityReport struct {
	cbench.CityResult
	GOMAXPROCS int          `json:"gomaxprocs"`
	Obs        obs.Snapshot `json:"obs"`
}

// writeJSON renders v indented and writes it to path.
func writeJSON(path string, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s\n", path)
}

// emitAttr renders the span attribution a run collected: the critical-path
// waterfall to stdout when asked, and the raw attribution JSON to a file
// (the CI artifact make city-smoke uploads).
func emitAttr(a obs.Attribution, show bool, path string) {
	if show {
		fmt.Println()
		fmt.Print(a.Waterfall())
	}
	if path == "" {
		return
	}
	if err := os.WriteFile(path, append(a.JSON(), '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s\n", path)
}

func main() {
	var (
		mode     = flag.String("mode", "controller", "controller | agent | chaos | blackout | city")
		agents   = flag.Int("agents", 16, "emulated agent connections")
		duration = flag.Duration("duration", time.Second, "per-point measurement window")
		wire     = flag.Bool("wire", true, "drive the binary control protocol (false: in-process calls)")
		rtt      = flag.Duration("rtt", 500*time.Microsecond, "simulated controller RTT for agent cache misses")
		jsonOut  = flag.String("json", "", "with -mode controller or chaos: write the report as JSON to this file")

		seed   = flag.Int64("seed", 1, "chaos, city: schedule/workload seed")
		events = flag.Int("events", 2000, "chaos: schedule length in events")
		shards = flag.Int("shards", 3, "chaos, city: control-plane shards (city default 4)")
		ues    = flag.Int("ues", 16, "chaos, city: subscriber population (city default 1000000)")

		stations = flag.Int("stations", 1536, "city: base stations (must be C·K³/4; 48 for the smoke point)")
		simSecs  = flag.Int("sim-seconds", 300, "city: minimum simulated workload seconds to soak")
		soakWall = flag.Duration("soak", 0, "city: keep soaking until this much wall clock has elapsed")
		cluster  = flag.Int("cluster", 4, "chaos, blackout: base stations per pod cluster")
		outage   = flag.Int("outage-ticks", 30000, "blackout: outage length in 1ms sim ticks")
		wireRate = flag.Float64("wire-fault-rate", 0.25, "chaos: per-frame fault probability (negative disables)")
		mixWork  = flag.Int("mix-workload", 0, "chaos: workload weight (0 = default)")
		mixSw    = flag.Int("mix-switch", 0, "chaos: switch fail/recover weight (0 = default)")
		mixShard = flag.Int("mix-shard-kill", 0, "chaos: shard-kill weight (0 = default)")
		mixAgent = flag.Int("mix-agent-restart", 0, "chaos: agent-restart weight (0 = default)")
		mixDet   = flag.Int("mix-detach", 0, "chaos: detach-mid-handoff weight (0 = default)")
		mixPol   = flag.Int("mix-policy", 0, "chaos: policy-churn weight (0 = default)")
		traceOut = flag.String("trace", "", "chaos: write the deterministic event trace to this file")

		traceSample = flag.Int("trace-sample", 0, "span tracing: sample one request in N (0 keeps the default, 1024)")
		attrShow    = flag.Bool("attr", false, "controller, blackout, city: print the span critical-path waterfall")
		attrJSON    = flag.String("attr-json", "", "controller, blackout, city: also write the span attribution as JSON to this file")
	)
	flag.Parse()
	// The chaos-calibrated -shards/-ues defaults are far too small for a
	// city soak; only explicit values override the city defaults.
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	switch *mode {
	case "controller":
		fmt.Printf("controller throughput (Cbench equivalent): %d emulated agents, %v per point, GOMAXPROCS=%d\n",
			*agents, *duration, runtime.GOMAXPROCS(0))
		tab := metrics.NewTable("workers", "requests", "requests/s", "allocs/op")
		reg := obs.New()
		reg.SetClock(func() int64 { return time.Now().UnixNano() })
		if *traceSample > 0 {
			reg.SetSpanSampling(*traceSample)
		}
		report := benchReport{
			Mode: "controller", Agents: *agents, OverWire: *wire,
			DurationMS: duration.Milliseconds(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		}
		for _, workers := range []int{1, 2, 4, 8, 15} {
			res, err := cbench.BenchController(cbench.ControllerOptions{
				Agents: *agents, Workers: workers, Duration: *duration, OverWire: *wire,
				Obs: reg,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			tab.AddRow(workers, res.Requests, res.PerSecond(), fmt.Sprintf("%.1f", res.AllocsPerOp))
			report.Points = append(report.Points, benchPoint{
				Workers: workers, Requests: res.Requests,
				RequestsPerSec: res.PerSecond(), AllocsPerOp: res.AllocsPerOp,
			})
			report.Mem = res.Mem
		}
		fmt.Print(tab)
		report.Attribution = obs.Attribute(reg.SpanRecords())
		emitAttr(report.Attribution, *attrShow, *attrJSON)
		if *jsonOut != "" {
			report.Obs = reg.Snapshot()
			writeJSON(*jsonOut, report)
		}
		fmt.Println("\npaper: 2.2M requests/s at 15 threads on a dual Xeon W5580; absolute")
		fmt.Println("numbers depend on the host, the shape (scaling with workers until the")
		fmt.Println("core count saturates) is the claim.")
	case "agent":
		fmt.Printf("local-agent throughput vs cache hit ratio (Table 2), controller RTT %v\n", *rtt)
		tab := metrics.NewTable("cache hit ratio", "flows", "flows/s")
		for _, row := range []struct {
			ratio float64
			flows int
		}{{1, 40000}, {0.99, 40000}, {0.9, 10000}, {0.8, 6000}, {0, 2000}} {
			res, err := cbench.BenchAgent(cbench.AgentOptions{
				HitRatio: row.ratio, Flows: row.flows, ControllerRTT: *rtt,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			tab.AddRow(fmt.Sprintf("%.0f%%", row.ratio*100), res.Requests, res.PerSecond())
		}
		fmt.Print(tab)
		fmt.Println("\npaper Table 2: throughput falls monotonically with the hit ratio; the")
		fmt.Println("worst case (0%: every flow asks the controller) still sustains ~1.8K/s.")
	case "chaos":
		var trace io.Writer
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			defer f.Close()
			trace = f
		}
		fmt.Printf("chaos soak: seed=%d events=%d shards=%d ues=%d wire-fault-rate=%g\n",
			*seed, *events, *shards, *ues, *wireRate)
		reg := obs.New()
		start := time.Now()
		res, err := chaos.Run(chaos.Config{
			Seed:          *seed,
			Events:        *events,
			Shards:        *shards,
			UEs:           *ues,
			ClusterSize:   *cluster,
			WireFaultRate: *wireRate,
			Mix: chaos.Mix{
				Workload:         *mixWork,
				SwitchFault:      *mixSw,
				ShardKill:        *mixShard,
				AgentRestart:     *mixAgent,
				DetachMidHandoff: *mixDet,
				PolicyChurn:      *mixPol,
			},
			Trace: trace,
			Obs:   reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos: INVARIANT VIOLATION:", err)
			fmt.Fprintf(os.Stderr, "reproduce with: softcell-bench -mode chaos -seed %d -events %d -trace trace.log\n", *seed, *events)
			os.Exit(1)
		}
		tab := metrics.NewTable("fault", "count")
		tab.AddRow("switch fail", res.Faults.SwitchFail)
		tab.AddRow("switch recover", res.Faults.SwitchRecover)
		tab.AddRow("shard kill", res.Faults.ShardKill)
		tab.AddRow("agent restart", res.Faults.AgentRestart)
		tab.AddRow("detach mid-handoff", res.Faults.DetachMidHandoff)
		tab.AddRow("policy churn", res.Faults.PolicyChurn)
		tab.AddRow("wire frames faulted", fmt.Sprintf("%d/%d", res.Faults.WireFaulted, res.Faults.WireFrames))
		fmt.Print(tab)
		fmt.Printf("\n%d events, %d workload ops (%d errored under faults), %d invariant-checker passes, %d handoff releases\n",
			res.Events, res.Ops, res.OpErrors, res.Checks, res.Releases)
		fmt.Printf("final state: %d live shards, %d paths, %d rules, %d attached UEs, %d reservations\n",
			res.Final.Shards, res.Final.Paths, res.Final.Rules, res.Final.Attached, res.Final.Reservations)
		fmt.Println("every invariant held; two runs with the same seed write identical traces.")
		if *jsonOut != "" {
			wall := time.Since(start)
			rep := chaosReport{
				Seed: *seed, Events: res.Events, Ops: res.Ops,
				OpErrors: res.OpErrors, Checks: res.Checks, Releases: res.Releases,
				Faults: res.Faults, Mem: res.Mem, Obs: reg.Snapshot(),
			}
			if wall > 0 {
				rep.EventsPerSec = float64(res.Events) / wall.Seconds()
			}
			writeJSON(*jsonOut, rep)
		}
	case "blackout":
		var trace io.Writer
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			defer f.Close()
			trace = f
		}
		cfg := chaos.BlackoutConfig{
			Seed:        *seed,
			OutageTicks: *outage,
			ClusterSize: *cluster,
			Trace:       trace,
		}
		if setFlags["shards"] {
			cfg.Shards = *shards
		}
		if setFlags["ues"] {
			cfg.UEs = *ues
		}
		reg := obs.New()
		if *traceSample > 0 {
			reg.SetSpanSampling(*traceSample)
		}
		cfg.Obs = reg
		fmt.Printf("blackout soak: seed=%d outage=%d sim-ms GOMAXPROCS=%d\n",
			*seed, *outage, runtime.GOMAXPROCS(0))
		start := time.Now()
		res, err := chaos.RunBlackout(cfg)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blackout: CONTINUITY VIOLATION:", err)
			fmt.Fprintf(os.Stderr, "reproduce with: softcell-bench -mode blackout -seed %d -outage-ticks %d -trace trace.log\n", *seed, *outage)
			os.Exit(1)
		}
		tab := metrics.NewTable("quantity", "value")
		tab.AddRow("stations / admitted UEs", fmt.Sprintf("%d / %d", res.Stations, res.Admitted))
		tab.AddRow("outage length", fmt.Sprintf("%d sim-ms", res.OutageTicks))
		tab.AddRow("probes while dark", res.OutageProbes)
		tab.AddRow("forwarded while dark", res.OutageForward)
		tab.AddRow("new flows while dark", res.OutageNewFlows)
		tab.AddRow("verdict flips", fmt.Sprintf("%d (invariant: 0)", res.VerdictFlips))
		tab.AddRow("policy churns injected", res.PolicyChurns)
		tab.AddRow("reconcile kept/replayed/torndown", fmt.Sprintf("%d / %d / %d", res.Kept, res.Replayed, res.TornDown))
		tab.AddRow("stale snapshots refused", res.StaleRejected)
		tab.AddRow("converged", res.Converged)
		fmt.Print(tab)
		fmt.Printf("\n%d probe packets forwarded on last-known-good state across a %d sim-ms\n",
			res.OutageForward, res.OutageTicks)
		fmt.Println("control-plane blackout with zero verdict flips; reconciliation converged.")
		attribution := obs.Attribute(reg.SpanRecords())
		emitAttr(attribution, *attrShow, *attrJSON)
		if *jsonOut != "" {
			rep := blackoutReport{
				Seed: *seed, Result: res, WallMS: wall.Milliseconds(),
				GOMAXPROCS: runtime.GOMAXPROCS(0), Obs: reg.Snapshot(),
				Attribution: attribution,
			}
			if wall > 0 {
				rep.OutageForwardPerSec = float64(res.OutageForward) / wall.Seconds()
				rep.OutageNewFlowsPerSec = float64(res.OutageNewFlows) / wall.Seconds()
			}
			writeJSON(*jsonOut, rep)
		}
	case "city":
		opts := cbench.CityOptions{
			Stations:   *stations,
			SimSeconds: *simSecs,
			MinWall:    *soakWall,
			Seed:       *seed,
		}
		if setFlags["shards"] {
			opts.Shards = *shards
		}
		if setFlags["ues"] {
			opts.UEs = *ues
		}
		if err := cbench.ValidateCity(opts); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		reg := obs.New()
		reg.SetClock(func() int64 { return time.Now().UnixNano() })
		if *traceSample > 0 {
			reg.SetSpanSampling(*traceSample)
		}
		opts.Obs = reg
		fmt.Printf("city soak: stations=%d sim-seconds>=%d soak>=%v GOMAXPROCS=%d\n",
			opts.Stations, opts.SimSeconds, *soakWall, runtime.GOMAXPROCS(0))
		res, err := cbench.BenchCity(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		tab := metrics.NewTable("quantity", "value")
		tab.AddRow("subscribers registered", res.Registered)
		tab.AddRow("initially attached", res.InitialAttach)
		tab.AddRow("load phase", fmt.Sprintf("%.1fs (%.0f ops/s)", float64(res.LoadWallMS)/1000, res.LoadOpsPerSec))
		tab.AddRow("soak", fmt.Sprintf("%d sim-seconds in %.1fs wall", res.SimSeconds, float64(res.SoakWallMS)/1000))
		tab.AddRow("ops/s sustained", fmt.Sprintf("%.0f", res.OpsPerSec))
		tab.AddRow("arrivals/s", fmt.Sprintf("%.0f (paper 99.999-pct: 214)", res.ArrivalsPerSec))
		tab.AddRow("handoffs/s", fmt.Sprintf("%.0f (paper 99.999-pct: 280)", res.HandoffsPerSec))
		tab.AddRow("handoff p99", fmt.Sprintf("%.0fµs", res.HandoffP99NS/1000))
		tab.AddRow("rule table max/median", fmt.Sprintf("%d / %d", res.RuleTableMax, res.RuleTableMedian))
		tab.AddRow("live heap (fleet)", fmt.Sprintf("%.1f MB (%.1f B/subscriber)", float64(res.LiveHeapBytes)/1e6, res.BytesPerUE))
		tab.AddRow("attr intern hit rate", fmt.Sprintf("%.4f (%d sets live)", res.Mem.AttrHitRate(), res.Mem.InternedAttrs))
		tab.AddRow("GC", fmt.Sprintf("%d cycles, %.1fms total pause, %.2fms max", res.GCCount, res.GCPauseTotalMS, res.GCPauseMaxMS))
		fmt.Print(tab)
		fmt.Printf("\n%d op errors; post-soak cross-shard invariants held\n", res.OpErrors)
		if res.Attribution != nil {
			emitAttr(*res.Attribution, *attrShow, *attrJSON)
		}
		if *jsonOut != "" {
			writeJSON(*jsonOut, cityReport{
				CityResult: res, GOMAXPROCS: runtime.GOMAXPROCS(0), Obs: reg.Snapshot(),
			})
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
}
