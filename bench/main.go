// Command bench is the repository's benchmark: four named workloads over
// plants built through the public constructors, end-to-end metrics from
// untraced runs, a per-layer ledger from traced runs, and a correctness
// gate on every run. README.md explains the workloads and the metrics;
// BENCHMARK.json at the repo root is the catalogue (-manifest prints it).
//
// The driver runs one workload per invocation:
//
//	bash bench/run.sh --workload city_churn --seed 1 --seconds 10 --trace 0
//
// and reads the last line of standard output. Without --workload every
// workload runs in turn and the full report is printed:
//
//	go run -C bench .            # end-to-end metrics, all four workloads
//	go run -C bench . -trace 1   # per-layer ledger, span files in bench/out
//	go run -C bench . -repeat    # the untraced set twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		wl       = flag.String("workload", "", "run one workload (driver mode): "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured rounds the work is sized for")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
		repeat   = flag.Bool("repeat", false, "run the untraced set twice and fail if a metric differs by more than its bound")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		outDir   = flag.String("out", "out", "directory for span files (traced runs)")
	)
	flag.Parse()
	if *manifest {
		if _, err := os.Stdout.Write(manifestJSON()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*wl, runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, out: os.Stdout, outDir: *outDir}, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, d := range workloadDocs {
		out = append(out, d.Name)
	}
	return out
}

// run is main without the process exit.
func run(wl string, cfg runConfig, repeat bool) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := printHost(cfg.out); err != nil {
		return err
	}
	names := workloadNames()
	if wl != "" {
		names = []string{wl}
	}
	if repeat {
		return runRepeat(names, cfg)
	}
	var last *result
	for _, name := range names {
		res, err := runOne(name, cfg)
		if err != nil {
			return err
		}
		res.print(cfg.out, cfg.trace)
		last = res
	}
	if wl != "" {
		// Driver mode: the result object is the last line of stdout.
		return last.printJSON(cfg.out)
	}
	return nil
}

func runOne(name string, cfg runConfig) (*result, error) {
	if cfg.trace {
		return runTraced(name, cfg)
	}
	return runUntraced(name, cfg)
}

// printHost prints the host fingerprint and refuses oversubscribed runs:
// with more runnable threads than processors, latencies measure the
// scheduler.
func printHost(w io.Writer) error {
	nproc, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		nproc, procs, cpuModel(), runtime.Version(), commit())
	if procs > nproc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d: refusing to measure an oversubscribed process", procs, nproc)
	}
	return nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit names the checkout's commit when it is a git repository (the
// driver's checkouts are not).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// print writes the human-readable report of one run.
func (r *result) print(w io.Writer, traced bool) {
	mode, docs := "untraced", endToEnd
	if traced {
		mode, docs = "traced", perLayerDocs()
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  %s  attempted=%d failed=%d correct=%v\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.Correct)
	for _, note := range r.Notes {
		fmt.Fprintf(w, "  %s\n", note)
	}
	for _, d := range docs {
		line := fmt.Sprintf("  %-34s %16.4f %-6s", d.Name, r.Metrics[d.Name].Value, d.Unit)
		if n, ok := r.Samples[d.Name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		if rounds, ok := r.Rounds[d.Name]; ok {
			line += "  per round:"
			for _, v := range rounds {
				line += fmt.Sprintf(" %.4g", v)
			}
		}
		fmt.Fprintln(w, line)
	}
	if !traced {
		// The p99 latencies live in the per-layer list (README.md, "Demoted
		// p99"); the untraced run still measures them, so print them.
		for _, d := range demotedP99 {
			fmt.Fprintf(w, "  %-34s %16.4f %-6s  n=%d  (per-layer metric, not gated)\n", d.Name, r.Metrics[d.Name].Value, d.Unit, r.Samples[d.Name])
		}
	}
	if r.Ledger != "" {
		fmt.Fprint(w, r.Ledger)
	}
}

// printJSON writes the driver's result object: exactly the catalogue's
// end-to-end metrics (untraced) or per-layer metrics (traced).
func (r *result) printJSON(w io.Writer) error {
	docs := endToEnd
	if r.Traced {
		docs = perLayerDocs()
	}
	metrics := make(map[string]metricValue, len(docs))
	for _, d := range docs {
		m, ok := r.Metrics[d.Name]
		if !ok || !finite(m.Value) {
			return fmt.Errorf("%s: metric %s missing or not finite", r.Workload, d.Name)
		}
		metrics[d.Name] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runRepeat runs the full untraced set twice and fails if any end-to-end
// metric differs between the sets by more than its own bound.
func runRepeat(names []string, cfg runConfig) error {
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = make(map[string]*result)
		for _, name := range names {
			res, err := runUntraced(name, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.out, "\nset %d:", i+1)
			res.print(cfg.out, false)
			sets[i][name] = res
		}
	}
	var bad []string
	fmt.Fprintf(cfg.out, "\nrepeat check (second set against first, as a share of the first):\n")
	for _, name := range names {
		a, b := sets[0][name], sets[1][name]
		if a.Attempted != b.Attempted || a.Failed != b.Failed {
			bad = append(bad, fmt.Sprintf("%s: op counts differ (%d/%d failed vs %d/%d)", name, a.Failed, a.Attempted, b.Failed, b.Attempted))
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "WORSE THAN BOUND"
				bad = append(bad, fmt.Sprintf("%s %s: %.4g -> %.4g (%.1f%% worse, bound %.0f%%)", name, d.Name, va, vb, 100*worse, 100*d.Bound))
			}
			fmt.Fprintf(cfg.out, "  %-14s %-22s %14.4f %14.4f  %+6.1f%% (bound %.0f%%) %s\n", name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("repeat check failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
