package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// toy is every workload at a fiftieth of its measured size: seconds of
// work, same code paths, -race safe.
func toy(seed int64, trace bool, t *testing.T) runConfig {
	return runConfig{seed: seed, seconds: 0.2, trace: trace, out: io.Discard, outDir: t.TempDir()}
}

// TestManifestMatchesCatalogue keeps BENCHMARK.json at the repo root the
// rendered catalogue (regenerate with: go run -C bench . -manifest).
func TestManifestMatchesCatalogue(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from the catalogue in metrics.go/layers.go; run: go run -C bench . -manifest > BENCHMARK.json")
	}
}

func TestCatalogueNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDoc{}, endToEnd...), perLayerDocs()...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
}

// checkMetrics asserts every catalogue metric of the run's kind is present,
// has its unit and is finite; end-to-end metrics must also be non-zero.
func checkMetrics(t *testing.T, res *result, docs []metricDoc, nonZero bool) {
	t.Helper()
	for _, d := range docs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
		case !finite(m.Value):
			t.Errorf("%s: metric %s = %v", res.Workload, d.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", res.Workload, d.Name, m.Value)
		}
	}
	var buf bytes.Buffer
	if err := res.printJSON(&buf); err != nil {
		t.Errorf("%s: result object: %v", res.Workload, err)
	}
}

// TestUntracedToyScale runs every workload twice with one seed: every
// end-to-end metric is there, nothing failed, and the counts repeat.
func TestUntracedToyScale(t *testing.T) {
	for _, name := range workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := runUntraced(name, toy(5, false, t))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, a, endToEnd, true)
			if !a.Correct || a.Failed != 0 || a.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", a.Correct, a.Attempted, a.Failed)
			}
			if testing.Short() {
				return
			}
			b, err := runUntraced(name, toy(5, false, t))
			if err != nil {
				t.Fatal(err)
			}
			if a.Attempted != b.Attempted {
				t.Errorf("same seed, op counts %d and %d", a.Attempted, b.Attempted)
			}
			if x, y := a.Metrics[mRuleMax].Value, b.Metrics[mRuleMax].Value; x != y {
				t.Errorf("same seed, rule_table_max %v and %v", x, y)
			}
		})
	}
}

// TestTracedToyScale runs every workload's traced mode twice with one seed:
// every per-layer metric is there, the span ledger adds up (runTraced fails
// otherwise), a span file is written, and the deterministic counts repeat.
func TestTracedToyScale(t *testing.T) {
	for _, name := range workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := toy(5, true, t)
			a, err := runTraced(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, a, perLayerDocs(), false)
			if a.Failed != 0 {
				t.Fatalf("%d failed ops", a.Failed)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+name+".json")); err != nil {
				t.Error(err)
			}
			if v := a.Metrics["mbox.violations"].Value; v != 0 {
				t.Errorf("mbox.violations = %v", v)
			}
			if testing.Short() {
				return
			}
			b, err := runTraced(name, toy(5, true, t))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{"core.rules_added", "dataplane.slow_share", "core.rule_table_median", "mbox.old_flow_bypasses"} {
				if x, y := a.Metrics[m].Value, b.Metrics[m].Value; x != y {
					t.Errorf("same seed, %s %v and %v", m, x, y)
				}
			}
			switch share := a.Metrics["dataplane.slow_share"].Value; name {
			case wlForward:
				if share != 0 {
					t.Errorf("forward_plain slow_share = %v, want 0", share)
				}
			case wlE2E:
				if share < 0.3 || share > 0.7 {
					t.Errorf("e2e_mobility slow_share = %v, want about a half", share)
				}
			}
		})
	}
}

func TestRefusesUnknownWorkload(t *testing.T) {
	if err := run("no_such_workload", toy(1, false, t), false); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
