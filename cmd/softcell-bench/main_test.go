package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedResultsMatchTheirSchema decodes every committed
// results/BENCH_*.json into the report type that writes it, refusing
// unknown fields: a file regenerated before a field was dropped from its
// schema, or one whose writer no longer exists, fails here instead of
// being quoted as current.
func TestCommittedResultsMatchTheirSchema(t *testing.T) {
	schema := map[string]func() any{
		"BENCH_controller.json": func() any { return new(benchReport) },
		"BENCH_chaos.json":      func() any { return new(chaosReport) },
		"BENCH_blackout.json":   func() any { return new(blackoutReport) },
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed results/BENCH_*.json")
	}
	for _, f := range files {
		name := filepath.Base(f)
		report, ok := schema[name]
		if !ok {
			t.Errorf("%s: no report type in softcell-bench writes it", name)
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(report()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
