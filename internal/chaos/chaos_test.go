package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// smokeConfig is the fixed-seed tier-1 configuration: long enough that
// every fault category fires, short enough for -race CI.
func smokeConfig() Config {
	return Config{Seed: 1, Events: 600}
}

// TestChaosSmokeDeterministic is the tier-1 gate: one seeded schedule with
// every fault type enabled must pass every invariant check, and running it
// twice must produce byte-identical traces and equal results. Both runs
// carry a full obs registry, so the gate also proves instrumentation does
// not perturb the schedule and that the registry's own event trace is
// byte-identical across same-seed runs (counters are exempt: wire
// retransmissions depend on wall-clock retry timing). Both outputs must
// also hash to the digests results/determinism.txt pins.
func TestChaosSmokeDeterministic(t *testing.T) {
	var t1, t2 bytes.Buffer
	reg1, reg2 := obs.New(), obs.New()
	cfg1 := smokeConfig()
	cfg1.Trace = &t1
	cfg1.Obs = reg1
	r1, err := Run(cfg1)
	if err != nil {
		t.Fatalf("chaos run: %v\ntail:\n%s", err, tail(t1.String(), 30))
	}
	cfg2 := smokeConfig()
	cfg2.Trace = &t2
	cfg2.Obs = reg2
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatalf("second chaos run: %v", err)
	}

	if r1 != r2 {
		t.Errorf("same-seed results differ:\n  %+v\n  %+v", r1, r2)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatalf("same-seed traces differ: %s", firstDiff(t1.String(), t2.String()))
	}
	d1, d2 := reg1.TraceJSON(), reg2.TraceJSON()
	if !bytes.Equal(d1, d2) {
		t.Fatalf("same-seed obs trace dumps differ: %s", firstDiff(string(d1), string(d2)))
	}
	checkDigest(t, "chaos.trace", t1.Bytes())
	checkDigest(t, "chaos.obs", d1)
	if reg1.TraceLen() == 0 {
		t.Error("obs registry recorded no trace events")
	}
	f := r1.Faults
	wantFaults := uint64(f.SwitchFail + f.SwitchRecover + f.ShardKill +
		f.AgentRestart + f.DetachMidHandoff + f.PolicyChurn)
	s := reg1.Snapshot()
	if got := s.Counters["chaos.faults.injected"]; got != wantFaults {
		t.Errorf("chaos.faults.injected = %d, want %d", got, wantFaults)
	}
	if got := s.Counters["chaos.checks.passed"]; got != uint64(r1.Checks) {
		t.Errorf("chaos.checks.passed = %d, want %d", got, r1.Checks)
	}

	if r1.Events != 600 {
		t.Errorf("events = %d, want 600", r1.Events)
	}
	if f.SwitchFail == 0 || f.SwitchRecover == 0 || f.ShardKill == 0 ||
		f.AgentRestart == 0 || f.DetachMidHandoff == 0 || f.PolicyChurn == 0 {
		t.Errorf("a fault category never fired: %+v", f)
	}
	if f.WireFaulted == 0 {
		t.Errorf("no wire frame was ever faulted: %+v", f)
	}
	if r1.Checks == 0 || r1.Releases == 0 {
		t.Errorf("checks=%d releases=%d, want both > 0", r1.Checks, r1.Releases)
	}
	if r1.Final.Reservations != 0 {
		t.Errorf("final report leaks %d reservations", r1.Final.Reservations)
	}
	if r1.Final.Shards == 0 || r1.Final.Paths == 0 {
		t.Errorf("final report empty: %+v", r1.Final)
	}
}

// TestChaosSeedsDiverge guards against the harness accidentally ignoring
// its seed (a constant schedule would still be "deterministic").
func TestChaosSeedsDiverge(t *testing.T) {
	var t1, t2 bytes.Buffer
	cfg := Config{Seed: 7, Events: 120, Trace: &t1}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("seed 7: %v", err)
	}
	cfg = Config{Seed: 8, Events: 120, Trace: &t2}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("seed 8: %v", err)
	}
	if bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestChaosNoWireFaults: with wire faults disabled the harness still
// injects every other fault type and converges.
func TestChaosNoWireFaults(t *testing.T) {
	r, err := Run(Config{Seed: 3, Events: 200, WireFaultRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults.WireFaulted != 0 {
		t.Fatalf("wire faults injected while disabled: %+v", r.Faults)
	}
	if r.Faults.SwitchFail == 0 {
		t.Fatalf("no switch faults in %d events: %+v", r.Events, r.Faults)
	}
}

func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, al[i], bl[i])
		}
	}
	return "length mismatch"
}
