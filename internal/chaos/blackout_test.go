package chaos

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// blackoutSmoke is the tier-1 configuration: the controller is dark for 30
// sim-seconds (30000 one-millisecond ticks) under live traffic.
var blackoutSmoke = BlackoutConfig{Seed: 7, OutageTicks: 30000}

func runBlackout(t *testing.T, cfg BlackoutConfig) (BlackoutResult, string, string) {
	t.Helper()
	var trace strings.Builder
	reg := obs.New()
	cfg.Trace = &trace
	cfg.Obs = reg
	res, err := RunBlackout(cfg)
	if err != nil {
		t.Fatalf("blackout run failed: %v\ntail:\n%s", err, tail(trace.String(), 20))
	}
	return res, trace.String(), string(reg.TraceJSON())
}

// TestBlackoutContinuity is the data-plane-continuity invariant: during a 30
// sim-second control-plane blackout, every admitted UE keeps its verdict and
// its forwarding microflows, new flows are admitted purely from LKG state,
// and post-reconnect reconciliation converges with every stale re-delivery
// refused. Two same-seed runs must agree byte-for-byte, and with the digests
// results/determinism.txt pins.
func TestBlackoutContinuity(t *testing.T) {
	res, trace, events := runBlackout(t, blackoutSmoke)

	if res.VerdictFlips != 0 {
		t.Errorf("verdict flips during blackout = %d, want 0", res.VerdictFlips)
	}
	if !res.Converged {
		t.Error("post-reconnect reconciliation did not converge")
	}
	if res.Admitted == 0 || res.OutageProbes == 0 || res.OutageForward == 0 {
		t.Errorf("blackout exercised nothing: %+v", res)
	}
	if res.OutageForward != res.OutageProbes {
		t.Errorf("forwarded %d of %d probes during outage", res.OutageForward, res.OutageProbes)
	}
	if res.OutageNewFlows == 0 {
		t.Error("no new flow was admitted from LKG state during the outage")
	}
	if res.PolicyChurns == 0 {
		t.Error("no controller churn during the outage: reconciliation untested")
	}
	if res.Replayed == 0 {
		t.Error("churn reallocated tags but reconciliation replayed nothing")
	}
	if res.StaleRejected != res.Stations {
		t.Errorf("stale snapshots rejected at %d of %d stations", res.StaleRejected, res.Stations)
	}

	checkDigest(t, "blackout.trace", []byte(trace))
	checkDigest(t, "blackout.obs", []byte(events))

	res2, trace2, events2 := runBlackout(t, blackoutSmoke)
	if res != res2 {
		t.Errorf("same-seed results differ:\n%+v\n%+v", res, res2)
	}
	if trace != trace2 {
		t.Errorf("same-seed traces diverge: %s", firstDiff(trace, trace2))
	}
	if events != events2 {
		t.Error("same-seed obs event traces diverge")
	}
}

// TestBlackoutSeedsDiverge guards the harness against degenerating into a
// constant: different seeds must produce different schedules.
func TestBlackoutSeedsDiverge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfgA := BlackoutConfig{Seed: 1, OutageTicks: 2000}
	cfgB := BlackoutConfig{Seed: 2, OutageTicks: 2000}
	_, traceA, _ := runBlackout(t, cfgA)
	_, traceB, _ := runBlackout(t, cfgB)
	if traceA == traceB {
		t.Error("seeds 1 and 2 produced identical traces")
	}
}
