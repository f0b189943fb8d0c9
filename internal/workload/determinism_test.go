package workload

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/metrics"
)

// serialise renders a Result canonically: totals plus the bit pattern of
// every sample of every distribution. Byte equality of two serialisations
// means the generator emitted the exact same event stream.
func serialise(res *Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "arrivals=%d handoffs=%d bearers=%d peak=%d\n",
		res.TotalArrivals, res.TotalHandoffs, res.TotalBearers, res.PeakActive)
	for _, c := range []struct {
		name string
		cdf  *metrics.CDF
	}{
		{"arrivals/s", &res.ArrivalsPerSec},
		{"handoffs/s", &res.HandoffsPerSec},
		{"active-ues", &res.ActiveUEsPerBS},
		{"bearers", &res.BearersPerBSSec},
	} {
		samples := c.cdf.Samples()
		fmt.Fprintf(&b, "%s n=%d:", c.name, len(samples))
		for _, v := range samples {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestGenerateByteIdentical runs the workload generator twice with the same
// seed and requires byte-identical output distributions — stronger than the
// totals-only check in workload_test.go, which would miss sample-level or
// ordering drift.
func TestGenerateByteIdentical(t *testing.T) {
	p := Params{Stations: 50, Seconds: 600, StartSecond: 18 * 3600, Seed: 3}
	first := serialise(Generate(p))
	second := serialise(Generate(p))
	if len(first) < 100 {
		t.Fatalf("suspiciously small serialisation (%d bytes)", len(first))
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("same-seed runs differ:\n first=%.200s...\nsecond=%.200s...", first, second)
	}
	// A different seed must actually change the stream, or the comparison
	// above proves nothing.
	other := serialise(Generate(Params{Stations: 50, Seconds: 600, StartSecond: 18 * 3600, Seed: 4}))
	if bytes.Equal(first, other) {
		t.Fatal("different seeds produced identical streams")
	}
}
