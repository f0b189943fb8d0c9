package cbench

import (
	"strings"
	"testing"
)

// TestValidateCityFailsFast pins the up-front sub-space validation: a
// configuration whose shard count or population cannot fit the address
// plan must be rejected with an error naming the flag to change, before
// anything is built — not discovered as an allocator panic minutes into
// a soak.
func TestValidateCityFailsFast(t *testing.T) {
	cases := []struct {
		name string
		opts CityOptions
		want string // substring of the error; "" = must pass
	}{
		{"defaults", CityOptions{}, ""},
		{"smoke scale", CityOptions{Stations: 48, Shards: 2, UEs: 20000}, ""},
		{"too many shards for the tag space", CityOptions{Shards: 1024}, "policy tags"},
		{"stations not generator-shaped", CityOptions{Stations: 49}, "stations"},
		{"population overflows the permanent pool", CityOptions{UEs: 5_000_000}, "permanent IPs"},
	}
	for _, tc := range cases {
		err := ValidateCity(tc.opts)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: validation passed, want error mentioning %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCitySoakSmokeDeterministic runs the city soak at test scale twice
// with the same seed and checks (a) it completes cleanly with the
// population accounted for, and (b) every simulation-determined quantity
// — event counts, memory accounting, rule-table shape — is identical
// across runs. Wall-clock-derived fields (rates, latencies) are excluded;
// everything the workload stream decides must replay byte for byte.
func TestCitySoakSmokeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("city smoke builds a 48-station plant")
	}
	run := func() CityResult {
		t.Helper()
		res, err := BenchCity(CityOptions{
			Stations: 48, Shards: 2, UEs: 2000,
			SimSeconds: 3, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.Registered != 2000 {
		t.Fatalf("registered %d subscribers, want 2000", a.Registered)
	}
	if a.OpErrors != 0 {
		t.Fatalf("%d op errors in smoke soak", a.OpErrors)
	}
	if a.InitialAttach == 0 || a.Arrivals == 0 || a.Handoffs == 0 {
		t.Fatalf("soak did not exercise the workload: %+v", a)
	}
	if a.Mem.Subscribers != 2000 {
		t.Fatalf("fleet holds %d subscriber records, want 2000", a.Mem.Subscribers)
	}
	if a.Mem.Attached == 0 || a.LiveHeapBytes == 0 {
		t.Fatalf("memory accounting empty: %+v", a.Mem)
	}

	b := run()
	type detKey struct {
		initial               int
		arr, ho, dep          uint64
		bear, rel, errs       uint64
		attached, subs, paths int
		ruleMax               int
	}
	key := func(r CityResult) detKey {
		return detKey{
			initial: r.InitialAttach, arr: r.Arrivals, ho: r.Handoffs,
			dep: r.Departures, bear: r.Bearers, rel: r.Releases, errs: r.OpErrors,
			attached: r.Mem.Attached, subs: r.Mem.Subscribers, paths: r.Mem.Paths,
			ruleMax: r.RuleTableMax,
		}
	}
	if key(a) != key(b) {
		t.Fatalf("same-seed soak diverged:\n  a: %+v\n  b: %+v", key(a), key(b))
	}
}
