package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/packet"
	"repro/internal/policy"
)

// allowClauses returns the IDs of the policy's allow clauses — the ones a
// path can be requested for.
func allowClauses(p *policy.Policy) []int {
	var out []int
	for id := 0; id < p.Len(); id++ {
		if cl, ok := p.Clause(id); ok && cl.Action.Allow {
			out = append(out, id)
		}
	}
	return out
}

// TestConcurrentStressInvariants hammers the controller from many
// goroutines at once — path requests, handoffs, detach/re-attach cycles,
// and switch failure/recovery — and then checks the rule-table invariants:
// every surviving path verifies against the FIBs, the rule accounting
// matches the tables, and every request is served the tag of the path the
// table files. `make verify` runs it under -race, which is where it earns its
// keep: the race detector sees every pairing of the three lock domains and
// the lock-free fast path.
func TestConcurrentStressInvariants(t *testing.T) {
	// Twelve fail/recover cycles each rebuild every installed path on a
	// fresh tag (tags are never reused), and the requesters racing the
	// recomputations install more — too many for the default 6-bit field.
	plan := packet.DefaultPlan
	plan.TagBits = 12
	c, n := testControllerPlan(t, plan)
	const nUE = 12
	imsis := make([]string, nUE)
	for i := range imsis {
		imsis[i] = fmt.Sprintf("imsi-%d", i)
		attr := policy.Attributes{Provider: "A"}
		if i%2 == 0 {
			attr.Plan = "silver"
		}
		if err := c.RegisterSubscriber(imsis[i], attr); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Attach(imsis[i], packet.BSID(i%4)); err != nil {
			t.Fatal(err)
		}
	}
	clauses := allowClauses(c.Policy)
	iters := 400
	if testing.Short() {
		iters = 60
	}

	var wg sync.WaitGroup
	spawn := func(seed int64, body func(rng *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(rand.New(rand.NewSource(seed)))
		}()
	}
	// Path requesters: errors are legal while a failure is in flight (the
	// request races the recomputation), so only the final sweep asserts.
	for g := 0; g < 4; g++ {
		spawn(int64(g), func(rng *rand.Rand) {
			for i := 0; i < iters*5; i++ {
				_, _ = c.RequestPath(packet.BSID(rng.Intn(4)), clauses[rng.Intn(len(clauses))])
			}
		})
	}
	// Mobility: handoffs between stations, detach/re-attach churn.
	for g := 0; g < 2; g++ {
		spawn(100+int64(g), func(rng *rand.Rand) {
			for i := 0; i < iters; i++ {
				_, _ = c.Handoff(imsis[rng.Intn(nUE)], packet.BSID(rng.Intn(4)))
			}
		})
	}
	spawn(200, func(rng *rand.Rand) {
		for i := 0; i < iters; i++ {
			imsi := imsis[rng.Intn(nUE)]
			_ = c.Detach(imsi)
			_, _, _ = c.Attach(imsi, packet.BSID(rng.Intn(4)))
		}
	})
	// Topology churn: fail and recover the switch feeding stations 2 and 3,
	// forcing full recomputations under everyone else's feet.
	spawn(300, func(rng *rand.Rand) {
		for i := 0; i < 12; i++ {
			if _, err := c.FailSwitch(n.cs3); err != nil {
				t.Errorf("FailSwitch: %v", err)
				return
			}
			if _, err := c.RecoverSwitch(n.cs3); err != nil {
				t.Errorf("RecoverSwitch: %v", err)
				return
			}
		}
	})
	wg.Wait()

	// Quiesce mobility before verifying: expire every reserved old LocIP
	// (the soft timeout ReleaseOldLocIP models). While a reservation is
	// live, its address legitimately traces to the UE's new station through
	// shortcut overrides — steady-state verification wants those gone.
	c.ueMu.RLock()
	reserved := make([]packet.Addr, 0, len(c.reservations))
	for loc := range c.reservations {
		reserved = append(reserved, loc)
	}
	c.ueMu.RUnlock()
	for _, loc := range reserved {
		c.ReleaseOldLocIP(loc, nil)
	}

	// Invariant 1: every installed path still verifies against the FIBs.
	in := c.Installer
	for key, rec := range installedPaths(c) {
		if err := in.VerifyPath(rec); err != nil {
			t.Fatalf("path (bs %d, clause %d) broken after stress: %v", key.bs, key.clause, err)
		}
	}
	// Invariant 2: rule accounting is consistent with the tables.
	hw, sw := in.TableSizes()
	if hw.Total()+sw.Total() != in.Stats().Rules {
		t.Fatalf("rule accounting mismatch after stress: tables=%d stats=%d",
			hw.Total()+sw.Total(), in.Stats().Rules)
	}
	// And with the dust settled the controller answers every combination
	// with the tag of the path it files.
	for bs := packet.BSID(0); bs < 4; bs++ {
		for _, cl := range clauses {
			tag, err := c.RequestPath(bs, cl)
			if err != nil || tag == 0 || tag != c.paths.get(pathKey{bs, cl}).AccessTag() {
				t.Fatalf("RequestPath(%d, %d) after stress: tag %d, %v", bs, cl, tag, err)
			}
		}
	}
}

// TestRequestPathFastPathZeroAllocs pins the headline property of the
// lock-free table read: a steady-state path request allocates nothing.
func TestRequestPathFastPathZeroAllocs(t *testing.T) {
	c, _ := testController(t)
	clauses := allowClauses(c.Policy)
	for bs := packet.BSID(0); bs < 4; bs++ {
		for _, cl := range clauses {
			if _, err := c.RequestPath(bs, cl); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.RequestPath(2, clauses[0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state RequestPath allocates %.1f/op, want 0", allocs)
	}

}
