package fastpath

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/switchsim"
)

// mutate applies one random change to sw's tables: a TCAM Install, Remove,
// ReplaceTCAM or Splice, or a microflow install or removal among flows.
func mutate(rng *rand.Rand, sw *switchsim.Switch, flows []packet.FlowKey) {
	switch rng.Intn(6) {
	case 0:
		sw.Install(rng.Intn(900), genMatch(rng), genAction(rng))
	case 1:
		if rules := sw.Rules(); len(rules) > 0 {
			sw.Remove(rules[rng.Intn(len(rules))].ID)
		}
	case 2:
		sw.InstallMicroflow(flows[rng.Intn(len(flows))], genAction(rng))
	case 3:
		sw.RemoveMicroflow(flows[rng.Intn(len(flows))])
	case 4:
		var rules []switchsim.Rule
		for _, s := range genSpecs(rng, rng.Intn(16)) {
			rules = append(rules, switchsim.Rule{Priority: s.prio, Match: s.m, Action: s.a})
		}
		sw.ReplaceTCAM(rules)
	case 5:
		var edits []switchsim.Edit
		for _, r := range sw.Rules() {
			if rng.Intn(4) == 0 {
				edits = append(edits, switchsim.Edit{Remove: true, Rule: r})
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			edits = append(edits, switchsim.Edit{Rule: switchsim.Rule{Priority: rng.Intn(900), Match: genMatch(rng), Action: genAction(rng)}})
		}
		sw.Splice(edits) // refused after an Install or Remove; then nothing moved
	}
}

// attribution maps each live rule a tally charged to what it was charged.
func attribution(s *Snapshot, t *tally) map[*switchsim.Rule]ruleAcc {
	out := make(map[*switchsim.Rule]ruleAcc, len(t.touched))
	for _, slot := range t.touched {
		out[s.ruleAt(slot).live] = t.acc[slot]
	}
	return out
}

// checkReuse drives a random switch through random interleavings of
// microflow and TCAM mutations. After each round the FIB's snapshot —
// recompiled from the one before it, reusing what did not change — must
// agree with a fresh Compile on every packet: verdict, header rewrites,
// pipeline tallies and the live rule each packet is charged to. It reports
// how many rounds shared the previous snapshot's compiled TCAM and its
// microflow index.
func checkReuse(t *testing.T, rng *rand.Rand) (sharedTCAM, sharedMicro int) {
	t.Helper()
	sw := buildSwitch(genSpecs(rng, rng.Intn(16)), genAction(rng))
	pkts := make([]*packet.Packet, 32)
	var flows []packet.FlowKey
	for i := range pkts {
		pkts[i] = genPacket(rng)
		if i%4 == 0 {
			flows = append(flows, pkts[i].Flow())
		}
	}
	fib := NewFIB(sw)
	prev := fib.Acquire()
	for round := 0; round < 24; round++ {
		for k := rng.Intn(3); k >= 0; k-- {
			mutate(rng, sw, flows)
		}
		reused, fresh := fib.Acquire(), Compile(sw)
		if reused.Gen != fresh.Gen || reused.NumRules() != fresh.NumRules() || reused.NumMicroflows() != fresh.NumMicroflows() {
			t.Fatalf("round %d: reused snapshot gen %d, %d rules, %d microflows; fresh gen %d, %d, %d", round,
				reused.Gen, reused.NumRules(), reused.NumMicroflows(), fresh.Gen, fresh.NumRules(), fresh.NumMicroflows())
		}
		if len(prev.tcam) > 0 && len(reused.tcam) > 0 && &prev.tcam[0] == &reused.tcam[0] {
			sharedTCAM++
		}
		if len(prev.mrul) > 0 && len(reused.mrul) > 0 && &prev.mrul[0] == &reused.mrul[0] {
			sharedMicro++
		}
		var tr, tf tally
		tr.ensure(reused.slots())
		tf.ensure(fresh.slots())
		for i, p := range pkts {
			inPort := rng.Intn(4)
			a, b := *p, *p
			vr, vf := reused.lookup(&a, inPort, &tr), fresh.lookup(&b, inPort, &tf)
			if vr != vf || !headerEq(&a, &b) {
				t.Fatalf("round %d packet %d: reused snapshot %+v %v, fresh %+v %v", round, i, vr, &a, vf, &b)
			}
		}
		if tr.stats != tf.stats {
			t.Fatalf("round %d: reused snapshot tallied %+v, fresh %+v", round, tr.stats, tf.stats)
		}
		ar, af := attribution(reused, &tr), attribution(fresh, &tf)
		if len(ar) != len(af) {
			t.Fatalf("round %d: reused snapshot charged %d rules, fresh %d", round, len(ar), len(af))
		}
		for live, acc := range af {
			if ar[live] != acc {
				t.Fatalf("round %d: rule %v charged %+v by the reused snapshot, %+v by a fresh one", round, live, ar[live], acc)
			}
		}
		prev = reused
	}
	return sharedTCAM, sharedMicro
}

// TestSnapshotReuseQuick is the property test of the reusing recompile:
// for arbitrary tables and mutation sequences it is indistinguishable from
// a fresh Compile, and the runs do share both tables.
func TestSnapshotReuseQuick(t *testing.T) {
	tcam, micro := 0, 0
	f := func(seed int64) bool {
		st, sm := checkReuse(t, rand.New(rand.NewSource(seed)))
		tcam, micro = tcam+st, micro+sm
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if tcam == 0 || micro == 0 {
		t.Fatalf("%d recompiles shared the compiled TCAM and %d the microflow index; the test exercised no reuse", tcam, micro)
	}
}

// FuzzSnapshotReuse drives the same check from fuzzed seeds.
func FuzzSnapshotReuse(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(37))
	f.Add(int64(-424242))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkReuse(t, rand.New(rand.NewSource(seed)))
	})
}
