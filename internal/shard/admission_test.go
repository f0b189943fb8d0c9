package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/topo"
)

// fakeClock is an injectable monotonic clock for the buckets and breaker.
type fakeClock struct{ ns int64 }

func (c *fakeClock) now() int64       { return c.ns }
func (c *fakeClock) advance(ns int64) { c.ns += ns }

func newTestAdmission(cfg Admission, reg *obs.Registry) *admission {
	return newAdmission(cfg, newAdmObs(reg, 0))
}

func TestShedByClass(t *testing.T) {
	reg := obs.New()
	adm := newTestAdmission(Admission{
		ShedBearer: 0.5, ShedAttach: 0.75, ShedHandoff: 0.9,
	}, reg)
	const capacity = 100
	cases := []struct {
		depth                   int
		bearer, attach, handoff bool // expect shed?
	}{
		{depth: 10},
		{depth: 60, bearer: true},
		{depth: 80, bearer: true, attach: true},
		{depth: 95, bearer: true, attach: true, handoff: true},
	}
	for _, tc := range cases {
		for _, op := range []struct {
			kind opKind
			shed bool
		}{
			{opPath, tc.bearer}, {opAttach, tc.attach}, {opHandoff, tc.handoff},
		} {
			err := adm.admit(op.kind, 1, tc.depth, capacity)
			if shed := errors.Is(err, ErrOverload); shed != op.shed {
				t.Errorf("depth %d, %s: shed=%v, want %v (err=%v)",
					tc.depth, classOf(op.kind), shed, op.shed, err)
			}
		}
		// Protected protocol internals are never shed, even at full queue.
		for _, k := range []opKind{opExtract, opAdopt, opAbsorb, opRecover, opView} {
			if err := adm.admit(k, 1, capacity, capacity); err != nil {
				t.Errorf("protected op %d shed at full queue: %v", k, err)
			}
		}
	}
	for name, want := range map[string]uint64{
		"shard.0.admission.shed.bearer":  3,
		"shard.0.admission.shed.attach":  2,
		"shard.0.admission.shed.handoff": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestAgentTokenBucket(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.New()
	adm := newTestAdmission(Admission{AgentRate: 10, AgentBurst: 2, Now: clk.now}, reg)
	take := func() error { return adm.admit(opPath, 7, 0, 100) }
	if err := take(); err != nil {
		t.Fatal(err)
	}
	if err := take(); err != nil {
		t.Fatal(err)
	}
	if err := take(); !errors.Is(err, ErrThrottled) {
		t.Fatalf("burst exhausted, err = %v, want ErrThrottled", err)
	}
	clk.advance(100_000_000) // 100ms at 10/s refills exactly one token
	if err := take(); err != nil {
		t.Fatal(err)
	}
	if err := take(); !errors.Is(err, ErrThrottled) {
		t.Fatalf("err = %v, want ErrThrottled", err)
	}
	// Another station has its own bucket.
	if err := adm.admit(opPath, 8, 0, 100); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("shard.0.admission.throttled").Value(); got != 2 {
		t.Fatalf("throttled = %d, want 2", got)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.New()
	adm := newTestAdmission(Admission{
		BreakerFailures: 3, BreakerCooldown: 1_000_000, Now: clk.now,
	}, reg)
	admit := func() error { return adm.admit(opPath, 1, 0, 100) }
	// Two failures, then a success: the consecutive count resets.
	adm.result(ErrShardDown, false)
	adm.result(ErrShardDown, false)
	adm.result(nil, false)
	if err := admit(); err != nil {
		t.Fatalf("breaker tripped early: %v", err)
	}
	// Three consecutive infrastructure failures trip it.
	for i := 0; i < 3; i++ {
		adm.result(ErrShardDown, false)
	}
	if err := admit(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	// After the cooldown exactly one probe passes; others still fail fast.
	clk.advance(1_000_000)
	if err := admit(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if err := admit(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second probe admitted during half-open: %v", err)
	}
	// A failed probe re-opens; a successful one closes.
	adm.result(ErrShardDown, false)
	if err := admit(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("failed probe should re-open the breaker")
	}
	clk.advance(1_000_000)
	if err := admit(); err != nil {
		t.Fatal(err)
	}
	adm.result(nil, false)
	if err := admit(); err != nil {
		t.Fatalf("successful probe should close the breaker: %v", err)
	}
	if got := reg.Counter("shard.0.breaker.trips").Value(); got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}
	if got := reg.Gauge("shard.0.breaker.state").Value(); got != int64(breakerClosed) {
		t.Fatalf("state gauge = %d, want closed", got)
	}
	// Protected results never feed the breaker.
	for i := 0; i < 10; i++ {
		adm.result(ErrShardDown, true)
	}
	if err := admit(); err != nil {
		t.Fatalf("protected failures tripped the breaker: %v", err)
	}
}

// TestFloodThroughTrippedBreaker is the -race overload scenario: a shard
// dies mid-flood (tripping its breaker), concurrent mixed-class requests
// keep hammering both partitions, and afterwards (a) every shed/refused
// request carries a typed admission error, (b) shed counters by class add
// up to exactly the refusals the callers saw, and (c) a cross-shard
// two-phase handoff still completes — protected protocol internals are
// never dropped mid-protocol.
func TestFloodThroughTrippedBreaker(t *testing.T) {
	g, err := topo.Generate(topo.GenParams{K: 2, ClusterSize: 10, MBTypes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	d, err := New(Config{
		Topology: g.Topology,
		Gateway:  g.GatewayID,
		Policy:   policy.ExampleCarrierPolicy(),
		MBTypes: map[string]topo.MBType{
			policy.MBFirewall: 0, policy.MBTranscoder: 1, policy.MBEchoCancel: 2,
		},
		Shards:   2,
		QueueLen: 8, // small queue so occupancy shedding actually engages
		Admission: Admission{
			ShedBearer: 0.5, ShedAttach: 0.75, ShedHandoff: 0.95,
			BreakerFailures: 4, BreakerCooldown: 1 << 60, // stays open once tripped
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	bsA, bsB := twoShardStations(t, d, g)
	clauses := allowClauses(t, d)

	// Seed subscribers; one UE per worker for attach/handoff traffic.
	const workers = 8
	for i := 0; i < workers; i++ {
		imsi := fmt.Sprintf("imsi-%d", i)
		if err := d.RegisterSubscriber(imsi, policy.Attributes{Provider: "p", DeviceType: "phone"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.Attach(imsi, bsA); err != nil {
			t.Fatal(err)
		}
	}

	victim, err := d.ShardOf(bsB)
	if err != nil {
		t.Fatal(err)
	}
	var refused [numClasses]uint64
	var refMu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			imsi := fmt.Sprintf("imsi-%d", i)
			var mine [numClasses]uint64
			for n := 0; n < 200; n++ {
				bs := bsA
				if n%2 == 1 {
					bs = bsB
				}
				var err error
				var class Class
				switch n % 3 {
				case 0:
					class = ClassBearer
					_, err = d.RequestPath(bs, clauses[n%len(clauses)])
				case 1:
					class = ClassHandoff
					_, err = d.Handoff(imsi, bs)
				default:
					class = ClassAttach
					_, _, err = d.Attach(imsi, bs)
				}
				if errors.Is(err, ErrOverload) || errors.Is(err, ErrThrottled) {
					mine[class]++
				}
				// Other errors are healthy policy answers ("already at
				// base station N") or the dead-shard window
				// (ErrShardDown/ErrCircuitOpen surfacing through retries).
				if n == 50 && i == 0 {
					if _, ferr := d.FailShard(victim.ID, nil); ferr != nil {
						t.Errorf("failover: %v", ferr)
					}
				}
			}
			refMu.Lock()
			for c, v := range mine {
				refused[c] += v
			}
			refMu.Unlock()
		}(i)
	}
	close(start)
	wg.Wait()

	if !victim.BreakerOpen() {
		t.Error("failed shard's breaker should be open")
	}
	// Shed counters must account exactly for the typed refusals callers saw.
	var counted [numClasses]uint64
	for _, id := range []int{0, 1} {
		for c, name := range map[Class]string{
			ClassBearer:  fmt.Sprintf("shard.%d.admission.shed.bearer", id),
			ClassAttach:  fmt.Sprintf("shard.%d.admission.shed.attach", id),
			ClassHandoff: fmt.Sprintf("shard.%d.admission.shed.handoff", id),
		} {
			counted[c] += reg.Counter(name).Value()
		}
	}
	for c := Class(0); c < numClasses; c++ {
		if counted[c] != refused[c] {
			t.Errorf("%s: shed counter = %d, callers saw %d", c, counted[c], refused[c])
		}
	}
	// The survivors still run the full two-phase cross-shard machinery:
	// a fresh attach at the moved station and a handoff back complete.
	if err := d.RegisterSubscriber("imsi-final", policy.Attributes{Provider: "p", DeviceType: "phone"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Attach("imsi-final", bsB); err != nil {
		t.Fatalf("post-failover attach: %v", err)
	}
	if _, err := d.Handoff("imsi-final", bsA); err != nil {
		t.Fatalf("post-failover handoff: %v", err)
	}
	if ue, ok := d.LookupUE("imsi-final"); !ok || ue.BS != bsA {
		t.Fatalf("handoff lost the UE mid-protocol: %+v ok=%v", ue, ok)
	}
}
