package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
)

// ErrOverload marks a request shed by class under pressure: the shard's
// slot occupancy crossed the class's threshold, so lower-value
// work is refused before it can crowd out handoffs.
var ErrOverload = errors.New("shard: overloaded, request shed")

// ErrThrottled marks a request refused by a station's token bucket: that
// agent is sending faster than its provisioned control-plane rate.
var ErrThrottled = errors.New("shard: agent rate limit exceeded")

// ErrCircuitOpen marks a request refused without touching the shard at
// all: the shard's circuit breaker is open after repeated infrastructure
// failures and has not yet half-opened for a probe.
var ErrCircuitOpen = errors.New("shard: circuit breaker open")

// Class ranks request classes for load shedding (§3's control-plane
// priorities): handoffs outrank new attaches, which outrank bearer/path
// updates — under pressure the cheap-to-retry work goes first.
type Class uint8

const (
	ClassBearer  Class = iota // path/bearer/resolve updates: shed first
	ClassAttach               // new attaches
	ClassHandoff              // handoffs: shed last
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassBearer:
		return "bearer"
	case ClassAttach:
		return "attach"
	case ClassHandoff:
		return "handoff"
	}
	return "unknown"
}

// classOf maps an op kind to its shedding class.
func classOf(k opKind) Class {
	switch k {
	case opAttach:
		return ClassAttach
	case opHandoff:
		return ClassHandoff
	default:
		return ClassBearer
	}
}

// protectedOp reports whether a kind bypasses admission control entirely:
// the two-phase migration internals (extract/adopt), failover absorption,
// recovery, and snapshot export must never be shed — refusing them
// mid-protocol would strand UE state between shards.
func protectedOp(k opKind) bool {
	switch k {
	case opExtract, opAdopt, opAbsorb, opRecover, opView:
		return true
	}
	return false
}

// Admission parameterises a shard's overload protection. The zero value
// disables every mechanism, so existing callers see no behaviour change.
type Admission struct {
	// Shed thresholds are occupancy fractions in (0,1]; a class is refused
	// with ErrOverload once the operations inside the shard number at
	// least threshold*Config.QueueLen.
	// Zero disables shedding for that class. Sensible configs order them
	// ShedBearer < ShedAttach < ShedHandoff.
	ShedBearer  float64
	ShedAttach  float64
	ShedHandoff float64

	// AgentRate is each station's sustained control-request budget in
	// requests/sec, with AgentBurst as the bucket depth (defaults to
	// AgentRate when zero). Zero AgentRate disables per-agent throttling.
	AgentRate  float64
	AgentBurst float64

	// BreakerFailures is how many consecutive infrastructure failures
	// (ErrShardDown) trip the circuit breaker; zero disables it.
	// BreakerCooldown is how long (ns) an open breaker waits before
	// half-opening to let one probe through.
	BreakerFailures int
	BreakerCooldown int64

	// Now supplies monotonic nanoseconds for the buckets and breaker;
	// nil uses the wall clock. Tests and the deterministic harness
	// inject virtual time here.
	Now func() int64
}

// Breaker states, exported through the shard.<id>.breaker.state gauge.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// bucket is one station's token bucket.
type bucket struct {
	tokens float64
	last   int64
}

// admission is a shard's live overload-protection state. The breaker runs
// on atomics (it sits on the request path); the token-bucket map is behind
// a mutex, touched only when per-agent throttling is enabled.
type admission struct {
	cfg Admission
	now func() int64

	mu      sync.Mutex
	buckets map[packet.BSID]*bucket // guarded by mu

	state    atomic.Int32 // breakerClosed/breakerOpen/breakerHalfOpen
	fails    atomic.Int32 // consecutive infrastructure failures
	openedAt atomic.Int64

	obs admObs
}

func newAdmission(cfg Admission, ao admObs) *admission {
	if cfg.AgentBurst <= 0 {
		cfg.AgentBurst = cfg.AgentRate
	}
	now := cfg.Now
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	return &admission{cfg: cfg, now: now, buckets: make(map[packet.BSID]*bucket), obs: ao}
}

// shedThreshold returns the occupancy fraction above which a class sheds.
func (a *admission) shedThreshold(c Class) float64 {
	switch c {
	case ClassAttach:
		return a.cfg.ShedAttach
	case ClassHandoff:
		return a.cfg.ShedHandoff
	default:
		return a.cfg.ShedBearer
	}
}

// admit runs the full admission pipeline for one unprotected request:
// breaker, class shedding against current slot occupancy, then the
// station's token bucket. A nil error admits the request to the shard.
func (a *admission) admit(k opKind, bs packet.BSID, depth, capacity int) error {
	if protectedOp(k) {
		return nil
	}
	if err := a.breakerAllow(); err != nil {
		return err
	}
	c := classOf(k)
	if th := a.shedThreshold(c); th > 0 && float64(depth) >= th*float64(capacity) {
		a.obs.shed[c].Inc()
		return fmt.Errorf("shard: %s shed at occupancy %d/%d: %w", c, depth, capacity, ErrOverload)
	}
	if bs != 0 && a.cfg.AgentRate > 0 {
		if !a.takeToken(bs) {
			a.obs.throttled.Inc()
			return fmt.Errorf("shard: bs%d over %.0f req/s: %w", bs, a.cfg.AgentRate, ErrThrottled)
		}
	}
	return nil
}

// takeToken refills and draws from one station's bucket.
func (a *admission) takeToken(bs packet.BSID) bool {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.buckets[bs]
	if !ok {
		b = &bucket{tokens: a.cfg.AgentBurst, last: now}
		a.buckets[bs] = b
	}
	if dt := now - b.last; dt > 0 {
		b.tokens += float64(dt) * a.cfg.AgentRate / 1e9
		if b.tokens > a.cfg.AgentBurst {
			b.tokens = a.cfg.AgentBurst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// breakerAllow gates one request through the circuit breaker. An open
// breaker fails fast until the cooldown elapses, then CASes to half-open
// and lets exactly one probe through; half-open refuses everyone else
// until the probe reports back.
func (a *admission) breakerAllow() error {
	if a.cfg.BreakerFailures <= 0 {
		return nil
	}
	switch a.state.Load() {
	case breakerClosed:
		return nil
	case breakerOpen:
		if a.now()-a.openedAt.Load() >= a.cfg.BreakerCooldown &&
			a.state.CompareAndSwap(breakerOpen, breakerHalfOpen) {
			a.obs.breakerState.Set(int64(breakerHalfOpen))
			return nil // this caller is the probe
		}
	case breakerHalfOpen:
		// A probe is already in flight.
	}
	a.obs.breakerFastFail.Inc()
	return fmt.Errorf("shard: %w", ErrCircuitOpen)
}

// result feeds one completed request's outcome back into the breaker.
// Only infrastructure failures (a dead shard) count against it; policy
// errors are healthy answers.
func (a *admission) result(err error, isProtected bool) {
	if a.cfg.BreakerFailures <= 0 || isProtected {
		return
	}
	infra := errors.Is(err, ErrShardDown)
	if a.state.Load() == breakerHalfOpen {
		// The probe's verdict decides: recovery closes, failure re-opens.
		if infra {
			a.trip()
		} else {
			a.state.Store(breakerClosed)
			a.fails.Store(0)
			a.obs.breakerState.Set(int64(breakerClosed))
		}
		return
	}
	if !infra {
		a.fails.Store(0)
		return
	}
	if a.fails.Add(1) >= int32(a.cfg.BreakerFailures) {
		a.trip()
	}
}

// trip opens the breaker (idempotent; FailShard calls it directly so a
// declared-dead shard fails fast without waiting for organic failures).
func (a *admission) trip() {
	if a.cfg.BreakerFailures <= 0 {
		return
	}
	a.openedAt.Store(a.now())
	a.fails.Store(0)
	if a.state.Swap(breakerOpen) != breakerOpen {
		a.obs.breakerTrips.Inc()
	}
	a.obs.breakerState.Set(int64(breakerOpen))
}

// BreakerOpen reports whether the shard's circuit breaker is currently
// refusing requests (open or probing half-open).
func (s *Shard) BreakerOpen() bool {
	return s.adm.state.Load() != breakerClosed
}
