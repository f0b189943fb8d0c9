package shard

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/packet"
)

// Nothing returns these three; the benchmark still names them
// (bench/run.go), and they go with ROADMAP item 8(a).
var (
	ErrOverload    = errors.New("shard: overloaded, request shed")
	ErrThrottled   = errors.New("shard: agent rate limit exceeded")
	ErrCircuitOpen = errors.New("shard: circuit breaker open")
)

// Shard is one partition of the control plane: a restricted controller
// owning a disjoint set of base stations. Every operation runs on the
// calling goroutine, straight into the controller, which synchronises
// internally with fine-grained domain locks (UE state, allocation, rule
// table) and a lock-free tag cache on the path-request fast path. What
// stands in front of the controller is the safety the shard owes its
// callers (enter): the dead-shard check and a bound on the operations
// inside the shard at once. Partitioning means even the controller's
// narrow locks are only ever contended by callers of this shard's
// stations — never across shards.
type Shard struct {
	ID   int
	Ctrl *core.Controller
	// Stations is the disjoint base-station set this shard owned at
	// construction (failover may extend the live set; see Ctrl.Stations).
	Stations []packet.BSID

	// slots is a counting semaphore: one token per operation inside the
	// shard, capacity Config.QueueLen. A caller arriving at the bound
	// blocks in enter until another leaves.
	slots  chan struct{}
	dead   atomic.Bool
	closed sync.Once
	served atomic.Uint64
	obs    shardObs
}

func newShard(id int, ctrl *core.Controller, stations []packet.BSID, queueLen int, so shardObs) *Shard {
	return &Shard{
		ID:       id,
		Ctrl:     ctrl,
		Stations: stations,
		slots:    make(chan struct{}, queueLen),
		obs:      so,
	}
}

// Served reports the number of requests this shard has completed.
func (s *Shard) Served() uint64 { return s.served.Load() }

// Down reports whether the shard has been declared failed (or closed).
func (s *Shard) Down() bool { return s.dead.Load() }

// enter brings one operation into the shard: the dead-shard check, then a
// slot, blocking while the shard is at its bound. A shard that failed while
// the caller waited refuses it all the same. On a nil error the caller owns
// a slot and must leave with the operation's result.
func (s *Shard) enter() error {
	if s.dead.Load() {
		return core.ErrShardDown
	}
	s.obs.depth.Add(1)
	s.slots <- struct{}{}
	if s.dead.Load() {
		<-s.slots
		s.obs.depth.Add(-1)
		return core.ErrShardDown
	}
	return nil
}

// leave ends an operation enter let in: it frees the slot, counts the
// operation served, and returns err.
func (s *Shard) leave(err error) error {
	<-s.slots
	s.obs.depth.Add(-1)
	s.served.Add(1)
	return err
}

// The operations below are the controller's own, each bracketed by
// enter/leave. sc parents the controller's sections under the caller's
// trace; the untraced ones are rare or protocol-internal work.

func (s *Shard) requestPath(sc obs.SpanContext, bs packet.BSID, clause int) (packet.Tag, error) {
	if err := s.enter(); err != nil {
		return 0, err
	}
	tag, err := s.Ctrl.RequestPathCtx(sc, bs, clause)
	return tag, s.leave(err)
}

func (s *Shard) attach(sc obs.SpanContext, imsi string, bs packet.BSID) (core.UE, []core.Classifier, error) {
	if err := s.enter(); err != nil {
		return core.UE{}, nil, err
	}
	ue, cls, err := s.Ctrl.AttachCtx(sc, imsi, bs)
	return ue, cls, s.leave(err)
}

func (s *Shard) handoff(sc obs.SpanContext, imsi string, bs packet.BSID) (core.HandoffResult, error) {
	if err := s.enter(); err != nil {
		return core.HandoffResult{}, err
	}
	hr, err := s.Ctrl.HandoffCtx(sc, imsi, bs)
	return hr, s.leave(err)
}

func (s *Shard) detach(imsi string) error {
	if err := s.enter(); err != nil {
		return err
	}
	return s.leave(s.Ctrl.Detach(imsi))
}

func (s *Shard) resolveLocIP(perm packet.Addr) (packet.Addr, error) {
	if err := s.enter(); err != nil {
		return 0, err
	}
	addr, err := s.Ctrl.ResolveLocIP(perm)
	return addr, s.leave(err)
}

// extract runs phase one of a migration on this (source) shard.
func (s *Shard) extract(imsi string) (core.MigratedUE, error) {
	if err := s.enter(); err != nil {
		return core.MigratedUE{}, err
	}
	mig, err := s.Ctrl.ExtractUE(imsi)
	return mig, s.leave(err)
}

// adopt runs phase two of a migration on this (target) shard.
func (s *Shard) adopt(mig core.MigratedUE, bs packet.BSID) (core.UE, []core.Classifier, error) {
	if err := s.enter(); err != nil {
		return core.UE{}, nil, err
	}
	ue, cls, err := s.Ctrl.AdoptUE(mig, bs)
	return ue, cls, s.leave(err)
}

func (s *Shard) absorb(bs packet.BSID, ues []core.UE) error {
	if err := s.enter(); err != nil {
		return err
	}
	return s.leave(s.Ctrl.AbsorbStation(bs, ues))
}

func (s *Shard) recoverLocations(reports []core.AgentLocationReport) error {
	if err := s.enter(); err != nil {
		return err
	}
	return s.leave(s.Ctrl.RecoverLocations(reports))
}

func (s *Shard) agentView(bs packet.BSID) (core.AgentView, error) {
	if err := s.enter(); err != nil {
		return core.AgentView{}, err
	}
	view, err := s.Ctrl.AgentView(bs)
	return view, s.leave(err)
}

// close stops the shard: later callers are refused with core.ErrShardDown, and
// taking every slot waits out the operations still inside. Handing them back
// lets a caller blocked at the bound take one, see the shard dead and leave
// with core.ErrShardDown instead of waiting forever. Only the first call acts.
func (s *Shard) close() {
	s.closed.Do(func() {
		s.dead.Store(true)
		for i := 0; i < cap(s.slots); i++ {
			s.slots <- struct{}{}
		}
		for i := 0; i < cap(s.slots); i++ {
			<-s.slots
		}
	})
}
