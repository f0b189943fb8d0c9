package fastpath

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/switchsim"
)

// Link is one egress-port edge in the compiled topology: the neighbour
// node the port leads to and the ingress port the packet arrives on
// there. Next < 0 marks a port the fast path does not own (middlebox
// attachment, unknown) — packets leaving through it take the slow path.
type Link struct {
	Next   int32
	InPort int32
}

// NoLink is the Next value of a port the fast path must not follow.
const NoLink int32 = -1

// NetConfig assembles a Net. The caller (internal/dataplane) supplies the
// per-node link tables and tunnel targets because it owns the topology
// and the middlebox port assignments.
type NetConfig struct {
	// Switches are the per-node switches, indexed by node ID.
	Switches []*switchsim.Switch
	// Links maps, per node, egress port -> link. Ports at or beyond the
	// slice, or with Next == NoLink, fall to the slow path.
	Links [][]Link
	// Tunnels maps a base-station ID to its access node, for the
	// inter-station mobility tunnel pseudo ports (PortTunnelBase + bs).
	Tunnels map[packet.BSID]int32
	// SlowExit forces PortExit verdicts to the slow path (the dataplane
	// sets it when a gateway NAT must translate exiting packets).
	SlowExit bool
	// Obs, when non-nil, registers fast-path telemetry. nil runs
	// uninstrumented at zero cost.
	Obs *obs.Registry
}

// Net is the compiled, immutable view of a whole topology: one FIB per
// switch plus the link tables. It is safe for any number of concurrent
// walkers; the only mutable state is the per-FIB snapshot pointer, which
// is lock-free.
type Net struct {
	fibs     []*FIB
	links    [][]Link
	tunnels  map[packet.BSID]int32
	slowExit bool
	maxHops  int32
	o        *fpObs
}

// HopBudget is the most switch traversals a packet may make on a
// topology of nodes switches before its walk is declared a forwarding
// loop. The burst walk here and the data plane's single-packet walk share
// it, so both give up on the same packets.
func HopBudget(nodes int) int { return 4*nodes + 32 }

// NewNet compiles the topology view. Snapshots are compiled lazily on
// first acquisition, so construction is cheap.
func NewNet(cfg NetConfig) *Net {
	n := &Net{
		links:    cfg.Links,
		tunnels:  cfg.Tunnels,
		slowExit: cfg.SlowExit,
		maxHops:  int32(HopBudget(len(cfg.Switches))),
		o:        newFPObs(cfg.Obs),
	}
	n.fibs = make([]*FIB, len(cfg.Switches))
	for i, sw := range cfg.Switches {
		n.fibs[i] = NewFIB(sw)
		n.fibs[i].instrument(n.o)
	}
	return n
}

// FIB returns node i's forwarding table.
func (n *Net) FIB(i int) *FIB { return n.fibs[i] }

// Warm recompiles every stale snapshot now, so the next burst pays no
// compile cost. Control-plane sync points call it after table rebuilds.
func (n *Net) Warm() {
	for _, f := range n.fibs {
		f.Acquire()
	}
}

// Disp classifies how one packet's fast-path walk ended.
type Disp uint8

// Dispositions. DispSlow and DispLoop are the fast path declining: a
// middlebox port, a NAT'd exit or an unknown port needs the stateful slow
// path, and a hop-budget overrun is the same forwarding-loop error the
// slow-path walk reports.
const (
	DispDelivered Disp = iota // handed to a UE at an access switch
	DispExited                // left through the gateway's Internet port
	DispDropped               // dropped (policy or table miss)
	DispPunted                // to-controller verdict (local agent resolves)
	DispSlow                  // needs the slow path; header state is mid-walk
	DispLoop                  // exceeded the hop budget
)

func (d Disp) String() string {
	switch d {
	case DispDelivered:
		return "delivered"
	case DispExited:
		return "exited"
	case DispDropped:
		return "dropped"
	case DispPunted:
		return "punted"
	case DispSlow:
		return "slowpath"
	case DispLoop:
		return "loop"
	default:
		return fmt.Sprintf("disp(%d)", uint8(d))
	}
}

// Result is one packet's walk outcome: the disposition, the node it ended
// at, and the number of switch traversals.
type Result struct {
	Disp Disp
	Last int32
	Hops int32
}

// Job is one burst handed to the engine: pkts entering at Origin on
// InPort. The worker fills Res (len(Res) must equal len(Pkts)) and then
// calls Done, if set. The caller must not touch Pkts or Res between
// Submit and Done.
type Job struct {
	Origin int
	InPort int
	Pkts   []*packet.Packet
	Res    []Result
	Done   func(*Job)
}

// group is a set of burst packets that share (node, inPort) mid-walk.
type group struct {
	node   int32
	inPort int32
	idx    []int32
}

// scratch is one worker's reusable walk state: the pending-group queue
// and a free list of index slices, so steady-state walks allocate
// nothing.
type scratch struct {
	queue []group
	free  [][]int32
	t     tally
}

func (sc *scratch) get() []int32 {
	if n := len(sc.free); n > 0 {
		s := sc.free[n-1]
		sc.free = sc.free[:n-1]
		return s[:0]
	}
	//lint:ignore hotpath warm-up only: every walked slice lands back on the free list
	return make([]int32, 0, 64)
}

func (sc *scratch) put(s []int32) {
	sc.free = append(sc.free, s)
}

// walkBurst drives one job's packets through the topology, burst-wise:
// the whole group traverses a switch with one snapshot acquisition, then
// continuing packets regroup by next (node, inPort) and the frontier
// repeats. Hop counts accrue per packet in Res.
func (n *Net) walkBurst(sc *scratch, j *Job) {
	n.o.walked(len(j.Pkts))
	//lint:ignore hotpath warm-up growth of the free list (see scratch.get); the compiler reports the inlined make here
	first := sc.get()
	for i := range j.Pkts {
		j.Res[i] = Result{}
		first = append(first, int32(i))
	}
	sc.queue = append(sc.queue[:0], group{node: int32(j.Origin), inPort: int32(j.InPort), idx: first})

	for len(sc.queue) > 0 {
		g := sc.queue[0]
		sc.queue = sc.queue[1:]
		n.stepGroup(sc, j, g)
		sc.put(g.idx)
	}
}

// stepGroup runs one group through one switch and enqueues the survivors.
func (n *Net) stepGroup(sc *scratch, j *Job, g group) {
	fib := n.fibs[g.node]
	snap := fib.Acquire()
	//lint:ignore hotpath accumulator grows only when a recompiled snapshot gains slots (see tally.ensure)
	sc.t.ensure(snap.slots())
	t := &sc.t
	links := n.links[g.node]
	for _, i := range g.idx {
		p := j.Pkts[i]
		r := &j.Res[i]
		r.Hops++
		r.Last = g.node
		if r.Hops > n.maxHops {
			r.Disp = DispLoop
			n.o.loop()
			continue
		}
		v := snap.lookup(p, int(g.inPort), t)
		switch {
		case v.ToController:
			r.Disp = DispPunted
		case v.Drop:
			r.Disp = DispDropped
		case v.Output == switchsim.PortUE:
			r.Disp = DispDelivered
		case v.Output == switchsim.PortExit:
			if n.slowExit {
				r.Disp = DispSlow
				n.o.slowPath()
			} else {
				r.Disp = DispExited
			}
		case v.Output >= switchsim.PortTunnelBase:
			bs := packet.BSID(v.Output - switchsim.PortTunnelBase)
			target, ok := n.tunnels[bs]
			if !ok {
				r.Disp = DispSlow
				n.o.slowPath()
				continue
			}
			n.forward(sc, j, i, target, switchsim.PortTunnelBase)
		case v.Output >= 0 && v.Output < len(links) && links[v.Output].Next >= 0:
			l := links[v.Output]
			n.forward(sc, j, i, l.Next, int(l.InPort))
		default:
			// Middlebox attachment port or a port the fast path does
			// not own: the stateful slow path finishes this packet.
			r.Disp = DispSlow
			n.o.slowPath()
		}
	}
	snap.flush(&sc.t)
	n.o.burst(len(g.idx))
}

// forward appends packet i to the pending group for (node, inPort),
// creating it if this is the first packet heading there this round.
func (n *Net) forward(sc *scratch, j *Job, i, node int32, inPort int) {
	for k := range sc.queue {
		if sc.queue[k].node == node && sc.queue[k].inPort == int32(inPort) {
			sc.queue[k].idx = append(sc.queue[k].idx, i)
			return
		}
	}
	//lint:ignore hotpath warm-up growth of the free list (see scratch.get); the compiler reports the inlined make here
	idx := sc.get()
	sc.queue = append(sc.queue, group{node: node, inPort: int32(inPort), idx: append(idx, i)})
}

// Walker is a caller-owned synchronous walk handle: Walk runs the burst
// in the calling goroutine against the walker's private scratch, so a
// synchronous sender pays no cross-goroutine handoff (the engine queues
// cost two scheduler switches per burst, which dominates once everything
// else is amortised). Any number of goroutines may walk the same Net
// concurrently; each needs its own Walker.
type Walker struct {
	n  *Net
	sc scratch
	j  Job
}

// NewWalker returns a synchronous walk handle on the topology.
func (n *Net) NewWalker() *Walker { return &Walker{n: n} }

// Walk runs one burst entering at origin on inPort in the calling
// goroutine. res must have len(pkts) entries; the same slice is returned
// filled.
//
// hotpath: no alloc, no lock
func (w *Walker) Walk(origin, inPort int, pkts []*packet.Packet, res []Result) []Result {
	w.j = Job{Origin: origin, InPort: inPort, Pkts: pkts, Res: res}
	w.n.walkBurst(&w.sc, &w.j)
	return res
}

// Engine drives N workers over per-worker burst queues. Each worker owns
// its scratch and touches only lock-free FIB snapshots, so steady-state
// forwarding shares no locks between workers or with the control plane.
type Engine struct {
	net *Net
	qs  []chan *Job
	wg  sync.WaitGroup
	rr  atomic.Uint32
}

// NewEngine starts workers goroutines, each consuming its own bounded
// burst queue. Close drains and stops them.
func NewEngine(net *Net, workers int) *Engine {
	if workers <= 0 {
		workers = 1
	}
	e := &Engine{net: net, qs: make([]chan *Job, workers)}
	for w := range e.qs {
		q := make(chan *Job, 64)
		e.qs[w] = q
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			var sc scratch
			for j := range q {
				net.walkBurst(&sc, j)
				if j.Done != nil {
					j.Done(j)
				}
			}
		}()
	}
	return e
}

// Workers reports the worker count.
func (e *Engine) Workers() int { return len(e.qs) }

// Net returns the engine's compiled topology view.
func (e *Engine) Net() *Net { return e.net }

// Submit enqueues a job round-robin across the worker queues.
func (e *Engine) Submit(j *Job) {
	w := int(e.rr.Add(1)-1) % len(e.qs)
	e.qs[w] <- j
}

// Forward is the synchronous convenience: it submits one burst and waits
// for the worker to finish it. res must have len(pkts) entries; the same
// slice is returned filled.
func (e *Engine) Forward(origin, inPort int, pkts []*packet.Packet, res []Result) []Result {
	var wg sync.WaitGroup
	wg.Add(1)
	j := Job{Origin: origin, InPort: inPort, Pkts: pkts, Res: res,
		Done: func(*Job) { wg.Done() }}
	e.Submit(&j)
	wg.Wait()
	return j.Res
}

// Close stops the workers after the queued jobs drain.
func (e *Engine) Close() {
	for _, q := range e.qs {
		close(q)
	}
	e.wg.Wait()
}
