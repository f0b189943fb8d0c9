package fastpath

import (
	"fmt"

	"repro/internal/dirty"
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

// Net is a whole topology for the fast path: the switches, whose views it
// walks, and the link tables. It is safe for any number of concurrent
// walkers; it holds no mutable state but the set Warm drains.
type Net struct {
	sws      []*switchsim.Switch
	changed  *dirty.Set // the switches whose tables changed since the last Warm
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

// NewNet assembles the topology. The switches seal their views on first
// use, so construction is cheap.
func NewNet(cfg NetConfig) *Net {
	n := &Net{
		sws:      cfg.Switches,
		links:    cfg.Links,
		tunnels:  cfg.Tunnels,
		slowExit: cfg.SlowExit,
		maxHops:  int32(HopBudget(len(cfg.Switches))),
		o:        newFPObs(cfg.Obs),
	}
	n.changed = dirty.New(len(cfg.Switches))
	for i, sw := range cfg.Switches {
		sw.Watch(n.changed, i)
	}
	return n
}

// Warm seals now the view of every switch whose tables changed since the
// last Warm (at first, of every switch), so the next burst pays no seal,
// and reports how many switches it examined: it does not look at the
// others. Control-plane sync points call it after table changes. A switch
// that changes later is still never served stale: its next View seals it.
func (n *Net) Warm() int {
	examined := 0
	n.changed.Drain(func(i int) bool {
		examined++
		n.sws[i].View()
		return true
	})
	return examined
}

// Step runs one packet arriving on inPort through node's current view:
// the single-packet form of a burst walk's switch step, with the same
// verdict and header rewrites as switchsim.Process. A hit is accounted
// straight to the live entry and the pipeline stats to the switch, so
// nothing is left to flush.
//
// hotpath: no alloc, no lock
func (n *Net) Step(node int, p *packet.Packet, inPort int) switchsim.Verdict {
	sw := n.sws[node]
	t := tally{direct: true}
	v := lookup(sw.View(), p, inPort, &t)
	sw.AccountBurst(t.stats)
	return v
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

// job is one burst in flight: pkts entering at origin on inPort, with
// one Result per packet (len(res) equals len(pkts)).
type job struct {
	origin int
	inPort int
	pkts   []*packet.Packet
	res    []Result
}

// group is a set of burst packets that share (node, inPort) mid-walk.
type group struct {
	node   int32
	inPort int32
	idx    []int32
}

// scratch is one worker's reusable walk state: the group queue, walked
// from head so it keeps its capacity from burst to burst, and a free list
// of index slices, so steady-state walks allocate nothing.
type scratch struct {
	queue []group // queue[head:] is pending; queue[:head] was stepped this burst
	head  int
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
// the whole group traverses a switch with one load of its view, then
// continuing packets regroup by next (node, inPort) and the frontier
// repeats. Hop counts accrue per packet in res.
func (n *Net) walkBurst(sc *scratch, j *job) {
	n.o.walked(len(j.pkts))
	//lint:ignore hotpath warm-up growth of the free list (see scratch.get); the compiler reports the inlined make here
	first := sc.get()
	for i := range j.pkts {
		j.res[i] = Result{}
		first = append(first, int32(i))
	}
	sc.queue = append(sc.queue[:0], group{node: int32(j.origin), inPort: int32(j.inPort), idx: first})

	for sc.head = 0; sc.head < len(sc.queue); {
		g := sc.queue[sc.head]
		sc.head++
		n.stepGroup(sc, j, g)
		sc.put(g.idx)
	}
}

// stepGroup runs one group through one switch and enqueues the survivors.
func (n *Net) stepGroup(sc *scratch, j *job, g group) {
	sw := n.sws[g.node]
	view := sw.View()
	//lint:ignore hotpath accumulator grows only when a newly sealed view gains slots (see tally.ensure)
	sc.t.ensure(slots(view))
	t := &sc.t
	links := n.links[g.node]
	for _, i := range g.idx {
		p := j.pkts[i]
		r := &j.res[i]
		r.Hops++
		r.Last = g.node
		if r.Hops > n.maxHops {
			r.Disp = DispLoop
			n.o.loop()
			continue
		}
		v := lookup(view, p, int(g.inPort), t)
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
	flush(sw, view, &sc.t)
	n.o.burst(len(g.idx))
}

// forward appends packet i to the pending group for (node, inPort),
// creating it if no pending group heads there yet.
func (n *Net) forward(sc *scratch, j *job, i, node int32, inPort int) {
	for k := sc.head; k < len(sc.queue); k++ {
		if sc.queue[k].node == node && sc.queue[k].inPort == int32(inPort) {
			sc.queue[k].idx = append(sc.queue[k].idx, i)
			return
		}
	}
	//lint:ignore hotpath warm-up growth of the free list (see scratch.get); the compiler reports the inlined make here
	idx := sc.get()
	sc.queue = append(sc.queue, group{node: node, inPort: int32(inPort), idx: append(idx, i)})
}

// Walker is a caller-owned walk handle: Walk runs the burst in the
// calling goroutine against the walker's private scratch, so steady-state
// walks allocate nothing and share no mutable state with other walkers.
// Any number of goroutines may walk the same Net concurrently; each needs
// its own Walker.
type Walker struct {
	n  *Net
	sc scratch
	j  job
}

// NewWalker returns a walk handle on the topology.
func (n *Net) NewWalker() *Walker { return &Walker{n: n} }

// Walk runs one burst entering at origin on inPort in the calling
// goroutine. res must have len(pkts) entries; the same slice is returned
// filled.
//
// hotpath: no alloc, no lock
func (w *Walker) Walk(origin, inPort int, pkts []*packet.Packet, res []Result) []Result {
	w.j = job{origin: origin, inPort: inPort, pkts: pkts, res: res}
	w.n.walkBurst(&w.sc, &w.j)
	return res
}

// Engine is a handle on a Net. It runs nothing of its own: bursts walk
// through a Walker and single packets through Net.Step.
type Engine struct {
	net *Net
}

// NewEngine wraps net.
func NewEngine(net *Net) *Engine { return &Engine{net: net} }

// Net returns the engine's topology.
func (e *Engine) Net() *Net { return e.net }
