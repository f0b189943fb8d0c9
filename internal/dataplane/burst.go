package dataplane

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fastpath"
	"repro/internal/packet"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// fastConfig compiles the topology into the fast path's view: one link
// table per node (egress port -> neighbour and its return port) and the
// mobility-tunnel targets. Middlebox attachment ports sit beyond each
// link table, so packets heading there fall to the slow path; a gateway
// NAT forces exiting packets there too (translation is stateful).
func (n *Network) fastConfig() fastpath.NetConfig {
	links := make([][]fastpath.Link, len(n.T.Nodes))
	for i := range n.T.Nodes {
		nb := n.T.Nodes[i].Neighbors
		row := make([]fastpath.Link, len(nb))
		for p, next := range nb {
			row[p] = fastpath.Link{
				Next:   int32(next),
				InPort: int32(n.T.Nodes[next].PortTo(topo.NodeID(i))),
			}
		}
		links[i] = row
	}
	tunnels := make(map[packet.BSID]int32, len(n.T.Stations))
	for _, st := range n.T.Stations {
		tunnels[st.ID] = int32(st.Access)
	}
	return fastpath.NetConfig{
		Switches: n.Switches,
		Links:    links,
		Tunnels:  tunnels,
		SlowExit: n.GatewayNAT != nil,
		Obs:      n.reg,
	}
}

// EnableFastPath compiles the fast-path topology view and starts a
// burst-forwarding engine with the given worker count. Call Instrument
// first to attach telemetry. A prior engine is stopped and replaced.
func (n *Network) EnableFastPath(workers int) *fastpath.Engine {
	if n.fast != nil {
		n.fast.Close()
	}
	n.fast = fastpath.NewEngine(fastpath.NewNet(n.fastConfig()), workers)
	return n.fast
}

// FastEngine returns the running engine, nil before EnableFastPath.
func (n *Network) FastEngine() *fastpath.Engine { return n.fast }

// DisableFastPath stops the engine's workers.
func (n *Network) DisableFastPath() {
	if n.fast != nil {
		n.fast.Close()
		n.fast = nil
	}
}

// BurstOutcome is one packet's end-to-end outcome from a burst send.
type BurstOutcome struct {
	Disposition Disposition
	Last        topo.NodeID
	Hops        int  // switch traversals
	Slow        bool // finished on the stateful slow path
}

// BurstSender is one goroutine's handle for burst injection: it owns the
// walk-result and header-restore scratch, so steady-state sends allocate
// nothing. Concurrent senders are safe while their traffic stays on the
// fast path (established flows, no middleboxes or NAT on the path);
// packets that punt or hit stateful elements replay through the
// Network's single-threaded slow path, so bursts carrying them must not
// run concurrently with other injection. Control ops and Sync on another
// goroutine do not disturb fast-path senders: Sync swaps a changed
// switch's table in whole, so a burst walks the table from before the op
// or the one after it.
type BurstSender struct {
	n    *Network
	w    *fastpath.Walker
	res  []fastpath.Result
	orig []packet.Packet
}

// NewBurstSender returns an injection handle; EnableFastPath must have
// run. Each concurrent sending goroutine needs its own handle. Sends walk
// the fast path synchronously in the caller's goroutine (no engine-queue
// handoff); the engine's worker queues serve asynchronous Submit traffic.
func (n *Network) NewBurstSender() (*BurstSender, error) {
	if n.fast == nil {
		return nil, fmt.Errorf("dataplane: fast path not enabled")
	}
	return &BurstSender{n: n, w: n.fast.Net().NewWalker()}, nil
}

// Send injects a burst of packets a UE sends at its base station and
// reports each packet's end-to-end outcome, reusing out when it has the
// capacity. The burst walks the fast path; any packet the fast path
// declines (punt, middlebox, NAT exit, hop overrun) has its original
// header restored and replays end-to-end through SendUpstream, so its
// final header and disposition match the single-packet path exactly.
func (s *BurstSender) Send(bs packet.BSID, pkts []*packet.Packet, out []BurstOutcome) ([]BurstOutcome, error) {
	n := s.n
	st, ok := n.T.Station(bs)
	if !ok {
		return out, fmt.Errorf("dataplane: unknown base station %d", bs)
	}
	if cap(s.res) < len(pkts) {
		s.res = make([]fastpath.Result, len(pkts))
		s.orig = make([]packet.Packet, len(pkts))
	}
	res := s.res[:len(pkts)]
	orig := s.orig[:len(pkts)]
	for i, p := range pkts {
		orig[i] = *p
	}
	s.w.Walk(int(st.Access), switchsim.PortUE, pkts, res)
	n.obs.burst(len(pkts))

	if cap(out) < len(pkts) {
		out = make([]BurstOutcome, len(pkts))
	}
	out = out[:len(pkts)]
	var delivered, exited, dropped uint64 // flushed once per burst
	for i := range res {
		r := res[i]
		o := &out[i]
		o.Last, o.Hops, o.Slow = topo.NodeID(r.Last), int(r.Hops), false
		switch r.Disp {
		case fastpath.DispDelivered:
			delivered++
			o.Disposition = Delivered
		case fastpath.DispExited:
			exited++
			o.Disposition = ExitedNet
		case fastpath.DispDropped:
			dropped++
			o.Disposition = DroppedAt
		default:
			// The fast path declined mid-walk (its rewrites already
			// applied); restore the injected header and replay from the
			// origin so the outcome equals the single-packet path. The
			// aborted prefix stays in the switch counters, as a real
			// punt-and-reinject would.
			*pkts[i] = orig[i]
			n.obs.slowPath()
			wr, err := n.SendUpstream(bs, pkts[i])
			if err != nil {
				atomic.AddUint64(&n.Delivered, delivered)
				atomic.AddUint64(&n.Exited, exited)
				atomic.AddUint64(&n.Dropped, dropped)
				return out, err
			}
			o.Disposition, o.Last = wr.Disposition, wr.Last
			o.Hops, o.Slow = len(wr.Hops), true
		}
	}
	if delivered > 0 {
		atomic.AddUint64(&n.Delivered, delivered)
	}
	if exited > 0 {
		atomic.AddUint64(&n.Exited, exited)
	}
	if dropped > 0 {
		atomic.AddUint64(&n.Dropped, dropped)
	}
	return out, nil
}
