package main

// wire_storm: Cbench (§6.2) as agents actually reach the controller — a
// sharded control plane behind ctrlproto on the host loopback interface,
// a few connections each kept at several requests in flight, nearly all
// of them tag-cache hits. Traffic crosses 127.0.0.1, not a real link.

import (
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ctrlproto"
	"repro/internal/obs"
	"repro/internal/packet"
)

const (
	wireSubscribers  = 20_000 // all attached
	wireSlotsPerConn = 4      // requests in flight per connection
	wireMaxConns     = 4
	// wireRoundRequests is a measured round at --seconds 10, all slots
	// together.
	wireRoundRequests = 250_000
	// wireReleaseAfter is how many further requests of its slot a
	// handoff's old LocIP stays reserved for (the §5.1 soft timeout).
	wireReleaseAfter = 64
	// Request mix in percent, the §6.1 ratio: the rest are path requests.
	wireHandoffPct = 2
	wireAttachPct  = 2
)

// wireSlot is one in-flight slot: a closed loop with one request
// outstanding, owning a disjoint window of stations and the UEs attached
// there, so no two slots ever touch one UE.
type wireSlot struct {
	rec      recorder
	rng      *rand.Rand
	cl       *ctrlproto.Client
	window   []int // stations
	ues      []int // subscriber indices
	at       []int // ues[i]'s current position in window
	sent     int64
	cross    int64 // handoffs that crossed shards
	releases []release
	ref      *opRef // traced runs: the op in flight, for the server-side decorator
}

// countingConn counts the client side's transport writes and bytes (the
// traced run's wire ledger).
type countingConn struct {
	net.Conn
	c *wireCounters
}

type wireCounters struct {
	writes, bytesOut, bytesIn atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.writes.Add(1)
	c.c.bytesOut.Add(int64(n))
	return n, err
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.bytesIn.Add(int64(n))
	return n, err
}

type wireStorm struct {
	cfg runConfig
	reg *obs.Registry
	tr  *tracer

	plant  *wirePlant
	slots  []*wireSlot
	deco   *tracedControlPlane // traced runs only
	counts wireCounters
}

func newWireStorm(cfg runConfig, reg *obs.Registry, tr *tracer) *wireStorm {
	return &wireStorm{cfg: cfg, reg: reg, tr: tr}
}

// wireConns is min(nproc, 4) connections.
func wireConns() int {
	n := runtime.NumCPU()
	if n > wireMaxConns {
		n = wireMaxConns
	}
	return n
}

const smallStations = smallC * smallK * smallK * smallK / 4

func (w *wireStorm) setup() error {
	conns := wireConns()
	nSlots := conns * wireSlotsPerConn
	span := smallStations / nSlots // stations per slot window
	initial := make([]int, wireSubscribers)
	w.slots = make([]*wireSlot, nSlots)
	for s := range w.slots {
		sl := &wireSlot{rng: rand.New(rand.NewSource(w.cfg.seed*1009 + int64(s))), rec: recorder{tr: w.tr, log: s}}
		for i := 0; i < span; i++ {
			sl.window = append(sl.window, s*span+i)
		}
		w.slots[s] = sl
	}
	for ue := range initial {
		sl := w.slots[ue%nSlots]
		pos := len(sl.ues) % len(sl.window)
		sl.ues = append(sl.ues, ue)
		sl.at = append(sl.at, pos)
		initial[ue] = sl.window[pos]
	}
	p, err := newCtrlPlant(ctrlPlantSpec{k: smallK, c: smallC, subscribers: wireSubscribers, initial: initial, obs: w.reg})
	if err != nil {
		return err
	}
	var cp ctrlproto.ControlPlane = p.d
	var wrap func(net.Conn) net.Conn
	if w.tr != nil {
		w.deco = &tracedControlPlane{inner: p.d, tr: w.tr, slotOf: make([]int, smallStations),
			cur: make([]opRef, nSlots), logBase: nSlots, lastNS: make([]atomic.Int64, nSlots)}
		for s, sl := range w.slots {
			for _, bs := range sl.window {
				w.deco.slotOf[bs] = s
			}
			sl.ref = &w.deco.cur[s]
		}
		cp = w.deco
		wrap = func(c net.Conn) net.Conn { return countingConn{c, &w.counts} }
	}
	wp, err := newWirePlant(p, cp, conns, wrap)
	if err != nil {
		p.close()
		return err
	}
	w.plant = wp
	perSlot := (measuredRounds + 1) * w.cfg.scaled(wireRoundRequests, nSlots) / nSlots
	for s, sl := range w.slots {
		sl.cl = wp.clients[s/wireSlotsPerConn]
		sl.rec.lat[latFlow] = make(samples, 0, perSlot)
		sl.rec.lat[latAttach] = make(samples, 0, perSlot/20)
		sl.rec.lat[latHandoff] = make(samples, 0, perSlot/20)
	}
	return nil
}

func (w *wireStorm) subscribers() int { return wireSubscribers }

func (w *wireStorm) recorders() []*recorder {
	out := make([]*recorder, len(w.slots))
	for i, sl := range w.slots {
		out[i] = &sl.rec
	}
	return out
}

func (w *wireStorm) close() {
	w.plant.closeWire()
	w.plant.close()
}

func (w *wireStorm) ruleTable() (int, int) { return w.plant.ruleTable() }

func (w *wireStorm) round(warmup bool) (roundStat, error) {
	perSlot := w.cfg.scaled(wireRoundRequests, len(w.slots)) / len(w.slots)
	if warmup {
		perSlot /= 4
	}
	var wg sync.WaitGroup
	m0 := mallocCount()
	start := clock()
	for _, sl := range w.slots {
		sl.rec.tally = tally{}
		wg.Add(1)
		go func(sl *wireSlot) {
			defer wg.Done()
			for i := 0; i < perSlot; i++ {
				w.request(sl)
			}
		}(sl)
	}
	wg.Wait()
	rs := roundStat{wallNS: clock() - start}
	rs.mallocs = mallocCount() - m0
	for _, sl := range w.slots {
		rs.tally.add(&sl.rec.tally)
	}
	// ops_per_s: requests per second of round wall time (the slots run
	// concurrently, so per-call times do not add up to elapsed time).
	rs.bulkOps, rs.bulkNS, rs.allocOps = rs.ctrlOps(), rs.wallNS, rs.ctrlOps()
	return rs, nil
}

// request issues one request of the seeded mix and waits for its reply.
func (w *wireStorm) request(sl *wireSlot) {
	p, r := w.plant, &sl.rec
	sl.sent++
	switch draw := sl.rng.Intn(100); {
	case draw < wireHandoffPct:
		u := sl.rng.Intn(len(sl.ues))
		next := (sl.at[u] + 1) % len(sl.window)
		dst := packet.BSID(sl.window[next])
		o, c := r.open(kHandoff)
		sl.publish(&o, c)
		hr, err := sl.cl.Handoff(p.imsis[sl.ues[u]], dst)
		if r.done(&o, sWireHandoff, c, 1, err) != nil {
			return
		}
		if s, err := p.d.ShardOf(dst); err == nil && hr.OldLocIP != 0 {
			if so, err := p.d.ShardOf(packet.BSID(sl.window[sl.at[u]])); err == nil && so != s {
				sl.cross++
			}
			sl.releases = append(sl.releases, release{due: sl.sent + wireReleaseAfter, shard: s, oldLoc: hr.OldLocIP})
		}
		sl.at[u] = next
	case draw < wireHandoffPct+wireAttachPct:
		u := sl.rng.Intn(len(sl.ues))
		o, c := r.open(kAttach)
		sl.publish(&o, c)
		_, _, err := sl.cl.Attach(p.imsis[sl.ues[u]], packet.BSID(sl.window[sl.at[u]]))
		if r.done(&o, sWireAttach, c, 1, err) != nil {
			return
		}
	default:
		bs := packet.BSID(sl.window[sl.rng.Intn(len(sl.window))])
		clause := p.clauses[sl.rng.Intn(len(p.clauses))]
		o, c := r.open(kFlow)
		sl.publish(&o, c)
		_, err := sl.cl.RequestPath(bs, clause)
		if r.done(&o, sWireRequestPath, c, 1, err) != nil {
			return
		}
	}
	// Reserved old LocIPs due by this slot's request count. The wire
	// protocol has no release message: the soft timeout is the controller's
	// own timer, so it runs in process, outside any op.
	sl.releases = r.expire(sl.releases, sl.sent)
}

// publish tells the server-side decorator which span the request about to
// be sent belongs under.
func (sl *wireSlot) publish(o *op, c callRef) {
	if o.root != 0 {
		sl.ref.trace.Store(o.root)
		sl.ref.parent.Store(c.id)
	}
}

func (w *wireStorm) verify() error {
	for _, sl := range w.slots {
		sl.releases = sl.rec.expire(sl.releases, sl.sent+wireReleaseAfter+1)
	}
	_, err := w.plant.d.CheckInvariants()
	return err
}

func (w *wireStorm) layerInputs() layerInputs {
	in := layerInputs{ctrl: w.plant.ctrlPlant, wire: w.plant, deco: w.deco, k: smallK, c: smallC, values: map[string]float64{}}
	var sent, cross, handoffs, failed int64
	for _, sl := range w.slots {
		sent += sl.sent
		cross += sl.cross
		handoffs += int64(len(sl.rec.lat[latHandoff]))
		failed += sl.rec.failed
	}
	if handoffs > 0 {
		in.values["shard.cross_handoff_share"] = float64(cross) / float64(handoffs)
	}
	in.values["ctrlproto.errors"] = float64(failed)
	if sent > 0 {
		in.values["ctrlproto.writes_per_req"] = float64(w.counts.writes.Load()) / float64(sent)
		in.values["ctrlproto.bytes_per_req"] = float64(w.counts.bytesOut.Load()+w.counts.bytesIn.Load()) / float64(sent)
	}
	return in
}
