// Package scenario drives a full SoftCell deployment through a randomised
// control-plane schedule on the deterministic simulation kernel: UEs attach
// with Poisson arrivals, open flows (verified end to end through the real
// switch tables and middleboxes), hand off between stations, and detach.
// It is the integration harness that ties the workload model (§6.1) to the
// data plane: after any schedule, every active flow must still deliver in
// both directions and no middlebox may report a policy-consistency
// violation (§5.1).
package scenario

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The schedule's event rates, per simulated second, and probe period.
const (
	attachRatePerSec  = 2    // Poisson rate of attach events
	flowRatePerSec    = 0.5  // new-flow rate per attached UE
	handoffRatePerSec = 0.1  // handoff rate per attached UE
	detachRatePerSec  = 0.02 // detach rate per attached UE

	probeEvery = sim.Time(500 * time.Millisecond) // re-exercise a random existing flow
)

// Params shape the schedule.
type Params struct {
	Seed     int64
	Duration sim.Time // simulated time to run (default 60s)

	UEs int // subscriber population (default 40)

	// Trace, when set, receives one line per simulated event (attach, flow,
	// handoff, detach, probe) stamped with its virtual time. The schedule is
	// a pure function of Seed and the other parameters, so two runs with
	// equal Params produce byte-identical traces; the determinism regression
	// test asserts exactly that.
	Trace io.Writer
}

func (p Params) withDefaults() Params {
	if p.Duration == 0 {
		p.Duration = sim.Time(60 * time.Second)
	}
	if p.UEs == 0 {
		p.UEs = 40
	}
	return p
}

// Stats summarise a run.
type Stats struct {
	Attaches  int
	Detaches  int
	Handoffs  int
	FlowsOpen int
	Probes    int
	Denied    int

	Violations  uint64
	Connections uint64

	ControllerPathAsks uint64
	ControllerMisses   uint64
}

// conn tracks one live connection for probing.
type conn struct {
	imsi  string
	up    packet.Packet       // upstream template (pre-rewrite form)
	wire  packet.Packet       // post-rewrite header as the Internet saw it
	boxes []topo.MBInstanceID // middlebox instances the opening crossed, in order
}

// Runner executes a schedule over a network.
type Runner struct {
	Net    *dataplane.Network
	Params Params

	kernel   *sim.Kernel
	rng      *rand.Rand
	stations []packet.BSID
	attached map[string]packet.BSID
	order    []string // attached imsis in attach order (determinism)
	conns    []conn
	nextPort uint16
	stats    Stats
	failed   error
}

// New prepares a runner. The network's subscribers are registered here:
// ueN with provider A (every fourth a silver plan, every eighth an M2M
// fleet device).
func New(net *dataplane.Network, p Params) (*Runner, error) {
	p = p.withDefaults()
	r := &Runner{
		Net:      net,
		Params:   p,
		kernel:   sim.NewKernel(p.Seed),
		attached: make(map[string]packet.BSID),
		nextPort: 20000,
	}
	// Derive the schedule RNG from the kernel, like every other seeded
	// component, so the stream is a pure function of (Seed, name) and stays
	// independent of whatever else draws from the kernel's root.
	r.rng = r.kernel.Fork("scenario-schedule")
	for _, st := range net.T.Stations {
		r.stations = append(r.stations, st.ID)
	}
	if len(r.stations) == 0 {
		return nil, fmt.Errorf("scenario: network has no base stations")
	}
	for i := 0; i < p.UEs; i++ {
		attr := policy.Attributes{Provider: "A"}
		if i%4 == 1 {
			attr.Plan = "silver"
		}
		if i%8 == 2 {
			attr.DeviceType = "m2m-fleet"
		}
		if err := net.Ctrl.RegisterSubscriber(r.imsi(i), attr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *Runner) imsi(i int) string { return fmt.Sprintf("ue%03d", i) }

// expo draws an exponential inter-arrival for a rate per second.
func (r *Runner) expo(ratePerSec float64) sim.Time {
	if ratePerSec <= 0 {
		return sim.Time(time.Hour)
	}
	return sim.Time(float64(time.Second) * r.rng.ExpFloat64() / ratePerSec)
}

// trace appends one event line to Params.Trace (nil = tracing off).
func (r *Runner) trace(format string, args ...any) {
	if r.Params.Trace == nil {
		return
	}
	fmt.Fprintf(r.Params.Trace, "t=%d "+format+"\n", append([]any{int64(r.kernel.Now())}, args...)...)
}

func (r *Runner) fail(err error) {
	if r.failed == nil && err != nil {
		r.failed = fmt.Errorf("scenario at %v: %w", r.kernel.Now(), err)
	}
}

// Run executes the schedule and returns the stats.
func (r *Runner) Run() (Stats, error) {
	r.kernel.After(0, r.attachTick)
	r.kernel.After(r.expo(flowRatePerSec), r.flowTick)
	r.kernel.After(r.expo(handoffRatePerSec), r.handoffTick)
	r.kernel.After(r.expo(detachRatePerSec), r.detachTick)
	r.kernel.After(probeEvery, r.probeTick)
	r.kernel.RunUntil(r.Params.Duration)
	if r.failed != nil {
		return r.stats, r.failed
	}
	r.stats.Violations, r.stats.Connections = r.Net.MiddleboxStats()
	cs := r.Net.Ctrl.Stats()
	r.stats.ControllerPathAsks = cs.PathAsks
	r.stats.ControllerMisses = cs.PathMiss
	return r.stats, nil
}

func (r *Runner) reschedule(rate float64, fn func()) {
	if r.failed != nil {
		return
	}
	r.kernel.After(r.expo(rate), fn)
}

func (r *Runner) attachTick() {
	defer r.reschedule(attachRatePerSec, r.attachTick)
	// Pick a detached subscriber.
	for try := 0; try < 8; try++ {
		imsi := r.imsi(r.rng.Intn(r.Params.UEs))
		if _, ok := r.attached[imsi]; ok {
			continue
		}
		bs := r.stations[r.rng.Intn(len(r.stations))]
		if _, err := r.Net.Attach(imsi, bs); err != nil {
			r.fail(err)
			return
		}
		r.attached[imsi] = bs
		r.order = append(r.order, imsi)
		r.stats.Attaches++
		r.trace("attach %s bs=%d", imsi, bs)
		return
	}
}

func (r *Runner) randomAttached() (string, packet.BSID, bool) {
	if len(r.order) == 0 {
		return "", 0, false
	}
	imsi := r.order[r.rng.Intn(len(r.order))]
	return imsi, r.attached[imsi], true
}

func (r *Runner) flowTick() {
	defer r.reschedule(flowRatePerSec*float64(len(r.attached)+1), r.flowTick)
	imsi, bs, ok := r.randomAttached()
	if !ok {
		return
	}
	ue, _ := r.Net.Ctrl.LookupUE(imsi)
	r.nextPort++
	dports := []uint16{80, 443, 554, 5060, 5684}
	p := packet.Packet{
		Src: ue.PermIP, Dst: packet.AddrFrom4(203, 0, 113, byte(r.rng.Intn(250))),
		SrcPort: r.nextPort, DstPort: dports[r.rng.Intn(len(dports))],
		Proto: packet.ProtoTCP, TTL: 64,
	}
	sent := p
	res, err := r.Net.SendUpstream(bs, &sent)
	if err != nil {
		r.fail(err)
		return
	}
	switch res.Disposition {
	case dataplane.ExitedNet:
		r.stats.FlowsOpen++
		r.conns = append(r.conns, conn{imsi: imsi, up: p, wire: sent, boxes: res.Middleboxes()})
		r.trace("flow %s %s wire=%s", imsi, p.Flow(), sent.Flow())
	case dataplane.DroppedAt:
		r.stats.Denied++
		r.trace("deny %s %s at=%d", imsi, p.Flow(), res.Last)
	default:
		r.fail(fmt.Errorf("flow open ended %s at node %d", res.Disposition, res.Last))
	}
}

func (r *Runner) handoffTick() {
	defer r.reschedule(handoffRatePerSec*float64(len(r.attached)+1), r.handoffTick)
	imsi, bs, ok := r.randomAttached()
	if !ok || len(r.stations) < 2 {
		return
	}
	nb := r.stations[r.rng.Intn(len(r.stations))]
	if nb == bs {
		return
	}
	if _, err := r.Net.Handoff(imsi, nb); err != nil {
		r.fail(err)
		return
	}
	r.attached[imsi] = nb
	r.stats.Handoffs++
	r.trace("handoff %s bs=%d->%d", imsi, bs, nb)
}

func (r *Runner) detachTick() {
	defer r.reschedule(detachRatePerSec*float64(len(r.attached)+1), r.detachTick)
	imsi, _, ok := r.randomAttached()
	if !ok {
		return
	}
	// Drop its connections from the probe pool first.
	kept := r.conns[:0]
	for _, c := range r.conns {
		if c.imsi != imsi {
			kept = append(kept, c)
		}
	}
	r.conns = kept
	if err := r.Net.Ctrl.Detach(imsi); err != nil {
		r.fail(err)
		return
	}
	delete(r.attached, imsi)
	for i, v := range r.order {
		if v == imsi {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.stats.Detaches++
	r.trace("detach %s", imsi)
}

// trimHops keeps failure messages readable.
func trimHops(h []dataplane.Hop) []dataplane.Hop {
	if len(h) > 24 {
		return h[:24]
	}
	return h
}

// probeTick exercises a random live connection in both directions; any
// break is a hard failure (the §5.1 property under churn).
func (r *Runner) probeTick() {
	defer func() {
		if r.failed == nil {
			r.kernel.After(probeEvery, r.probeTick)
		}
	}()
	if len(r.conns) == 0 {
		return
	}
	c := r.conns[r.rng.Intn(len(r.conns))]
	bs, stillAttached := r.attached[c.imsi]
	if !stillAttached {
		return
	}
	r.stats.Probes++

	// Downstream: the Internet peer replies to what it saw on the wire.
	down := packet.Packet{
		Src: c.wire.Dst, Dst: c.wire.Src, SrcPort: c.wire.DstPort,
		DstPort: c.wire.SrcPort, Proto: c.wire.Proto, TTL: 64, Payload: make([]byte, 64),
	}
	dres, err := r.Net.SendDownstream(&down)
	if err != nil {
		r.fail(fmt.Errorf("probe DOWN %s wire=%s: %w (hops %v...)", c.imsi, c.wire.Flow(), err, trimHops(dres.Hops)))
		return
	}
	if dres.Disposition != dataplane.Delivered {
		r.fail(fmt.Errorf("probe downstream for %s: %s at node %d", c.imsi, dres.Disposition, dres.Last))
		return
	}
	// A middlebox that never sees the packet raises no violation: compare
	// the instances crossed with the opening's, which §5.1 says are kept.
	back := slices.Clone(c.boxes)
	slices.Reverse(back)
	if got := dres.Middleboxes(); !slices.Equal(got, back) {
		r.fail(fmt.Errorf("probe downstream for %s wire=%s crossed middleboxes %v, the opening %v reversed (hops %v...)", c.imsi, c.wire.Flow(), got, c.boxes, trimHops(dres.Hops)))
		return
	}

	// Upstream from wherever the UE is now.
	up := c.up
	ures, err := r.Net.SendUpstream(bs, &up)
	if err != nil {
		r.fail(fmt.Errorf("probe UP %s from bs%d orig=%s: %w (hops %v...)", c.imsi, bs, c.up.Flow(), err, trimHops(ures.Hops)))
		return
	}
	if ures.Disposition != dataplane.ExitedNet {
		r.fail(fmt.Errorf("probe upstream for %s: %s at node %d", c.imsi, ures.Disposition, ures.Last))
		return
	}
	if got := ures.Middleboxes(); !slices.Equal(got, c.boxes) {
		r.fail(fmt.Errorf("probe upstream for %s from bs%d orig=%s crossed middleboxes %v, the opening %v (hops %v...)", c.imsi, bs, c.up.Flow(), got, c.boxes, trimHops(ures.Hops)))
		return
	}
	r.trace("probe %s wire=%s bs=%d", c.imsi, c.wire.Flow(), bs)
}
