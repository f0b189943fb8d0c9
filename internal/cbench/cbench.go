// Package cbench is the reproduction's Cbench [27] equivalent (§6.2): it
// emulates a population of local agents hammering the central controller
// with packet-classifier/path requests and measures sustained throughput,
// and it measures a single local agent's flow-handling throughput as a
// function of its classifier-cache hit ratio (Table 2).
package cbench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/plant"
	"repro/internal/policy"
	"repro/internal/switchsim"
	"repro/internal/topo"
)

// ControllerOptions configure the central-controller throughput benchmark.
type ControllerOptions struct {
	// Agents is the number of emulated agent connections (the paper: 1000
	// emulated switches).
	Agents int
	// Workers is the number of concurrent requests each connection keeps in
	// flight — together with GOMAXPROCS this plays the role of the paper's
	// controller thread count.
	Workers int
	// Duration bounds the measurement (default 1s).
	Duration time.Duration
	// OverWire routes requests through the ctrlproto framing over net.Pipe;
	// false measures the controller's in-process request path only.
	OverWire bool
	// Obs, when set, instruments the controller (and the wire when
	// OverWire) so the caller can embed a telemetry snapshot in its
	// report. Nil benchmarks the uninstrumented baseline.
	Obs *obs.Registry
}

// withDefaults fills the zero values. Every benchmark entry point applies
// it, so a zero ControllerOptions always measures 16 agents × 1 worker for
// one second.
func (o ControllerOptions) withDefaults() ControllerOptions {
	if o.Agents <= 0 {
		o.Agents = 16
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	return o
}

// Result reports a throughput measurement.
type Result struct {
	Requests uint64
	Elapsed  time.Duration

	// AllocsPerOp is heap allocations per completed request, measured as
	// the runtime's malloc-count delta across the run divided by Requests.
	// The whole process is counted, so wire-mode numbers include framing;
	// the in-process number isolates the controller fast path.
	AllocsPerOp float64

	// Mem is the controller's end-of-run memory accounting; every
	// BENCH_*.json embeds it.
	Mem core.MemStats
}

// PerSecond is the headline number.
func (r Result) PerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

func (r Result) String() string {
	return fmt.Sprintf("%d requests in %v (%.0f/s)", r.Requests, r.Elapsed.Round(time.Millisecond), r.PerSecond())
}

// newTestbed is the shared fixture: a k=4 generated network with one
// controller running the Table 1 policy and all policy paths pre-installed,
// so the benchmark measures steady-state request handling (like Cbench's
// packet-in storm against a warmed controller).
func newTestbed(reg *obs.Registry) (*plant.Plant, error) {
	tb, err := plant.New(plant.Spec{
		Topo: topo.GenParams{K: 4, ClusterSize: 10, MBTypes: 3, Seed: 1},
		Obs:  reg,
	})
	if err != nil {
		return nil, err
	}
	return tb, tb.WarmPaths()
}

// BenchController runs the §6.2 central-controller micro-benchmark.
func BenchController(opts ControllerOptions) (Result, error) {
	opts = opts.withDefaults()
	tb, err := newTestbed(opts.Obs)
	if err != nil {
		return Result{}, err
	}

	var stop atomic.Bool
	var total uint64
	var wg sync.WaitGroup
	start := time.Now()

	// Each request roots a bench.op span under the registry's sampling
	// knob: the sampled few carry their context through the wire (or the
	// in-process call) and come back as complete traces for attribution.
	rootSp := opts.Obs.SpanName("bench.op")
	runLoop := func(id int, ask func(sc obs.SpanContext, bs packet.BSID, clause int) (packet.Tag, error)) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(id)))
		var n uint64
		for !stop.Load() {
			bs := tb.Stations[rng.Intn(len(tb.Stations))]
			clause := tb.Clauses[rng.Intn(len(tb.Clauses))]
			sp := rootSp.Root()
			_, err := ask(sp.Context(), bs, clause)
			sp.End()
			if err != nil {
				break
			}
			n++
		}
		atomic.AddUint64(&total, n)
	}

	if opts.OverWire {
		clients := make([]*ctrlproto.Client, opts.Agents)
		for i := range clients {
			clients[i] = tb.Dial(nil)
		}
		defer func() {
			for _, c := range clients {
				_ = c.Close()
			}
		}()
		for i, c := range clients {
			for w := 0; w < opts.Workers; w++ {
				wg.Add(1)
				go runLoop(i*opts.Workers+w, c.RequestPathCtx)
			}
		}
	} else {
		for i := 0; i < opts.Agents*opts.Workers; i++ {
			wg.Add(1)
			go runLoop(i, tb.Ctrl.RequestPathCtx)
		}
	}

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	time.Sleep(opts.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	res := Result{Requests: total, Elapsed: elapsed, Mem: tb.Ctrl.MemStats()}
	if total > 0 {
		res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(total)
	}
	return res, nil
}

// AgentOptions configure the Table 2 local-agent benchmark.
type AgentOptions struct {
	// HitRatio is the classifier-cache hit fraction (1, 0.99, 0.9, 0.8, 0 in
	// Table 2).
	HitRatio float64
	// Flows is the number of new-flow arrivals to process (default 20000;
	// low hit ratios use fewer because each miss costs a controller RTT).
	Flows int
	// ControllerRTT simulates the network+processing round trip a cache
	// miss pays (default 500µs, a LAN RTT plus controller work — the knob
	// that separates Table 2's rows, not an absolute claim).
	ControllerRTT time.Duration
	// Obs, when set, instruments the agent under test.
	Obs *obs.Registry
}

// BenchAgent measures one local agent's new-flow throughput at a fixed
// classifier-cache hit ratio (Table 2).
func BenchAgent(opts AgentOptions) (Result, error) {
	if opts.Flows <= 0 {
		opts.Flows = 20000
	}
	if opts.ControllerRTT <= 0 {
		opts.ControllerRTT = 500 * time.Microsecond
	}
	ctrl := &latencyController{rtt: opts.ControllerRTT}
	plan := packet.DefaultPlan
	sw := switchsim.NewSwitch("bench-as")
	ag := agent.New(1, sw, plan, ctrl)
	ag.Instrument(opts.Obs)

	// One UE per few flows, all with a resolvable web classifier.
	loc, err := plan.LocIP(1, 1)
	if err != nil {
		return Result{}, err
	}
	ue := core.UE{IMSI: "bench", PermIP: packet.AddrFrom4(100, 64, 9, 9), BS: 1, UEID: 1, LocIP: loc}
	admit := func(tag packet.Tag) error {
		return ag.AdmitUE(ue, []core.Classifier{{App: policy.AppWeb, Clause: 1, Tag: tag, Allow: true}})
	}
	if err := admit(1); err != nil {
		return Result{}, err
	}

	rng := rand.New(rand.NewSource(7))
	start := time.Now()
	for i := 0; i < opts.Flows; i++ {
		if rng.Float64() >= opts.HitRatio {
			// Force a miss: invalidate the cached tag so this flow pays the
			// controller round trip, exactly the Table 2 ratio semantics.
			if err := ag.UpdateClassifiers(ue.PermIP, []core.Classifier{
				{App: policy.AppWeb, Clause: 1, Tag: 0, Allow: true}}); err != nil {
				return Result{}, err
			}
		}
		p := &packet.Packet{
			Src: ue.PermIP, Dst: packet.Addr(0x08080808 + uint32(i)),
			SrcPort: uint16(20000 + i%2000), DstPort: 80, Proto: packet.ProtoTCP,
		}
		if _, err := ag.HandlePacketIn(p); err != nil {
			return Result{}, err
		}
	}
	return Result{Requests: uint64(opts.Flows), Elapsed: time.Since(start)}, nil
}

// latencyController answers path requests after a simulated RTT.
type latencyController struct {
	rtt      time.Duration
	requests uint64
}

func (l *latencyController) RequestPath(bs packet.BSID, clause int) (packet.Tag, error) {
	atomic.AddUint64(&l.requests, 1)
	time.Sleep(l.rtt)
	return 1, nil
}
