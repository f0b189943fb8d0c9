package main

// The measurement scaffold every workload shares: op classes, the
// per-generator recorder, the set-up / warm-up / measured-rounds sequence
// and the reduction of rounds to named metrics.
//
// Load shape, all workloads: one generator process; closed loops (each
// generator has one op outstanding, so a latency is a service time); a
// run is untimed set-up + one untimed warm-up round + measuredRounds
// rounds of FIXED work (op counts repeat exactly for a seed; --seconds
// scales the work, calibrated on a 2-core host to last about that long).
// Throughput is the median of the per-round values; latency percentiles
// are taken over the pooled samples of all measured rounds.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/shard"
)

// opKind classifies what the generators do.
type opKind uint8

const (
	kAttach  opKind = iota
	kHandoff        // call entry to return, choreography included
	kDetach
	kFlow    // flow set-up: RequestPath on control plants, a new flow's first packet on network plants
	kRelease // deferred ReleaseOldLocIP (+ resync): timed, not counted as an op
	kPublish // end-of-round agent snapshot publish: timed, not counted as an op
	kUp      // upstream packets
	kDown    // downstream packets
	nKinds
)

var kindRoot = [nKinds]spanName{sOpAttach, sOpHandoff, sOpDetach, sOpFlow, sOpRelease, sOpPublish, sOpUp, sOpDown}

// Latency classes keep per-op samples.
const (
	latAttach = iota
	latHandoff
	latFlow
	nLat
)

var latOf = [nKinds]int{kAttach: latAttach, kHandoff: latHandoff, kFlow: latFlow,
	kDetach: -1, kRelease: -1, kPublish: -1, kUp: -1, kDown: -1}

// tally is what one round (or one generator's share of it) did.
type tally struct {
	n      [nKinds]int64 // completed ops; packets for kUp/kDown
	ns     [nKinds]int64 // time inside the class's calls
	failed int64         // refused ops, errors, unexpected dispositions
	// refused counts the typed admission refusals among the failures.
	refused int64
}

func (t *tally) add(o *tally) {
	for k := range t.n {
		t.n[k] += o.n[k]
		t.ns[k] += o.ns[k]
	}
	t.failed += o.failed
	t.refused += o.refused
}

func (t *tally) ctrlOps() int64 { return t.n[kAttach] + t.n[kHandoff] + t.n[kDetach] + t.n[kFlow] }
func (t *tally) ctrlNS() int64 {
	return t.ns[kAttach] + t.ns[kHandoff] + t.ns[kDetach] + t.ns[kFlow] + t.ns[kRelease] + t.ns[kPublish]
}
func (t *tally) packets() int64   { return t.n[kUp] + t.n[kDown] }
func (t *tally) packetNS() int64  { return t.ns[kUp] + t.ns[kDown] }
func (t *tally) attempted() int64 { return t.ctrlOps() + t.packets() + t.failed }

// recorder is one generator goroutine's measurement state.
type recorder struct {
	tally
	lat [nLat]samples
	tr  *tracer // nil on untraced runs
	log int     // this generator's span log
}

// op is one generated operation in flight.
type op struct {
	t0   int64
	root uint32 // 0 when not traced
	kind opKind
}

// begin opens an op (and, traced, its root span).
func (r *recorder) begin(kind opKind) op {
	o := op{kind: kind}
	if r.tr.enabled() {
		o.root = r.tr.newID(r.log)
	}
	o.t0 = clock()
	return o
}

// callRef is one call into a layer in flight: its child span's id is
// allocated up front so a decorator further down can parent under it.
type callRef struct {
	t0 int64
	id uint32
}

// call brackets one call into a layer as a child span of o; untraced it
// costs one branch.
func (r *recorder) call(o *op) callRef {
	if o.root == 0 {
		return callRef{}
	}
	return callRef{id: r.tr.newID(r.log), t0: clock()}
}

func (r *recorder) ret(o *op, name spanName, c callRef) {
	if o.root == 0 {
		return
	}
	r.tr.add(r.log, span{Trace: o.root, ID: c.id, Parent: o.root, Name: name, Start: c.t0, End: clock()})
}

// open begins an op and its first (usually only) call into a layer.
func (r *recorder) open(kind opKind) (op, callRef) {
	o := r.begin(kind)
	return o, r.call(&o)
}

// done closes call c (a call.<layer>.<Func> span named name) and with it op
// o: failed when err is non-nil, otherwise completed with n units of work.
// It returns err.
func (r *recorder) done(o *op, name spanName, c callRef, n int, err error) error {
	r.ret(o, name, c)
	if err != nil {
		r.fail(o, err)
		return err
	}
	r.end(o, n)
	return nil
}

// end closes an op that completed n units of work (1, or a packet count).
func (r *recorder) end(o *op, n int) {
	t1 := clock()
	d := t1 - o.t0
	r.n[o.kind] += int64(n)
	r.ns[o.kind] += d
	if l := latOf[o.kind]; l >= 0 {
		r.lat[l] = append(r.lat[l], nsSample(d))
	}
	if o.root != 0 {
		r.tr.add(r.log, span{Trace: o.root, ID: o.root, Name: kindRoot[o.kind], Start: o.t0, End: t1})
	}
}

// fail closes an op that did not complete; its time still counts against
// its class, and it produces no latency sample (a failed op misses any
// latency limit).
func (r *recorder) fail(o *op, err error) {
	t1 := clock()
	r.ns[o.kind] += t1 - o.t0
	r.failed++
	if errors.Is(err, shard.ErrOverload) || errors.Is(err, shard.ErrThrottled) || errors.Is(err, shard.ErrCircuitOpen) {
		r.refused++
	}
	if o.root != 0 {
		r.tr.add(r.log, span{Trace: o.root, ID: o.root, Name: kindRoot[o.kind], Start: o.t0, End: t1})
	}
}

// release is one handoff's deferred old-LocIP release (the §5.1 soft
// timeout) on a control plant; due counts in the workload's own clock.
type release struct {
	due    int64
	shard  *shard.Shard
	oldLoc packet.Addr
}

// expire runs the releases due by now, as timed housekeeping outside any
// counted op, and returns the ones still pending.
func (r *recorder) expire(pending []release, now int64) []release {
	kept := pending[:0]
	for _, rl := range pending {
		if rl.due > now {
			kept = append(kept, rl)
			continue
		}
		o, c := r.open(kRelease)
		rl.shard.Ctrl.ReleaseOldLocIP(rl.oldLoc, nil)
		r.ret(&o, sCoreRelease, c)
		r.end(&o, 0)
	}
	return kept
}

func (r *recorder) reset() {
	r.tally = tally{}
	for i := range r.lat {
		r.lat[i] = r.lat[i][:0]
	}
}

// roundStat is one round's outcome. The tally is everything the round did;
// the bulk fields are the part ops_per_s is about (the whole round, except
// on forward_plain where it is the forwarding phase only).
type roundStat struct {
	tally
	wallNS int64 // whole round, generator bookkeeping included
	genNS  int64 // time inside the input generator (workload.Stream.Next)

	bulkOps  int64  // ops (packets on the network plants) ops_per_s counts
	bulkNS   int64  // the time they took
	mallocs  uint64 // whole-process mallocs allocs_per_op counts
	allocOps int64  // the ops it divides them by
}

// mallocCount reads the whole-process malloc counter.
func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runner is one of the four named workloads, ready to run.
type runner interface {
	// setup builds the warm plant and the generator state; it is the timed
	// set-up.
	setup() error
	// subscribers is the registered population set-up created.
	subscribers() int
	// round runs one round of the workload's fixed work; the warm-up round
	// is a quarter to a half of a measured one.
	round(warmup bool) (roundStat, error)
	// recorders exposes every generator's recorder (latency pools).
	recorders() []*recorder
	// verify is the correctness gate, run after the last round.
	verify() error
	// layerInputs hands the warm plant and the workload-derived per-layer
	// values to the per-layer stage of a traced run.
	layerInputs() layerInputs
	ruleTable() (max, median int)
	close()
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	out     io.Writer // human-readable report
	outDir  string    // span files
}

// scale is the work multiplier --seconds implies (sizes are calibrated for
// runSeconds).
func (c runConfig) scale() float64 { return c.seconds / runSeconds }

// scaled sizes a count by --seconds, never below min.
func (c runConfig) scaled(n, min int) int {
	v := int(float64(n)*c.scale() + 0.5)
	if v < min {
		v = min
	}
	return v
}

const (
	measuredRounds = 5
	setupRepeats   = 3 // set-ups per untraced run; setup_s is their median
)

func newWorkload(name string, cfg runConfig, reg *obs.Registry, tr *tracer) (runner, error) {
	switch name {
	case wlCity:
		return newCityChurn(cfg, reg, tr), nil
	case wlWire:
		return newWireStorm(cfg, reg, tr), nil
	case wlForward:
		return newForwardPlain(cfg, reg, tr), nil
	case wlE2E:
		return newE2EMobility(cfg, reg, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is one workload run.
type result struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]metricValue
	// Samples is the sample count behind each latency metric and Rounds the
	// per-round values behind each throughput metric (validity guards: a
	// trending round or a thin percentile is visible).
	Samples map[string]int
	Rounds  map[string][]float64
	// Traced runs: the span ledger, rendered, and where the span file went.
	Traced bool
	Ledger string
	Notes  []string
}

func newResult(name string, cfg runConfig) *result {
	res := &result{Workload: name, Seed: cfg.seed, Traced: cfg.trace, Metrics: map[string]metricValue{},
		Samples: map[string]int{}, Rounds: map[string][]float64{}}
	if name == wlWire {
		res.Notes = append(res.Notes, "wire traffic crossed the host loopback interface (127.0.0.1), not a real link")
	}
	return res
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf[name]}
}

// unitOf maps every catalogue metric to its unit.
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayerDocs() {
		m[d.Name] = d.Unit
	}
	return m
}()

// timedSetup builds a workload's plant, returning the set-up time and the
// GC-settled heap growth it caused.
func timedSetup(w runner) (seconds float64, heapBytes uint64, err error) {
	h0 := liveHeap()
	t0 := clock()
	if err := w.setup(); err != nil {
		return 0, 0, err
	}
	seconds = float64(clock()-t0) / 1e9
	h1 := liveHeap()
	if h1 > h0 {
		heapBytes = h1 - h0
	}
	return seconds, heapBytes, nil
}

// runUntraced measures one workload's end-to-end metrics.
func runUntraced(name string, cfg runConfig) (*result, error) {
	res := newResult(name, cfg)
	var w runner
	var setupS, bytesPerSub []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, cfg, nil, nil); err != nil {
			return nil, err
		}
		s, heap, err := timedSetup(w)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, s)
		bytesPerSub = append(bytesPerSub, float64(heap)/float64(w.subscribers()))
	}
	defer w.close()

	if _, err := w.round(true); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	for _, r := range w.recorders() {
		r.reset()
	}
	var total tally
	var mallocs uint64
	var allocOps int64
	var rates, genShare []float64
	for i := 0; i < measuredRounds; i++ {
		rs, err := w.round(false)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", name, i+1, err)
		}
		total.add(&rs.tally)
		mallocs += rs.mallocs
		allocOps += rs.allocOps
		rates = append(rates, float64(rs.bulkOps)/(float64(rs.bulkNS)/1e9))
		genShare = append(genShare, float64(rs.genNS)/float64(rs.wallNS))
	}
	if err := w.verify(); err != nil {
		return nil, fmt.Errorf("%s: correctness gate: %w", name, err)
	}
	if g := median(genShare); g > 0.05 {
		return nil, fmt.Errorf("%s: the input generator took %.1f%% of a round (limit 5%%): the run is invalid", name, 100*g)
	}

	var lat [nLat]samples
	for _, r := range w.recorders() {
		for i := range lat {
			lat[i] = append(lat[i], r.lat[i]...)
		}
	}
	res.Attempted, res.Failed = total.attempted(), total.failed
	res.Correct = true
	res.set(mSetup, median(setupS))
	res.set(mBytesPerSub, median(bytesPerSub))
	res.set(mOps, median(rates))
	res.Rounds[mOps] = rates
	res.Rounds[mSetup] = setupS
	for i, names := range [nLat][2]string{{mAttachP50, mAttachP99}, {mHandoffP50, mHandoffP99}, {mFlowP50, mFlowP99}} {
		slices.Sort(lat[i])
		res.set(names[0], lat[i].percentile(50)/1e3)
		res.set(names[1], lat[i].percentile(99)/1e3)
		res.Samples[names[0]], res.Samples[names[1]] = len(lat[i]), len(lat[i])
	}
	max, _ := w.ruleTable()
	res.set(mRuleMax, float64(max))
	res.set(mAllocs, float64(mallocs)/float64(allocOps))
	return res, nil
}
