package main

// The benchmark's own span log. Spans are recorded from the benchmark's
// files, around each call into a layer's public functions; nothing inside
// the program is instrumented. Every generated op opens a root span
// op.<kind>; each call into a layer is a child call.<layer>.<Func>; the
// decorators at the bottom of this file time a layer the benchmark does not
// call directly (the dispatcher behind the wire, the controller behind an
// agent). A layer's self time is its span minus the part its children
// cover.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlproto"
	"repro/internal/obs"
	"repro/internal/packet"
)

var epoch = time.Now()

// clock is monotonic nanoseconds since process start.
func clock() int64 { return int64(time.Since(epoch)) }

// spanName indexes spanNames.
type spanName uint16

const (
	sOpAttach spanName = iota
	sOpHandoff
	sOpDetach
	sOpFlow
	sOpRelease
	sOpPublish
	sOpUp
	sOpDown
	sShardAttach
	sShardHandoff
	sShardDetach
	sShardRequestPath
	sCoreRelease
	sCoreDetach
	sCoreAgentView
	sWireAttach
	sWireHandoff
	sWireRequestPath
	sNetAttach
	sNetHandoff
	sNetSendUpstream
	sNetSendDownstream
	sNetBurstSend
	sNetSync
	sAgentPublish
	nSpanNames
)

var spanNames = [nSpanNames]string{
	sOpAttach:          "op.attach",
	sOpHandoff:         "op.handoff",
	sOpDetach:          "op.detach",
	sOpFlow:            "op.flow_setup",
	sOpRelease:         "op.release",
	sOpPublish:         "op.publish",
	sOpUp:              "op.up",
	sOpDown:            "op.down",
	sShardAttach:       "call.shard.Attach",
	sShardHandoff:      "call.shard.Handoff",
	sShardDetach:       "call.shard.Detach",
	sShardRequestPath:  "call.shard.RequestPath",
	sCoreRelease:       "call.core.ReleaseOldLocIP",
	sCoreDetach:        "call.core.Detach",
	sCoreAgentView:     "call.core.AgentView",
	sWireAttach:        "call.ctrlproto.Attach",
	sWireHandoff:       "call.ctrlproto.Handoff",
	sWireRequestPath:   "call.ctrlproto.RequestPath",
	sNetAttach:         "call.dataplane.Attach",
	sNetHandoff:        "call.dataplane.Handoff",
	sNetSendUpstream:   "call.dataplane.SendUpstream",
	sNetSendDownstream: "call.dataplane.SendDownstream",
	sNetBurstSend:      "call.dataplane.BurstSend",
	sNetSync:           "call.dataplane.Sync",
	sAgentPublish:      "call.agent.Publish",
}

// span is one record: the trace it belongs to (its root's id), its own id,
// the span that caused it (0 for a root), and its window on clock().
type span struct {
	Trace  uint32
	ID     uint32
	Parent uint32
	Name   spanName
	Start  int64
	End    int64
}

// traceLog is one append-only span log. Each generator goroutine owns one;
// the wire decorator's server-side logs are reached from the server's
// handler goroutines, hence the mutex (uncontended: a log only ever has
// one op in flight).
type traceLog struct {
	mu    sync.Mutex
	spans []span
	seq   uint32
}

const logIDBits = 26 // span id = (log index + 1) << 26 | sequence

// tracer is the span log set of one traced run.
type tracer struct {
	on   atomic.Bool
	logs []*traceLog
}

func newTracer(logs int) *tracer {
	t := &tracer{logs: make([]*traceLog, logs)}
	for i := range t.logs {
		t.logs[i] = &traceLog{}
	}
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// newID allocates a span id on log l.
func (t *tracer) newID(l int) uint32 {
	lg := t.logs[l]
	lg.mu.Lock()
	lg.seq++
	id := uint32(l+1)<<logIDBits | lg.seq
	lg.mu.Unlock()
	return id
}

func (t *tracer) add(l int, s span) {
	lg := t.logs[l]
	lg.mu.Lock()
	lg.spans = append(lg.spans, s)
	lg.mu.Unlock()
}

// ledgerRow is one span name's share of the traced rounds.
type ledgerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNS int64   `json:"total_ns"`
	SelfNS  int64   `json:"self_ns"`
	Share   float64 `json:"self_share"`
}

// ledger is the per-layer self-time attribution of a traced run. The sum
// invariant SelfSumNS == RootNS (self times of every span add up to the
// op.* roots' total duration) holds exactly: children are clipped to their
// parent's window.
type ledger struct {
	Spans     int         `json:"spans"`
	Roots     int         `json:"roots"`
	RootNS    int64       `json:"root_ns"`
	SelfSumNS int64       `json:"self_sum_ns"`
	Rows      []ledgerRow `json:"rows"`
}

// fold computes the ledger over every recorded span.
func (t *tracer) fold() ledger {
	// Span ids are dense per log, so child time accumulates in per-log
	// arrays indexed by sequence number; windows are kept for clipping.
	type win struct{ s, e int64 }
	wins := make([][]win, len(t.logs))
	kids := make([][]int64, len(t.logs))
	for i, lg := range t.logs {
		wins[i] = make([]win, lg.seq+1)
		kids[i] = make([]int64, lg.seq+1)
		for _, sp := range lg.spans {
			wins[i][sp.ID&(1<<logIDBits-1)] = win{sp.Start, sp.End}
		}
	}
	at := func(id uint32) (int, uint32) { return int(id>>logIDBits) - 1, id & (1<<logIDBits - 1) }
	// inParent is the part of a child span inside its parent's window.
	inParent := func(sp span) int64 {
		pl, ps := at(sp.Parent)
		w := wins[pl][ps]
		return max(0, min(sp.End, w.e)-max(sp.Start, w.s))
	}
	for _, lg := range t.logs {
		for _, sp := range lg.spans {
			if sp.Parent != 0 {
				pl, ps := at(sp.Parent)
				kids[pl][ps] += inParent(sp)
			}
		}
	}
	var rows [nSpanNames]ledgerRow
	var led ledger
	for i, lg := range t.logs {
		for _, sp := range lg.spans {
			dur := sp.End - sp.Start
			if sp.Parent != 0 {
				dur = inParent(sp) // only that part is attributed
			} else {
				led.Roots++
				led.RootNS += dur
			}
			self := dur - kids[i][sp.ID&(1<<logIDBits-1)]
			if self < 0 {
				self = 0
			}
			r := &rows[sp.Name]
			r.Count++
			r.TotalNS += dur
			r.SelfNS += self
			led.SelfSumNS += self
			led.Spans++
		}
	}
	for n := range rows {
		if rows[n].Count == 0 {
			continue
		}
		rows[n].Name = spanNames[n]
		if led.RootNS > 0 {
			rows[n].Share = float64(rows[n].SelfNS) / float64(led.RootNS)
		}
		led.Rows = append(led.Rows, rows[n])
	}
	sort.Slice(led.Rows, func(i, j int) bool { return led.Rows[i].SelfNS > led.Rows[j].SelfNS })
	return led
}

// traceFileSpans caps the spans written to the trace file (the head of the
// traced window; the ledger covers every recorded span).
const traceFileSpans = 20000

type traceFileSpan struct {
	Trace  uint32 `json:"trace"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type traceFile struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Recorded    int              `json:"spans_recorded"`
	Written     int              `json:"spans_written"`
	Ledger      ledger           `json:"ledger"`
	Spans       []traceFileSpan  `json:"spans"`
	Attribution *obs.Attribution `json:"obs_attribution,omitempty"`
}

// cutoff is the latest end time by which at most n spans had ended.
func (t *tracer) cutoff(n int) int64 {
	ended := func(by int64) int {
		total := 0
		for _, lg := range t.logs {
			total += sort.Search(len(lg.spans), func(i int) bool { return lg.spans[i].End > by })
		}
		return total
	}
	lo, hi := int64(0), clock()
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if ended(mid) <= n {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// write stores the span file for one workload under dir.
func (t *tracer) write(dir, workload string, seed int64, led ledger, attr *obs.Attribution) (path string, written int, err error) {
	tf := traceFile{Workload: workload, Seed: seed, Recorded: led.Spans, Ledger: led, Attribution: attr}
	// Keep whole traces: every span of the traces whose root ended by the
	// cutoff. A log is appended in end-time order and a root ends after its
	// children, so each log is cut at its first span past the cutoff.
	cutoff := t.cutoff(traceFileSpans)
	keep := make(map[uint32]bool)
	for pass := 0; pass < 2; pass++ {
		for _, lg := range t.logs {
			for _, sp := range lg.spans {
				if sp.End > cutoff {
					break
				}
				if pass == 0 && sp.Parent == 0 {
					keep[sp.Trace] = true
				}
				if pass == 1 && keep[sp.Trace] {
					tf.Spans = append(tf.Spans, traceFileSpan{sp.Trace, sp.ID, sp.Parent, spanNames[sp.Name], sp.Start, sp.End})
				}
			}
		}
	}
	sort.SliceStable(tf.Spans, func(i, j int) bool { return tf.Spans[i].Start < tf.Spans[j].Start })
	tf.Written = len(tf.Spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path = filepath.Join(dir, "trace_"+workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", 0, err
	}
	return path, tf.Written, os.WriteFile(path, b, 0o644)
}

func (l ledger) String() string {
	s := fmt.Sprintf("  ledger: %d spans, %d roots, root time %.3f s, self-time sum %.3f s\n",
		l.Spans, l.Roots, float64(l.RootNS)/1e9, float64(l.SelfSumNS)/1e9)
	for _, r := range l.Rows {
		s += fmt.Sprintf("    %-32s n=%-9d self %9.3f ms (%5.1f%%)  total %9.3f ms\n",
			r.Name, r.Count, float64(r.SelfNS)/1e6, 100*r.Share, float64(r.TotalNS)/1e6)
	}
	return s
}

// --- decorators: the two seams that let a trace cross a layer ---

// opRef is what a generator publishes about its op in flight so a decorator
// on another goroutine can parent its span correctly.
type opRef struct {
	trace  atomic.Uint32
	parent atomic.Uint32
}

// tracedControlPlane sits between ctrlproto.Server and the dispatcher. It
// implements exactly ctrlproto.ControlPlane (not the traced extension), so
// the server calls the plain methods. The server-side span is the layer
// below the wire; client RTT minus this span is the wire's self time.
//
// A request is matched to the generator slot that sent it through its base
// station: wire_storm gives each in-flight slot a disjoint station window
// and one op outstanding.
type tracedControlPlane struct {
	inner   ctrlproto.ControlPlane
	tr      *tracer
	slotOf  []int          // station -> generator slot
	cur     []opRef        // per slot: the op in flight
	logBase int            // server-side log of slot i is logs[logBase+i]
	lastNS  []atomic.Int64 // per slot: duration of the last served call
}

func (d *tracedControlPlane) record(bs packet.BSID, name spanName, t0 int64) {
	t1 := clock()
	slot := d.slotOf[bs]
	d.lastNS[slot].Store(t1 - t0)
	if !d.tr.enabled() {
		return
	}
	ref := &d.cur[slot]
	l := d.logBase + slot
	d.tr.add(l, span{Trace: ref.trace.Load(), ID: d.tr.newID(l), Parent: ref.parent.Load(), Name: name, Start: t0, End: t1})
}

func (d *tracedControlPlane) Attach(imsi string, bs packet.BSID) (core.UE, []core.Classifier, error) {
	t0 := clock()
	ue, cls, err := d.inner.Attach(imsi, bs)
	d.record(bs, sShardAttach, t0)
	return ue, cls, err
}

func (d *tracedControlPlane) Handoff(imsi string, newBS packet.BSID) (core.HandoffResult, error) {
	t0 := clock()
	hr, err := d.inner.Handoff(imsi, newBS)
	d.record(newBS, sShardHandoff, t0)
	return hr, err
}

func (d *tracedControlPlane) RequestPath(bs packet.BSID, clause int) (packet.Tag, error) {
	t0 := clock()
	tag, err := d.inner.RequestPath(bs, clause)
	d.record(bs, sShardRequestPath, t0)
	return tag, err
}

func (d *tracedControlPlane) ResolveLocIP(perm packet.Addr) (packet.Addr, error) {
	return d.inner.ResolveLocIP(perm)
}

func (d *tracedControlPlane) RecoverLocations(reports []core.AgentLocationReport) error {
	return d.inner.RecoverLocations(reports)
}

// tracedClient implements agent.ControllerClient around the controller an
// agent built by the benchmark talks to: it times the controller round trip
// inside an agent's packet-in, so the agent's own share is what remains.
type tracedClient struct {
	inner interface {
		RequestPath(bs packet.BSID, clause int) (packet.Tag, error)
	}
	calls, ns int64
}

func (c *tracedClient) RequestPath(bs packet.BSID, clause int) (packet.Tag, error) {
	t0 := clock()
	tag, err := c.inner.RequestPath(bs, clause)
	c.calls++
	c.ns += clock() - t0
	return tag, err
}
