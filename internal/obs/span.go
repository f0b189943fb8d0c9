package obs

import (
	"bytes"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
)

// Request-scoped causal spans (DESIGN.md §16). A sampled request carries
// a SpanContext end to end — dispatcher queue, admission, controller
// lock domains, ctrlproto frames, agent publish — and every layer hangs
// child spans off it, so one handoff yields a complete parent/child
// tree that obs.Attribute folds into a per-layer latency waterfall.
//
// Unlike the event tracer (trace.go), which is mutexed and slow-path
// only, spans ride the hot path: End records into fixed-size per-stripe
// slots claimed by an atomic cursor and published under a per-slot
// seqlock version word — no locks, no allocation, and a "not sampled"
// branch that is one atomic load plus one atomic add. Timestamps come
// from the registry's injected clock and IDs from deterministic
// counters, so same-seed deterministic harnesses dump byte-identical
// span JSON.

// spanStripes is the number of independent span rings ("per-worker"
// slots: concurrent recorders on different traces land on different
// stripes). Must be a power of two.
const spanStripes = 8

// spanStripeSlots is the ring capacity per stripe; old spans are
// overwritten, never allocated past the cap. Must be a power of two.
const spanStripeSlots = 1024

// DefaultSpanSampling is the default root-sampling period: one request
// in every N starts a trace. Runtime knob: Registry.SetSpanSampling,
// `softcelld -trace-sample`, `softcell-bench -trace-sample`.
const DefaultSpanSampling = 1024

// TraceID identifies one sampled request's span tree. 0 means "not
// sampled": every span operation on a zero trace is a cheap no-op.
type TraceID uint64

// SpanID identifies one span within a trace. IDs are allocated from a
// process-wide counter, so they are unique per registry and, under the
// sequential deterministic harnesses, identical across same-seed runs.
type SpanID uint64

// SpanContext is the propagated pair (trace, current span). The zero
// value means "not sampled" and is what every layer receives for the
// 1023-in-1024 unsampled requests.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Sampled reports whether this context carries a live trace.
//
// hotpath: no alloc, no lock
func (sc SpanContext) Sampled() bool { return sc.Trace != 0 }

// SpanName is one registered span type: the layer label spans of this
// kind carry in dumps and attribution. Obtain through Registry.SpanName;
// nil-safe like every obs handle.
type SpanName struct {
	st   *state
	name string
	idx  int32
}

// Name returns the registered (prefixed) span name.
func (n *SpanName) Name() string {
	if n == nil {
		return ""
	}
	return n.name
}

// Span is one in-flight timed section. The zero Span is "not sampled":
// Context returns the zero SpanContext and End is a no-op, so callers
// never branch on sampling themselves.
type Span struct {
	name   *SpanName
	trace  TraceID
	id     SpanID
	parent SpanID
	start  int64
}

// Context returns the propagation context for children of this span.
//
// hotpath: no alloc, no lock
func (s Span) Context() SpanContext {
	return SpanContext{Trace: s.trace, Span: s.id}
}

// spanSlot is one ring entry. All fields are atomics so concurrent
// recording and snapshotting stay exact under -race; ver is a seqlock
// word (0 = never written, odd = write in progress, even = published).
type spanSlot struct {
	ver    atomic.Uint64
	trace  atomic.Uint64
	span   atomic.Uint64
	parent atomic.Uint64
	name   atomic.Int64
	start  atomic.Int64
	end    atomic.Int64
}

// spanStripe is one independent ring with its own write cursor.
type spanStripe struct {
	cursor atomic.Uint64
	_      [7]uint64 // keep hot cursors off each other's cache line
	ring   [spanStripeSlots]spanSlot
}

// spanTable is the per-state span machinery shared by a registry and
// its Sub views.
type spanTable struct {
	every    atomic.Int64  // sampling period; <=0 disables tracing
	rootSeq  atomic.Uint64 // root attempts, drives deterministic sampling
	traceSeq atomic.Uint64 // allocated trace IDs
	spanSeq  atomic.Uint64 // allocated span IDs
	dropped  atomic.Uint64 // spans lost to slot-claim contention

	names map[string]*SpanName // under the owning state's mu
	byIdx []*SpanName          // under the owning state's mu; append-only

	stripes [spanStripes]spanStripe
}

func newSpanTable() *spanTable {
	t := &spanTable{names: make(map[string]*SpanName)}
	t.every.Store(DefaultSpanSampling)
	return t
}

// SpanName registers (or finds) a span type. Names follow the metric
// grammar (lowercase dot-separated, two or more segments) and the
// view's Sub prefix applies; the obscheck analyzer enforces literal,
// once-registered names at call sites.
func (r *Registry) SpanName(name string) *SpanName {
	if r == nil {
		return nil
	}
	full := r.full(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	t := r.st.spans
	if n, ok := t.names[full]; ok {
		return n
	}
	n := &SpanName{st: r.st, name: full, idx: int32(len(t.byIdx))}
	t.names[full] = n
	t.byIdx = append(t.byIdx, n)
	return n
}

// SetSpanSampling sets the root-sampling period: one root attempt in
// every n starts a trace. n == 1 traces everything, n <= 0 disables
// tracing entirely (Root returns only zero Spans). The swap is atomic
// and safe under load; Sub views share the knob.
func (r *Registry) SetSpanSampling(n int) {
	if r == nil {
		return
	}
	r.st.spans.every.Store(int64(n))
}

// Root makes the sampling decision for a new request. One call in every
// SetSpanSampling(n) returns a live root span (the first attempt is
// always sampled, so short deterministic runs trace from op zero); the
// rest return the zero Span. The decision is a deterministic counter,
// not a random draw, so same-seed runs sample the same requests.
//
// hotpath: no alloc, no lock
func (n *SpanName) Root() Span {
	if n == nil {
		return Span{}
	}
	t := n.st.spans
	every := t.every.Load()
	if every <= 0 {
		return Span{}
	}
	if (t.rootSeq.Add(1)-1)%uint64(every) != 0 {
		return Span{}
	}
	return Span{
		name:  n,
		trace: TraceID(t.traceSeq.Add(1)),
		id:    SpanID(t.spanSeq.Add(1)),
		start: (*n.st.clock.Load())(),
	}
}

// Start opens a child span under parent. On an unsampled context this
// is a single compare returning the zero Span.
//
// hotpath: no alloc, no lock
func (n *SpanName) Start(parent SpanContext) Span {
	if n == nil || parent.Trace == 0 {
		return Span{}
	}
	return Span{
		name:   n,
		trace:  parent.Trace,
		id:     SpanID(n.st.spans.spanSeq.Add(1)),
		parent: parent.Span,
		start:  (*n.st.clock.Load())(),
	}
}

// End timestamps the span and records it into its stripe's ring. A slot
// whose seqlock CAS fails (another recorder mid-write after a cursor
// lap) drops the span and counts it — recording never blocks.
//
// hotpath: no alloc, no lock
func (s Span) End() {
	if s.trace == 0 {
		return
	}
	st := s.name.st
	st.spans.record(s, (*st.clock.Load())())
}

func (t *spanTable) record(s Span, end int64) {
	str := &t.stripes[uint64(s.trace)&(spanStripes-1)]
	i := str.cursor.Add(1) - 1
	slot := &str.ring[i&(spanStripeSlots-1)]
	v := slot.ver.Load()
	if v&1 != 0 || !slot.ver.CompareAndSwap(v, v+1) {
		t.dropped.Add(1)
		return
	}
	slot.trace.Store(uint64(s.trace))
	slot.span.Store(uint64(s.id))
	slot.parent.Store(uint64(s.parent))
	slot.name.Store(int64(s.name.idx))
	slot.start.Store(s.start)
	slot.end.Store(end)
	slot.ver.Store(v + 2)
}

// SpanCount reports how many spans have ever been recorded (including
// ones since overwritten) — the stress test asserts it is monotone.
func (r *Registry) SpanCount() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.st.spans.stripes {
		n += r.st.spans.stripes[i].cursor.Load()
	}
	return n - r.SpanDropped()
}

// SpanDropped reports spans lost to slot-claim contention.
func (r *Registry) SpanDropped() uint64 {
	if r == nil {
		return 0
	}
	return r.st.spans.dropped.Load()
}

// SpanRecord is one completed span as read back from the rings.
type SpanRecord struct {
	Trace  TraceID `json:"trace"`
	Span   SpanID  `json:"span"`
	Parent SpanID  `json:"parent"`
	Name   string  `json:"name"`
	Start  int64   `json:"start"`
	End    int64   `json:"end"`
}

// SpanRecords snapshots the retained spans, sorted by (trace, span) so
// identical histories read back identically. Each slot is copied under
// its seqlock version: a slot that changes mid-copy is skipped, never
// returned torn.
func (r *Registry) SpanRecords() []SpanRecord {
	if r == nil {
		return nil
	}
	r.st.mu.Lock()
	byIdx := r.st.spans.byIdx[:len(r.st.spans.byIdx):len(r.st.spans.byIdx)]
	r.st.mu.Unlock()
	var out []SpanRecord
	for si := range r.st.spans.stripes {
		str := &r.st.spans.stripes[si]
		for i := range str.ring {
			slot := &str.ring[i]
			v1 := slot.ver.Load()
			if v1 == 0 || v1&1 != 0 {
				continue
			}
			rec := SpanRecord{
				Trace:  TraceID(slot.trace.Load()),
				Span:   SpanID(slot.span.Load()),
				Parent: SpanID(slot.parent.Load()),
				Start:  slot.start.Load(),
				End:    slot.end.Load(),
			}
			idx := slot.name.Load()
			if slot.ver.Load() != v1 {
				continue
			}
			if idx < 0 || idx >= int64(len(byIdx)) {
				continue
			}
			rec.Name = byIdx[idx].name
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Trace != out[j].Trace {
			return out[i].Trace < out[j].Trace
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// WriteSpans dumps the retained spans as a JSON array sorted by
// (trace, span). Like WriteTrace, the encoding is hand-built in
// declaration order so two identical histories produce byte-identical
// dumps:
//
//	[
//	  {"trace":1,"span":1,"parent":0,"name":"shard.handoff","start":10,"end":90},
//	  ...
//	]
func (r *Registry) WriteSpans(w io.Writer) error {
	_, err := w.Write(r.SpanJSON())
	return err
}

// SpanJSON renders the retained spans; see WriteSpans.
func (r *Registry) SpanJSON() []byte {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	recs := r.SpanRecords()
	for i, rec := range recs {
		buf.WriteString("  {\"trace\":")
		buf.WriteString(strconv.FormatUint(uint64(rec.Trace), 10))
		buf.WriteString(",\"span\":")
		buf.WriteString(strconv.FormatUint(uint64(rec.Span), 10))
		buf.WriteString(",\"parent\":")
		buf.WriteString(strconv.FormatUint(uint64(rec.Parent), 10))
		buf.WriteString(",\"name\":\"")
		buf.WriteString(rec.Name)
		buf.WriteString("\",\"start\":")
		buf.WriteString(strconv.FormatInt(rec.Start, 10))
		buf.WriteString(",\"end\":")
		buf.WriteString(strconv.FormatInt(rec.End, 10))
		buf.WriteString("}")
		if i < len(recs)-1 {
			buf.WriteString(",")
		}
		buf.WriteString("\n")
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}
