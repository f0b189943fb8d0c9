package obs

import (
	"bytes"
	"io"
	"strconv"
	"sync"
)

// defaultTraceCap bounds the event ring: old events are overwritten,
// never allocated past the cap.
const defaultTraceCap = 4096

// maxEventArgs is the fixed per-event argument capacity; registration
// rejects event types with more keys.
const maxEventArgs = 4

// EventType is one registered kind of trace event: a name plus the
// ordered key names its Emit arguments bind to. Obtain through
// Registry.EventType; nil-safe like every obs handle.
type EventType struct {
	tr   *Tracer
	st   *state
	name string
	keys []string
}

// Name returns the registered (prefixed) event name.
func (e *EventType) Name() string {
	if e == nil {
		return ""
	}
	return e.name
}

// Emit records one event, binding args to the type's keys in order
// (missing trailing args read as absent in the dump). Extra args panic:
// that is a programming error at the call site. Emit copies args into a
// fixed-size slot — no allocation — and timestamps the event with the
// registry's injected clock. Emission takes the tracer mutex, so trace
// points belong on slow paths only: the annotation is deliberately just
// "no alloc".
//
// hotpath: no alloc
func (e *EventType) Emit(args ...int64) {
	if e == nil {
		return
	}
	if len(args) > len(e.keys) {
		panic("obs: event " + quote(e.name) + " emitted with too many args")
	}
	e.tr.emit(e, (*e.st.clock.Load())(), args)
}

// event is one ring slot.
type event struct {
	seq  uint64
	time int64
	typ  *EventType
	n    int
	args [maxEventArgs]int64
}

// Tracer is the bounded ring of structured events shared by a registry
// and its Sub views. Emission takes a short mutex — trace points sit on
// slow paths (installs, handoffs, faults), never on the per-request fast
// path, so a lock here is cheap and keeps dumps consistent under -race.
type Tracer struct {
	mu    sync.Mutex
	types map[string]*EventType // guarded by mu
	ring  []event               // guarded by mu
	next  int                   // guarded by mu; ring write cursor
	seq   uint64                // guarded by mu; total events ever emitted
}

func newTracer(cap int) *Tracer {
	return &Tracer{types: make(map[string]*EventType), ring: make([]event, cap)}
}

// EventType registers (or finds) a trace event type. Names follow the
// metric grammar (lowercase dot-separated, two or more segments) and the
// view's Sub prefix applies. Re-registering with different keys panics.
func (r *Registry) EventType(name string, keys ...string) *EventType {
	if r == nil {
		return nil
	}
	if len(keys) > maxEventArgs {
		panic("obs: event " + quote(name) + " declares more than " +
			strconv.Itoa(maxEventArgs) + " keys")
	}
	for _, k := range keys {
		if !validName(k, 1) {
			panic("obs: invalid event key " + quote(k))
		}
	}
	full := r.full(name)
	return r.st.tracer.register(r.st, full, keys)
}

func (t *Tracer) register(st *state, full string, keys []string) *EventType {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.types[full]; ok {
		if !equalKeys(e.keys, keys) {
			panic("obs: event " + quote(full) + " re-registered with different keys")
		}
		return e
	}
	e := &EventType{tr: t, st: st, name: full, keys: append([]string(nil), keys...)}
	t.types[full] = e
	return e
}

func (t *Tracer) emit(e *EventType, now int64, args []int64) {
	ev := event{time: now, typ: e, n: len(args)}
	copy(ev.args[:], args)
	t.mu.Lock()
	ev.seq = t.seq
	t.seq++
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.mu.Unlock()
}

// snapshot copies the retained events in emission order, with the count
// of events ever emitted as of that copy (the next event's seq).
func (t *Tracer) snapshot() ([]event, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]event, 0, len(t.ring))
	// Oldest retained event sits at the write cursor once the ring has
	// wrapped; before that, the ring is [0, next).
	start := 0
	if t.seq >= uint64(len(t.ring)) {
		start = t.next
	}
	for i := 0; i < len(t.ring); i++ {
		ev := t.ring[(start+i)%len(t.ring)]
		if ev.typ == nil {
			continue
		}
		out = append(out, ev)
	}
	return out, t.seq
}

// WriteTrace dumps the retained events as a JSON array, oldest first.
// The encoding is hand-built in declaration order — no maps — so two
// identical event sequences produce byte-identical dumps:
//
//	[
//	  {"seq":0,"t":120,"type":"core.path.install","bs":3,"clause":1},
//	  ...
//	]
func (r *Registry) WriteTrace(w io.Writer) error {
	_, err := w.Write(r.TraceJSON())
	return err
}

// TraceJSON renders the retained events; see WriteTrace.
func (r *Registry) TraceJSON() []byte {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	if r != nil {
		events, _ := r.st.tracer.snapshot()
		for i, ev := range events {
			buf.WriteString("  ")
			appendEvent(&buf, ev)
			if i < len(events)-1 {
				buf.WriteString(",")
			}
			buf.WriteString("\n")
		}
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}

// appendEvent writes one event object in the hand-built deterministic
// encoding shared by TraceJSON and TraceJSONSince.
func appendEvent(buf *bytes.Buffer, ev event) {
	buf.WriteString("{\"seq\":")
	buf.WriteString(strconv.FormatUint(ev.seq, 10))
	buf.WriteString(",\"t\":")
	buf.WriteString(strconv.FormatInt(ev.time, 10))
	buf.WriteString(",\"type\":\"")
	buf.WriteString(ev.typ.name)
	buf.WriteString("\"")
	for k := 0; k < ev.n; k++ {
		buf.WriteString(",\"")
		buf.WriteString(ev.typ.keys[k])
		buf.WriteString("\":")
		buf.WriteString(strconv.FormatInt(ev.args[k], 10))
	}
	buf.WriteString("}")
}

// TraceJSONSince renders the retained events whose sequence number is
// >= since, wrapped with the cursor a poller should pass next time:
//
//	{"next":42,
//	"events":[
//	  {"seq":40,...},
//	  {"seq":41,...}
//	]}
//
// Polling with the returned cursor tails the ring incrementally without
// re-downloading the full dump; events evicted between polls are simply
// absent (seq gaps tell the poller how many it lost).
func (r *Registry) TraceJSONSince(since uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString("{\"next\":")
	if r == nil {
		buf.WriteString("0,\n\"events\":[\n]}\n")
		return buf.Bytes()
	}
	// The cursor comes from the same locked copy as the events: read
	// apart, an event emitted in between would be in neither this dump nor
	// the next.
	events, next := r.st.tracer.snapshot()
	buf.WriteString(strconv.FormatUint(next, 10))
	buf.WriteString(",\n\"events\":[\n")
	kept := events[:0]
	for _, ev := range events {
		if ev.seq >= since {
			kept = append(kept, ev)
		}
	}
	for i, ev := range kept {
		buf.WriteString("  ")
		appendEvent(&buf, ev)
		if i < len(kept)-1 {
			buf.WriteString(",")
		}
		buf.WriteString("\n")
	}
	buf.WriteString("]}\n")
	return buf.Bytes()
}

// TraceLen reports how many events have ever been emitted (not just
// retained) — the stress test asserts it is monotone and exact.
func (r *Registry) TraceLen() uint64 {
	if r == nil {
		return 0
	}
	t := r.st.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
