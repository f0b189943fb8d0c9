package obs

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("test.hits")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test.depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every call on the nil registry and its nil handles must be a no-op.
	r.Counter("a.b").Inc()
	r.Counter("a.b").Add(3)
	r.Gauge("a.b").Set(1)
	r.Histogram("a.b", 1, 2).Observe(5)
	r.EventType("a.b", "x").Emit(1)
	r.SetClock(func() int64 { return 9 })
	if r.Now() != 0 {
		t.Fatal("nil registry Now != 0")
	}
	if r.Sub("x") != nil {
		t.Fatal("nil registry Sub != nil")
	}
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Fatalf("nil snapshot has %d counters", n)
	}
	if got := string(r.TraceJSON()); got != "[\n]\n" {
		t.Fatalf("nil trace dump = %q", got)
	}
}

func TestGetOrCreate(t *testing.T) {
	r := New()
	a := r.Counter("dup.count")
	b := r.Counter("dup.count")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	h1 := r.Histogram("dup.lat", 1, 2, 3)
	h2 := r.Histogram("dup.lat", 1, 2, 3)
	if h1 != h2 {
		t.Fatal("re-registration returned a different histogram")
	}
	e1 := r.EventType("dup.ev", "a", "b")
	e2 := r.EventType("dup.ev", "a", "b")
	if e1 != e2 {
		t.Fatal("re-registration returned a different event type")
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := New()
	r.Counter("kind.clash")
	mustPanic("kind clash", func() { r.Gauge("kind.clash") })
	r.Histogram("hist.bounds", 1, 2)
	mustPanic("bounds clash", func() { r.Histogram("hist.bounds", 1, 3) })
	mustPanic("unsorted bounds", func() { r.Histogram("hist.bad", 2, 1) })
	mustPanic("no bounds", func() { r.Histogram("hist.none") })
	r.EventType("ev.keys", "a")
	mustPanic("key clash", func() { r.EventType("ev.keys", "b") })
	mustPanic("too many keys", func() { r.EventType("ev.wide", "a", "b", "c", "d", "e") })
	mustPanic("single segment", func() { r.Counter("flat") })
	mustPanic("uppercase", func() { r.Counter("Core.hits") })
	mustPanic("empty segment", func() { r.Counter("core..hits") })
	mustPanic("trailing dot", func() { r.Counter("core.hits.") })
	mustPanic("bad sub", func() { r.Sub("Bad") })
	ev := r.EventType("ev.narrow", "a")
	mustPanic("excess args", func() { ev.Emit(1, 2) })
}

func TestSubScoping(t *testing.T) {
	r := New()
	s0 := r.Sub("shard.0")
	s1 := r.Sub("shard.1")
	s0.Counter("queue.drops").Inc()
	s1.Counter("queue.drops").Add(2)
	snap := r.Snapshot()
	if snap.Counters["shard.0.queue.drops"] != 1 || snap.Counters["shard.1.queue.drops"] != 2 {
		t.Fatalf("sub-scoped counters wrong: %v", snap.Counters)
	}
	// Sub views share the clock.
	r.SetClock(func() int64 { return 42 })
	if s0.Now() != 42 {
		t.Fatalf("sub view Now = %d, want 42", s0.Now())
	}
}

// TestHistogramBucketBoundaries pins the boundary semantics the exporters
// rely on: bounds are inclusive upper bounds, values above the last bound
// land in the overflow bucket, and negative values land in the first.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("bound.check", 10, 100, 1000)
	for _, v := range []int64{-5, 0, 10, 11, 100, 101, 1000, 1001, 1 << 40} {
		h.Observe(v)
	}
	want := []uint64{3, 2, 2, 2} // (-inf,10] (10,100] (100,1000] (1000,inf)
	got := h.Counts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	var sum int64
	for _, v := range []int64{-5, 0, 10, 11, 100, 101, 1000, 1001, 1 << 40} {
		sum += v
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %d, want %d", h.Sum(), sum)
	}
	snap := r.Snapshot().Histograms["bound.check"]
	if snap.Count != 9 {
		t.Fatalf("snapshot count = %d, want 9", snap.Count)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		r := New()
		r.Counter("z.last").Add(3)
		r.Counter("a.first").Add(1)
		r.Gauge("m.mid").Set(-2)
		r.Histogram("h.lat", 5, 50).Observe(7)
		return r.Snapshot().JSON()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical registries produced different snapshot JSON")
	}
}

func TestTraceRingAndDump(t *testing.T) {
	r := New()
	var now int64
	r.SetClock(func() int64 { return now })
	ev := r.EventType("trace.step", "idx", "val")
	now = 100
	ev.Emit(0, 10)
	now = 200
	ev.Emit(1) // trailing arg omitted: key dropped from the dump
	dump := string(r.TraceJSON())
	want := "[\n" +
		"  {\"seq\":0,\"t\":100,\"type\":\"trace.step\",\"idx\":0,\"val\":10},\n" +
		"  {\"seq\":1,\"t\":200,\"type\":\"trace.step\",\"idx\":1}\n" +
		"]\n"
	if dump != want {
		t.Fatalf("trace dump:\n%s\nwant:\n%s", dump, want)
	}
	if r.TraceLen() != 2 {
		t.Fatalf("TraceLen = %d, want 2", r.TraceLen())
	}
}

func TestTraceRingWraps(t *testing.T) {
	r := New()
	ev := r.EventType("wrap.tick", "i")
	n := defaultTraceCap + 10
	for i := 0; i < n; i++ {
		ev.Emit(int64(i))
	}
	dump := string(r.TraceJSON())
	if strings.Count(dump, "\"type\"") != defaultTraceCap {
		t.Fatalf("retained %d events, want %d", strings.Count(dump, "\"type\""), defaultTraceCap)
	}
	// Oldest retained must be event n - cap, newest n - 1.
	if !strings.Contains(dump, "\"seq\":10,") {
		t.Fatal("oldest retained event missing")
	}
	if strings.Contains(dump, "\"seq\":9,") {
		t.Fatal("overwritten event still present")
	}
	if !strings.Contains(dump, "\"seq\":"+itoa(n-1)+",") {
		t.Fatal("newest event missing")
	}
	if r.TraceLen() != uint64(n) {
		t.Fatalf("TraceLen = %d, want %d", r.TraceLen(), n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("core.tagcache.hit").Add(12)
	r.Gauge("shard.queue.depth").Set(3)
	h := r.Histogram("wire.flush.frames", 1, 8)
	h.Observe(1)
	h.Observe(4)
	h.Observe(99)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		"# TYPE core_tagcache_hit counter",
		"core_tagcache_hit 12",
		"# TYPE shard_queue_depth gauge",
		"shard_queue_depth 3",
		"# TYPE wire_flush_frames histogram",
		`wire_flush_frames_bucket{le="1"} 1`,
		`wire_flush_frames_bucket{le="8"} 2`,
		`wire_flush_frames_bucket{le="+Inf"} 3`,
		"wire_flush_frames_sum 104",
		"wire_flush_frames_count 3",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("prometheus output missing %q:\n%s", line, out)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	r := New()
	r.Counter("b.two")
	r.Gauge("a.one")
	r.Histogram("c.three", 1)
	got := r.Names()
	want := []string{"a.one", "b.two", "c.three"}
	if len(got) != len(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.st.mu.Lock()
	names := make([]string, 0, len(r.st.counters)+len(r.st.gauges)+len(r.st.hists))
	for name := range r.st.counters {
		names = append(names, name)
	}
	for name := range r.st.gauges {
		names = append(names, name)
	}
	for name := range r.st.hists {
		names = append(names, name)
	}
	r.st.mu.Unlock()
	sort.Strings(names)
	return names
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
