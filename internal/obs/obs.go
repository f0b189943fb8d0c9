// Package obs is the runtime observability layer: lock-free counters,
// gauges and fixed-bucket histograms cheap enough for the controller's
// zero-allocation fast path, plus a bounded structured event tracer
// (trace.go) and text/HTTP exporters (prom.go, http.go).
//
// Design rules, enforced by the obscheck/determinism lint analyzers:
//
//   - Metric and event names are lowercase dot-separated literals
//     ("core.tagcache.hit"), each registered at exactly one call site.
//     Per-instance scoping (one name per shard, per agent, ...) goes
//     through Sub, which prepends a prefix — the literal at the call
//     site stays checkable.
//   - Registration is get-or-create: asking for an already-registered
//     name of the same kind returns the existing metric, so rebuilt
//     components (shard failover, chaos agent restarts) re-instrument
//     safely. A kind or bucket mismatch is a programming error and
//     panics.
//   - obs never reads the wall clock. Time comes from an injected clock
//     (SetClock); the default clock returns 0. Deterministic harnesses
//     inject the sim kernel's virtual clock, so same-seed runs produce
//     byte-identical trace dumps; daemons inject time.Now at the edge.
//
// Every handle type is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *EventType or *Registry are no-ops, so instrumented code
// needs no "is observability on?" branches.
package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
)

// clockFunc is the injected time source; it reports nanoseconds on an
// arbitrary (caller-chosen) epoch.
type clockFunc func() int64

// Registry is a named view onto a metric table. The zero of the API is a
// nil *Registry, on which every method is a no-op. Sub derives prefixed
// views sharing the same table.
type Registry struct {
	prefix string
	st     *state
}

// state is the table shared by a registry and all its Sub views.
//
// The registration maps are mutated only under mu; the metric values
// themselves are atomics, written lock-free by the handles.
type state struct {
	clock atomic.Pointer[clockFunc]

	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	docs     map[string]string     // guarded by mu; metric help strings
	tracer   *Tracer
	spans    *spanTable
}

// New creates an empty registry. The clock starts at a constant zero;
// inject a real or virtual time source with SetClock.
func New() *Registry {
	st := &state{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		docs:     make(map[string]string),
		tracer:   newTracer(defaultTraceCap),
		spans:    newSpanTable(),
	}
	zero := clockFunc(func() int64 { return 0 })
	st.clock.Store(&zero)
	return &Registry{st: st}
}

// SetClock injects the time source used for histogram latency math by
// callers (via Now) and for trace event timestamps. Safe to call at any
// time; the swap is atomic. Sub views share the clock.
func (r *Registry) SetClock(now func() int64) {
	if r == nil || now == nil {
		return
	}
	fn := clockFunc(now)
	r.st.clock.Store(&fn)
}

// Now reads the injected clock; 0 on a nil registry.
func (r *Registry) Now() int64 {
	if r == nil {
		return 0
	}
	return (*r.st.clock.Load())()
}

// Sub returns a view whose registrations are prefixed with prefix + ".".
// The view shares the parent's table, clock and tracer. The prefix must
// be one or more lowercase dot-separated segments ("shard.0").
func (r *Registry) Sub(prefix string) *Registry {
	if r == nil {
		return nil
	}
	if !validName(prefix, 1) {
		panic("obs: invalid sub prefix " + quote(prefix))
	}
	return &Registry{prefix: r.prefix + prefix + ".", st: r.st}
}

// Counter is a monotone event count. Nil-safe; increments are single
// atomic adds (~a few ns) and never allocate.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
//
// hotpath: no alloc, no lock
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Adding zero is not an atomic operation at all, so a batch
// flush may hand over its empty tallies for free.
//
// hotpath: no alloc, no lock
func (c *Counter) Add(n uint64) {
	if c != nil && n != 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Set stores an absolute level.
//
// hotpath: no alloc, no lock
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the level by delta (negative to decrement).
//
// hotpath: no alloc, no lock
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value reads the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// bounds in the caller's unit (latencies: nanoseconds); one implicit
// overflow bucket catches everything above the last bound. Observe is a
// short linear scan plus two atomic adds — no locks, no allocation.
type Histogram struct {
	bounds []int64 // immutable after registration
	counts []atomic.Uint64
	sum    atomic.Int64
}

// Observe records one value.
//
// hotpath: no alloc, no lock
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Bounds returns the bucket upper bounds (shared slice: do not mutate).
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Counts snapshots the per-bucket counts; index len(Bounds()) is the
// overflow bucket.
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Counter registers (or finds) a counter. The name must be at least two
// lowercase dot-separated segments; a name already registered as another
// kind panics.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	full := r.full(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if c, ok := r.st.counters[full]; ok {
		return c
	}
	r.st.checkFresh(full, "counter")
	c := &Counter{}
	r.st.counters[full] = c
	return c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	full := r.full(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if g, ok := r.st.gauges[full]; ok {
		return g
	}
	r.st.checkFresh(full, "gauge")
	g := &Gauge{}
	r.st.gauges[full] = g
	return g
}

// Histogram registers (or finds) a histogram with the given strictly
// increasing bucket upper bounds. Re-registering with different bounds
// panics.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	full := r.full(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if h, ok := r.st.hists[full]; ok {
		if !equalBounds(h.bounds, bounds) {
			panic("obs: histogram " + quote(full) + " re-registered with different bounds")
		}
		return h
	}
	r.st.checkFresh(full, "histogram")
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	r.st.hists[full] = h
	return h
}

// Doc attaches a help string to a metric name (the view prefix applies).
// The Prometheus exporter emits it as a `# HELP` line ahead of `# TYPE`.
// Docs are optional; re-registering the same doc is a no-op and a
// conflicting doc for the same name panics — one metric, one meaning.
func (r *Registry) Doc(name, doc string) {
	if r == nil {
		return
	}
	full := r.full(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	if prev, ok := r.st.docs[full]; ok && prev != doc {
		panic("obs: conflicting help for " + quote(full))
	}
	r.st.docs[full] = doc
}

// full validates a registration name and applies the view prefix.
func (r *Registry) full(name string) string {
	if !validName(name, 2) {
		panic("obs: invalid metric name " + quote(name) +
			" (want lowercase dot-separated, at least two segments)")
	}
	return r.prefix + name
}

// checkFresh panics if full is already registered as a different kind.
//
// caller holds mu
func (st *state) checkFresh(full, kind string) {
	for other, m := range map[string]bool{
		"counter":   st.counters[full] != nil,
		"gauge":     st.gauges[full] != nil,
		"histogram": st.hists[full] != nil,
	} {
		if m && other != kind {
			panic("obs: " + quote(full) + " already registered as a " + other)
		}
	}
}

// validName reports whether s is minSeg+ dot-separated segments of
// [a-z0-9_]. Hand-rolled so registration stays dependency- and
// regexp-free.
func validName(s string, minSeg int) bool {
	seg, segs := 0, 0
	for i := 0; i < len(s); i++ {
		switch ch := s[i]; {
		case ch >= 'a' && ch <= 'z', ch >= '0' && ch <= '9', ch == '_':
			seg++
		case ch == '.':
			if seg == 0 {
				return false
			}
			segs++
			seg = 0
		default:
			return false
		}
	}
	if seg == 0 {
		return false
	}
	return segs+1 >= minSeg
}

func equalBounds(a, b []int64) bool {
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

// quote quotes a name for panic messages without importing fmt.
func quote(s string) string {
	return "\"" + s + "\""
}

// HistogramSnapshot is one histogram in a Snapshot: parallel bounds and
// counts (counts has one extra overflow entry), plus sum and total.
type HistogramSnapshot struct {
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    int64    `json:"sum"`
}

// Snapshot is a point-in-time copy of every registered metric. Maps
// marshal with sorted keys, so JSON output is deterministic given
// deterministic values.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Help       map[string]string            `json:"help,omitempty"`
}

// Snapshot copies every metric's current value. Counters are read with
// individual atomic loads: values written before the snapshot started
// are always included, so repeated snapshots see monotone counters.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	type namedCounter struct {
		name string
		c    *Counter
	}
	type namedGauge struct {
		name string
		g    *Gauge
	}
	type namedHist struct {
		name string
		h    *Histogram
	}
	var cs []namedCounter
	var gs []namedGauge
	var hs []namedHist
	r.st.mu.Lock()
	for name, c := range r.st.counters {
		cs = append(cs, namedCounter{name, c})
	}
	for name, g := range r.st.gauges {
		gs = append(gs, namedGauge{name, g})
	}
	for name, h := range r.st.hists {
		hs = append(hs, namedHist{name, h})
	}
	if len(r.st.docs) > 0 {
		s.Help = make(map[string]string, len(r.st.docs))
		for name, doc := range r.st.docs {
			s.Help[name] = doc
		}
	}
	r.st.mu.Unlock()
	for _, nc := range cs {
		s.Counters[nc.name] = nc.c.Value()
	}
	for _, ng := range gs {
		s.Gauges[ng.name] = ng.g.Value()
	}
	for _, nh := range hs {
		counts := nh.h.Counts()
		var total uint64
		for _, n := range counts {
			total += n
		}
		s.Histograms[nh.name] = HistogramSnapshot{
			Bounds: nh.h.Bounds(), Counts: counts, Count: total, Sum: nh.h.Sum(),
		}
	}
	return s
}

// JSON renders the snapshot with sorted keys and stable indentation.
func (s Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Snapshot contains only maps of scalars; this cannot fail.
		panic("obs: snapshot marshal: " + err.Error())
	}
	return append(b, '\n')
}

// Names returns every registered metric name, sorted — handy for tests
// and for the Prometheus exporter's stable output order.
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
