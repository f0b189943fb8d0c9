package obs

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// tickClock returns a deterministic monotone clock: every read advances
// one nanosecond. Spans timed with it get exact, replayable durations.
func tickClock() func() int64 {
	var t atomic.Int64
	return func() int64 { return t.Add(1) }
}

func TestSpanBasics(t *testing.T) {
	r := New()
	r.SetClock(tickClock())
	r.SetSpanSampling(1)
	root := r.SpanName("span.root")
	child := r.SpanName("span.child")

	sp := root.Root()
	if !sp.Context().Sampled() {
		t.Fatal("sampling 1 must trace the first request")
	}
	c1 := child.Start(sp.Context())
	c1.End()
	c2 := child.Start(sp.Context())
	c2.End()
	sp.End()

	recs := r.SpanRecords()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Records sort by (trace, span): root allocated its ID first.
	if recs[0].Name != "span.root" || recs[0].Parent != 0 {
		t.Fatalf("first record is not the root: %+v", recs[0])
	}
	for _, rec := range recs[1:] {
		if rec.Name != "span.child" {
			t.Fatalf("unexpected span name %q", rec.Name)
		}
		if rec.Parent != recs[0].Span {
			t.Fatalf("child parent %d, want root span %d", rec.Parent, recs[0].Span)
		}
		if rec.Trace != recs[0].Trace {
			t.Fatalf("child trace %d, want %d", rec.Trace, recs[0].Trace)
		}
		if rec.End <= rec.Start {
			t.Fatalf("non-positive child duration: %+v", rec)
		}
	}
	// The root opened before and closed after both children.
	if recs[0].Start >= recs[1].Start || recs[0].End <= recs[2].End {
		t.Fatalf("root does not enclose children: %+v", recs)
	}
	if got := r.SpanCount(); got != 3 {
		t.Fatalf("SpanCount %d, want 3", got)
	}
	if r.st.spans.dropped.Load() != 0 {
		t.Fatalf("unexpected drops: %d", r.st.spans.dropped.Load())
	}
}

func TestSpanSamplingDeterministic(t *testing.T) {
	run := func() []byte {
		r := New()
		r.SetClock(tickClock())
		r.SetSpanSampling(4)
		root := r.SpanName("span.root")
		child := r.SpanName("span.child")
		for i := 0; i < 10; i++ {
			sp := root.Root()
			c := child.Start(sp.Context())
			c.End()
			sp.End()
		}
		return r.SpanJSON()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed span dumps differ:\n%s\n----\n%s", a, b)
	}
	// 10 root attempts at 1-in-4: attempts 0, 4 and 8 sample.
	r := New()
	r.SetSpanSampling(4)
	root := r.SpanName("span.root")
	var sampled int
	for i := 0; i < 10; i++ {
		sp := root.Root()
		if sp.Context().Sampled() {
			sampled++
		}
		sp.End()
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 10 at 1-in-4, want 3", sampled)
	}
}

func TestSpanDisabledAndNilSafety(t *testing.T) {
	r := New()
	r.SetSpanSampling(0)
	root := r.SpanName("span.root")
	if root.Root().Context().Sampled() {
		t.Fatal("sampling 0 must disable tracing")
	}
	var nilName *SpanName
	nilName.Root().End()
	nilName.Start(SpanContext{}).End()
	var nilReg *Registry
	nilReg.SetSpanSampling(8)
	nilReg.SpanName("span.x").Root().End()
	if nilReg.SpanRecords() != nil || nilReg.SpanCount() != 0 {
		t.Fatal("nil registry must report no spans")
	}
	if !bytes.Equal(nilReg.SpanJSON(), []byte("[\n]\n")) {
		t.Fatalf("nil registry span dump: %q", nilReg.SpanJSON())
	}
	// A child under an unsampled parent stays unsampled.
	if r.SpanName("span.child").Start(SpanContext{}).Context().Sampled() {
		t.Fatal("child of unsampled context must be unsampled")
	}
}

func TestSpanNameRegistration(t *testing.T) {
	r := New()
	a := r.SpanName("span.one")
	if b := r.SpanName("span.one"); a != b {
		t.Fatal("re-registration must return the same handle")
	}
	sub := r.Sub("shard.0")
	if got := sub.SpanName("span.one").name; got != "shard.0.span.one" {
		t.Fatalf("sub-prefixed span name %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("single-segment span name must panic")
		}
	}()
	r.SpanName("single")
}

// TestSpanRingWraps drives one trace far past the stripe capacity: the
// retained set stays bounded, the total recorded count stays exact, and
// the retained records are the most recent ones.
func TestSpanRingWraps(t *testing.T) {
	r := New()
	r.SetClock(tickClock())
	r.SetSpanSampling(1)
	root := r.SpanName("span.root")
	child := r.SpanName("span.child")
	sp := root.Root()
	const n = spanStripeSlots * 3
	for i := 0; i < n; i++ {
		child.Start(sp.Context()).End()
	}
	sp.End()
	if got := r.SpanCount(); got != n+1 {
		t.Fatalf("SpanCount %d, want %d", got, n+1)
	}
	recs := r.SpanRecords()
	if len(recs) > spanStripeSlots {
		t.Fatalf("one-trace retention %d exceeds stripe capacity %d", len(recs), spanStripeSlots)
	}
	// The root closed last, so it must have survived the wrap.
	if recs[0].Name != "span.root" {
		t.Fatalf("root span evicted: first retained is %+v", recs[0])
	}
}

// TestSpanUnsampledZeroAlloc is the alloc gate for the tracing fast
// path (make verify fails if it regresses): the not-sampled branches of
// Root, Start and End must not allocate.
func TestSpanUnsampledZeroAlloc(t *testing.T) {
	r := New()
	r.SetSpanSampling(1 << 30) // sampled once at most, on the first run
	root := r.SpanName("span.root")
	child := r.SpanName("span.child")
	root.Root().End() // burn the always-sampled first attempt
	if n := testing.AllocsPerRun(1000, func() {
		sp := root.Root()
		c := child.Start(sp.Context())
		c.End()
		sp.End()
	}); n != 0 {
		t.Fatalf("unsampled span path allocates %.1f per op, want 0", n)
	}
}

// TestSpanSampledZeroAlloc pins the sampled path too: recording into
// the ring is slot reuse, never allocation.
func TestSpanSampledZeroAlloc(t *testing.T) {
	r := New()
	r.SetClock(tickClock())
	r.SetSpanSampling(1)
	root := r.SpanName("span.root")
	child := r.SpanName("span.child")
	if n := testing.AllocsPerRun(1000, func() {
		sp := root.Root()
		c := child.Start(sp.Context())
		c.End()
		sp.End()
	}); n != 0 {
		t.Fatalf("sampled span path allocates %.1f per op, want 0", n)
	}
}

// TestSpanRingStress hammers the span rings from concurrent recorders
// while a reader snapshots continuously — run under -race by make
// verify. Asserts the recorded count is monotone and every snapshot is
// torn-read-free: all fields of a record are mutually consistent (valid
// name, end at or after start, live trace ID) because the seqlock
// rejects slots that changed mid-copy.
func TestSpanRingStress(t *testing.T) {
	const (
		writers = 8
		perG    = 4000
	)
	r := New()
	r.SetClock(tickClock())
	r.SetSpanSampling(1)
	root := r.SpanName("span.root")
	child := r.SpanName("span.child")

	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer done.Done()
			start.Wait()
			for i := 0; i < perG; i++ {
				sp := root.Root()
				child.Start(sp.Context()).End()
				sp.End()
			}
		}()
	}

	stop := make(chan struct{})
	var readerErr error
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := r.SpanCount()
			if n < last {
				readerErr = errorf("span count moved backwards: %d -> %d", last, n)
				return
			}
			last = n
			for _, rec := range r.SpanRecords() {
				if rec.Name != "span.root" && rec.Name != "span.child" {
					readerErr = errorf("torn record: bad name %q", rec.Name)
					return
				}
				if rec.End < rec.Start {
					readerErr = errorf("torn record: end %d before start %d", rec.End, rec.Start)
					return
				}
				if rec.Trace == 0 || rec.Span == 0 {
					readerErr = errorf("torn record: zero ids %+v", rec)
					return
				}
			}
		}
	}()

	start.Done()
	done.Wait()
	close(stop)
	reader.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if got := r.SpanCount() + r.st.spans.dropped.Load(); got != writers*perG*2 {
		t.Fatalf("recorded+dropped %d, want %d", got, writers*perG*2)
	}
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
	return n - r.st.spans.dropped.Load()
}
