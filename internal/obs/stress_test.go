package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestRegistryStress hammers one registry from concurrent writer
// goroutines — mimicking RequestPath counters, handoff histograms and
// chaos trace emissions all sharing a table — while a reader snapshots
// continuously. Run under -race by make verify. Asserts:
//
//   - successive snapshots are monotone (counters and histogram totals
//     never move backwards),
//   - every snapshot is internally consistent (histogram Count equals
//     the sum of its buckets as copied),
//   - the final snapshot, taken after all writers join, is exact.
func TestRegistryStress(t *testing.T) {
	const (
		writers = 8
		perG    = 5000
	)
	r := New()
	r.Counter("stress.ops")
	g := r.Gauge("stress.inflight")
	h := r.Histogram("stress.lat", 10, 100, 1000)
	ev := r.EventType("stress.ev", "g", "i")

	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer done.Done()
			start.Wait()
			// Writers also re-register: get-or-create must be safe under
			// concurrent lookups (chaos clients re-instrument on restart).
			c2 := r.Counter("stress.ops")
			for i := 0; i < perG; i++ {
				c2.Inc()
				g.Add(1)
				h.Observe(int64(i % 2000))
				if i%64 == 0 {
					ev.Emit(int64(w), int64(i))
				}
				g.Add(-1)
			}
		}(w)
	}

	stop := make(chan struct{})
	var readerErr error
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var lastOps, lastHist uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			ops := snap.Counters["stress.ops"]
			if ops < lastOps {
				readerErr = errorf("counter moved backwards: %d -> %d", lastOps, ops)
				return
			}
			lastOps = ops
			hs := snap.Histograms["stress.lat"]
			var bucketSum uint64
			for _, n := range hs.Counts {
				bucketSum += n
			}
			if hs.Count != bucketSum {
				readerErr = errorf("histogram count %d != bucket sum %d", hs.Count, bucketSum)
				return
			}
			if hs.Count < lastHist {
				readerErr = errorf("histogram count moved backwards: %d -> %d", lastHist, hs.Count)
				return
			}
			lastHist = hs.Count
			if depth := snap.Gauges["stress.inflight"]; depth < 0 || depth > writers {
				readerErr = errorf("inflight gauge out of range: %d", depth)
				return
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

	final := r.Snapshot()
	const total = writers * perG
	if got := final.Counters["stress.ops"]; got != total {
		t.Fatalf("final counter = %d, want %d", got, total)
	}
	if got := final.Histograms["stress.lat"].Count; got != total {
		t.Fatalf("final histogram count = %d, want %d", got, total)
	}
	if got := final.Gauges["stress.inflight"]; got != 0 {
		t.Fatalf("final gauge = %d, want 0", got)
	}
	wantEvents := uint64(writers * (perG + 63) / 64)
	if got := r.TraceLen(); got != wantEvents {
		t.Fatalf("TraceLen = %d, want %d", got, wantEvents)
	}
}

func errorf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// TestTraceSincePollerSeesEveryEvent tails the ring with TraceJSONSince
// while another goroutine emits, passing back each returned cursor. The
// ring never wraps, so every event must be read exactly once: a cursor
// taken apart from the events it covers skips whatever was emitted in
// between.
func TestTraceSincePollerSeesEveryEvent(t *testing.T) {
	const events = 3000 // below defaultTraceCap: nothing is evicted
	for round := 0; round < 20; round++ {
		r := New()
		ev := r.EventType("poll.ev", "i")
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < events; i++ {
				ev.Emit(int64(i))
			}
		}()
		seen := make([]int, events)
		var cursor uint64
		poll := func() {
			var page struct {
				Next   uint64
				Events []struct{ Seq uint64 }
			}
			if err := json.Unmarshal(r.TraceJSONSince(cursor), &page); err != nil {
				t.Fatal(err)
			}
			for _, e := range page.Events {
				seen[e.Seq]++
			}
			cursor = page.Next
		}
		for emitting := true; emitting; {
			select {
			case <-done:
				emitting = false
			default:
			}
			poll()
		}
		poll()
		for seq, n := range seen {
			if n != 1 {
				t.Fatalf("round %d: event %d read %d times, want once", round, seq, n)
			}
		}
	}
}
