// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, a priority event queue, and a seeded random source.
//
// All SoftCell workload and mobility simulations run on this kernel so that
// every experiment is reproducible from its seed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured in nanoseconds since the start of the
// simulation. It deliberately mirrors time.Duration so callers can use the
// time package's constants (sim.Time(3 * time.Second)).
type Time int64

func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. Fn runs when the clock reaches At.
type Event struct {
	At Time
	Fn func()

	seq uint64 // tie-break so equal-time events run FIFO
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*Event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Kernel is a single-threaded discrete-event loop. It is not safe for
// concurrent use; simulations that need concurrency partition work across
// kernels.
type Kernel struct {
	now   Time
	queue eventQueue
	seq   uint64
	seed  int64

	// Processed counts events executed so far.
	Processed uint64
}

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{seed: seed}
}

// Fork derives an independent deterministic random stream from the kernel
// seed and a name. Equal (seed, name) pairs always yield the same stream,
// and distinct names yield streams that stay independent regardless of how
// many draws either consumes — so one subsystem's extra draws can never
// perturb another subsystem's schedule.
func (k *Kernel) Fork(name string) *rand.Rand {
	// FNV-1a over the name, mixed with the seed (splitmix64 finaliser).
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h += uint64(k.seed) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// (before Now) is an error: deterministic simulations must not time-travel.
func (k *Kernel) At(at Time, fn func()) (*Event, error) {
	if at < k.now {
		return nil, fmt.Errorf("sim: schedule at %v before now %v", at, k.now)
	}
	e := &Event{At: at, Fn: fn, seq: k.seq}
	k.seq++
	heap.Push(&k.queue, e)
	return e, nil
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	//lint:ignore errdrop At cannot fail: now+d >= now
	e, _ := k.At(k.now+d, fn)
	return e
}

// Every schedules fn to run every interval, starting one interval from now,
// for as long as fn returns true. The returned event is the *next* pending
// occurrence only at scheduling time; fn ends the series by returning
// false.
func (k *Kernel) Every(interval Time, fn func() bool) (*Event, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("sim: Every interval %v must be positive", interval)
	}
	var tick func()
	tick = func() {
		if fn() {
			k.After(interval, tick)
		}
	}
	//lint:ignore errdrop At cannot fail: now+interval > now
	e, _ := k.At(k.now+interval, tick)
	return e, nil
}

// Step executes the next event, advancing the clock to its timestamp.
// It returns false when the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	e := heap.Pop(&k.queue).(*Event)
	k.now = e.At
	k.Processed++
	e.Fn()
	return true
}

// RunUntil executes events until the clock would pass deadline or the queue
// drains. The clock is left at min(deadline, last event time).
func (k *Kernel) RunUntil(deadline Time) {
	for len(k.queue) > 0 && k.queue[0].At <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// Run drains the event queue completely.
func (k *Kernel) Run() {
	for k.Step() {
	}
}
