package sim

import (
	"container/heap"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.After(Time(3*time.Second), func() { got = append(got, 3) })
	k.After(Time(1*time.Second), func() { got = append(got, 1) })
	k.After(Time(2*time.Second), func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != Time(3*time.Second) {
		t.Errorf("Now = %v, want 3s", k.Now())
	}
}

func TestKernelFIFOAtSameTime(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(Time(time.Second), func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestKernelSchedulePastRejected(t *testing.T) {
	k := NewKernel(1)
	k.After(Time(time.Second), func() {})
	k.Run()
	if _, err := k.At(0, func() {}); err == nil {
		t.Fatal("scheduling in the past should fail")
	}
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op that returns false.
func (k *Kernel) Cancel(e *Event) bool {
	if e == nil || e.index < 0 {
		return false
	}
	heap.Remove(&k.queue, e.index)
	e.index = -2
	return true
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.After(Time(time.Second), func() { fired = true })
	if !k.Cancel(e) {
		t.Fatal("first cancel should succeed")
	}
	if k.Cancel(e) {
		t.Fatal("second cancel should be a no-op")
	}
	if e.index != -2 {
		t.Fatal("event should report cancelled")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestKernelCancelMiddleOfQueue(t *testing.T) {
	k := NewKernel(1)
	var got []int
	var events []*Event
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, k.After(Time(i)*Time(time.Second), func() { got = append(got, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		k.Cancel(events[i])
	}
	k.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 13 {
		t.Fatalf("got %d events, want 13", len(got))
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.After(Time(1*time.Second), func() { fired++ })
	k.After(Time(5*time.Second), func() { fired++ })
	k.RunUntil(Time(2 * time.Second))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != Time(2*time.Second) {
		t.Fatalf("Now = %v, want 2s", k.Now())
	}
	if len(k.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(k.queue))
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewKernel(42).Fork("x"), NewKernel(42).Fork("x")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed should give same stream")
		}
	}
}

// Property: executing a random batch of events always yields a
// non-decreasing sequence of event timestamps.
func TestEventsFireInTimeOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(7)
		var fired []Time
		for _, d := range delays {
			k.After(Time(d)*Time(time.Millisecond), func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	depth := 0
	var grow func()
	grow = func() {
		depth++
		if depth < 50 {
			k.After(Time(time.Millisecond), grow)
		}
	}
	k.After(0, grow)
	k.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if k.Processed != 50 {
		t.Fatalf("Processed = %d, want 50", k.Processed)
	}
}

func TestEvery(t *testing.T) {
	k := NewKernel(1)
	var at []Time
	if _, err := k.Every(Time(10*time.Millisecond), func() bool {
		at = append(at, k.Now())
		return len(at) < 5
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(at) != 5 {
		t.Fatalf("fired %d times, want 5", len(at))
	}
	for i, got := range at {
		want := Time((i + 1) * 10 * int(time.Millisecond))
		if got != want {
			t.Fatalf("tick %d at %v, want %v", i, got, want)
		}
	}
	if _, err := k.Every(0, func() bool { return false }); err == nil {
		t.Fatal("Every accepted a zero interval")
	}
}
