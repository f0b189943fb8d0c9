package dirty

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// drained returns the tables one drain visits.
func drained(s *Set) []int {
	var out []int
	s.Drain(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// TestDrainVisitsEachMarkOnce: a new set holds every table; a drain
// empties it; marks, repeated or not, come back once each, ascending,
// across words; and a drain that stops keeps the table it stopped at and
// the ones after it.
func TestDrainVisitsEachMarkOnce(t *testing.T) {
	const n = 130 // three words
	s := New(n)
	if got := drained(s); len(got) != n || got[0] != 0 || got[n-1] != n-1 {
		t.Fatalf("a new set drained %d tables, want all %d", len(got), n)
	}
	if got := drained(s); len(got) != 0 {
		t.Fatalf("a drained set drained %v again", got)
	}
	for _, i := range []int{129, 3, 64, 3, 65, 129} {
		s.Mark(i)
	}
	if got := drained(s); !slices.Equal(got, []int{3, 64, 65, 129}) {
		t.Fatalf("drained %v, want [3 64 65 129]", got)
	}
	for _, i := range []int{1, 2, 5, 70} {
		s.Mark(i)
	}
	var first []int
	s.Drain(func(i int) bool {
		first = append(first, i)
		return i < 2
	})
	if got := drained(s); !slices.Equal(first, []int{1, 2}) || !slices.Equal(got, []int{2, 5, 70}) {
		t.Fatalf("a drain stopping at 2 visited %v and left %v, want [1 2] and [2 5 70]", first, got)
	}
	var none *Set
	none.Mark(1) // a nil set ignores marks
}

// TestDrainSeesEveryChange: tables changing on their own goroutines, each
// marking the set after its change, while another goroutine drains it,
// are each drained after their last change, which a drain sees by reading
// the table's version once it has taken the table out of the set; and no
// drain names a table that never changed.
func TestDrainSeesEveryChange(t *testing.T) {
	const n = 70 // past one word of the set
	s := New(n)
	drained(s)
	versions := make([]atomic.Uint64, n)
	seen := make([]uint64, n) // per table: the newest version a drain read
	drain := func() {
		s.Drain(func(i int) bool {
			if i%3 == 0 {
				t.Errorf("table %d drained, though it never changed", i)
			}
			seen[i] = max(seen[i], versions[i].Load())
			return true
		})
	}
	var wg sync.WaitGroup
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				drain()
			}
		}
	}()
	for i := range n {
		if i%3 == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				versions[i].Add(1)
				s.Mark(i)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	drain()
	for i := range n {
		if seen[i] != versions[i].Load() {
			t.Fatalf("table %d: drains read version %d, it is at %d", i, seen[i], versions[i].Load())
		}
	}
}
