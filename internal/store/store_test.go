package store

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s := New(2)
	if _, err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Get("a")
	if !ok || string(e.Value) != "1" || e.Version != 1 {
		t.Fatalf("get = %+v %v", e, ok)
	}
	if _, err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key should be gone")
	}
}

func TestReplicasStayConsistent(t *testing.T) {
	s := New(3)
	for i := 0; i < 50; i++ {
		if _, err := s.Put(fmt.Sprintf("k%d", i%7), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p := s.Primary()
	for _, r := range s.replicas {
		if r.Applied() != p.Applied() {
			t.Fatalf("replica %s at %d, primary at %d", r.Name(), r.Applied(), p.Applied())
		}
	}
	if got := s.Keys(""); len(got) != 7 {
		t.Fatalf("keys = %v, want k0..k6", got)
	}
}

func TestKeysPrefix(t *testing.T) {
	s := New(0)
	for _, k := range []string{"ue/1", "ue/2", "path/9", "ue/10"} {
		if _, err := s.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Keys("ue/")
	want := []string{"ue/1", "ue/10", "ue/2"}
	if len(got) != len(want) {
		t.Fatalf("keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
}

func TestFailoverPreservesState(t *testing.T) {
	s := New(2)
	for i := 0; i < 20; i++ {
		if _, err := s.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	oldApplied := s.Primary().Applied()
	np, err := s.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if np.Applied() != oldApplied {
		t.Fatalf("new primary at %d, want %d", np.Applied(), oldApplied)
	}
	e, ok := s.Get("k7")
	if !ok || e.Value[0] != 7 {
		t.Fatal("state lost across failover")
	}
	// Writes continue after failover.
	if _, err := s.Put("post", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("post"); !ok {
		t.Fatal("post-failover write lost")
	}
}

func TestFailoverExhaustion(t *testing.T) {
	s := New(1)
	if _, err := s.Failover(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Failover(); err == nil {
		t.Fatal("failover with no replicas should fail")
	}
}

func TestVersionsMonotone(t *testing.T) {
	s := New(1)
	var last uint64
	for i := 0; i < 30; i++ {
		v, err := s.Put("k", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if v <= last {
			t.Fatalf("version %d not monotone after %d", v, last)
		}
		last = v
	}
}

func TestValueIsolation(t *testing.T) {
	s := New(0)
	buf := []byte("abc")
	if _, err := s.Put("k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'z' // caller mutates after Put
	e, _ := s.Get("k")
	if string(e.Value) != "abc" {
		t.Fatal("store must copy values")
	}
}

func TestConcurrentWriters(t *testing.T) {
	s := New(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Put(fmt.Sprintf("g%d/%d", g, i), []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				s.Get(fmt.Sprintf("g%d/%d", g, i/2))
			}
		}(g)
	}
	wg.Wait()
	if got := s.Primary().Applied(); got != 400 {
		t.Fatalf("applied = %d, want 400", got)
	}
	for _, r := range s.replicas {
		if r.Applied() != 400 {
			t.Fatalf("replica %s at %d", r.Name(), r.Applied())
		}
	}
}

// Property (DESIGN.md §6): after any write sequence and a failover, the new
// primary equals the old primary's state.
func TestFailoverEquivalenceProperty(t *testing.T) {
	f := func(keys []uint8, vals []uint8) bool {
		s := New(2)
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			if _, err := s.Put(fmt.Sprintf("k%d", keys[i]%16), []byte{vals[i]}); err != nil {
				return false
			}
		}
		before := map[string]byte{}
		for _, k := range s.Keys("") {
			e, _ := s.Get(k)
			before[k] = e.Value[0]
		}
		if _, err := s.Failover(); err != nil {
			return false
		}
		after := s.Keys("")
		if len(after) != len(before) {
			return false
		}
		for _, k := range after {
			e, ok := s.Get(k)
			if !ok || e.Value[0] != before[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// retainedPerPut is the live heap, after two GCs, that a store with the
// given replica count keeps per sub/-shaped Put.
func retainedPerPut(t *testing.T, replicas, n int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New(replicas)
	val := []byte("\x01\x02A\x06silver\x00\x00")
	for i := range n {
		if _, err := s.Put(fmt.Sprintf("sub/imsi-%09d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestStoreKeepsOneCopy: replicas cost a cursor each, not a copy of the
// committed state, so two replicas retain what the primary alone does.
func TestStoreKeepsOneCopy(t *testing.T) {
	const n = 50000
	alone := retainedPerPut(t, 0, n)
	replicated := retainedPerPut(t, 2, n)
	t.Logf("retained per Put: New(0) %.1f B, New(2) %.1f B", alone, replicated)
	if replicated > alone*1.05 || replicated < alone*0.95 {
		t.Fatalf("New(2) retains %.1f B per Put, New(0) %.1f B: want within 5%%", replicated, alone)
	}
}

// TestCountNamesAndPromotion: Count is len(Keys) without building the list;
// a failover promotes the member furthest along and names it after the
// member it was.
func TestCountNamesAndPromotion(t *testing.T) {
	s := New(2)
	for _, k := range []string{"sub/a", "sub/b", "path/1"} {
		if _, err := s.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Primary().Count("sub/"); n != 2 {
		t.Fatalf("Count(sub/) = %d, want 2", n)
	}
	if name := s.Primary().Name(); name != "primary" {
		t.Fatalf("primary is named %q", name)
	}
	s.replicas[0].advance(1) // replica0 lags: its cursor is at the first commit
	np, err := s.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if np.Name() != "primary(replica1)" || np.Applied() != 3 {
		t.Fatalf("promoted %s at %d, want primary(replica1) at 3", np.Name(), np.Applied())
	}
}
