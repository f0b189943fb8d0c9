package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/store"
)

// These tests pin the compacted state layer (DESIGN.md §14): the
// struct-of-arrays UE table and the subscriber records that say where its
// records are, and the allocation behaviour of the steady-state
// attach -> handoff -> detach cycle.

// newBareTable builds an empty UE table over a subscriber table of its own.
func newBareTable() *ueTable {
	tbl := newUETable(NewSubscribers(store.New(0), packet.Prefix{}))
	return &tbl
}

// putRecord adds imsi's record the way an import does: the subscriber table
// binds perm and names this table the holder, at the slot alloc then fills.
func putRecord(t *testing.T, tbl *ueTable, imsi string, perm packet.Addr) (*ueRecord, uint32) {
	t.Helper()
	set, err := tbl.subs.bind(imsi, perm, policy.Attributes{}, tbl.inst, tbl.nextSlot())
	if err != nil {
		t.Fatal(err)
	}
	return tbl.alloc(imsi, set, perm)
}

// TestQuickUETableSlotAliasing drives random register/drop churn through
// the UE table against a reference map and checks the slot-aliasing
// property: a slot freed and reused for a new IMSI must never answer
// lookups for its previous occupant, and every live IMSI must resolve to
// the record that carries it.
func TestQuickUETableSlotAliasing(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := newBareTable()
		live := map[string]uint32{} // imsi -> slot the table returned

		universe := make([]string, 40)
		for i := range universe {
			universe[i] = fmt.Sprintf("imsi-%03d-%d", i, seed&0xff)
		}
		for op := 0; op < 600; op++ {
			i := rng.Intn(len(universe))
			imsi := universe[i]
			if slot, ok := live[imsi]; ok {
				// Drop: remove the holder mark first, as the controller
				// does, then free the slot.
				tbl.subs.release(imsi, tbl.inst)
				tbl.freeRec(slot)
				delete(live, imsi)
				continue
			}
			_, slot := putRecord(t, tbl, imsi, packet.Addr(1000+i))
			live[imsi] = slot
		}

		// Every live IMSI resolves to its own record; every dead one misses.
		for _, imsi := range universe {
			r, slot, ok := tbl.get(imsi)
			wantSlot, want := live[imsi]
			if ok != want {
				t.Fatalf("seed %d: get(%q) = %v, want %v", seed, imsi, ok, want)
			}
			if ok && (r.imsi != imsi || slot != wantSlot) {
				t.Fatalf("seed %d: get(%q) aliased to slot %d (imsi %q), want slot %d",
					seed, imsi, slot, r.imsi, wantSlot)
			}
		}
		// Accounting: live + free == high water; forEach visits exactly the
		// live set.
		if tbl.live != len(live) || tbl.live+len(tbl.free) != int(tbl.next) {
			t.Fatalf("seed %d: live=%d free=%d next=%d, model=%d",
				seed, tbl.live, len(tbl.free), tbl.next, len(live))
		}
		seen := map[string]bool{}
		tbl.forEach(func(slot uint32, r *ueRecord) bool {
			if live[r.imsi] != slot {
				t.Fatalf("seed %d: forEach visited stale record %q at slot %d", seed, r.imsi, slot)
			}
			seen[r.imsi] = true
			return true
		})
		if len(seen) != len(live) {
			t.Fatalf("seed %d: forEach visited %d records, want %d", seed, len(seen), len(live))
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMemCompactionChurnRace runs disjoint attach -> handoff -> detach
// churn from several goroutines while readers hammer the lookup paths and
// MemStats scans the slabs, then audits the invariants. Under -race (make
// verify) this covers every pairing of the table and the attribute sets
// with the controller's lock domains.
func TestMemCompactionChurnRace(t *testing.T) {
	c, _ := testController(t)
	const workers, perWorker = 3, 4
	imsis := make([][]string, workers)
	for w := range imsis {
		imsis[w] = make([]string, perWorker)
		for i := range imsis[w] {
			imsis[w][i] = fmt.Sprintf("imsi-race-%d-%d", w, i)
			if err := c.RegisterSubscriber(imsis[w][i], policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	iters := 150
	if testing.Short() {
		iters = 30
	}
	var churn, readers sync.WaitGroup
	// Churners: each owns its IMSIs, so every operation must succeed.
	for w := 0; w < workers; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				imsi := imsis[w][rng.Intn(perWorker)]
				bs := rng.Intn(4)
				if _, _, err := c.Attach(imsi, packet.BSID(bs)); err != nil {
					t.Errorf("worker %d: Attach(%s): %v", w, imsi, err)
					return
				}
				hr, err := c.Handoff(imsi, packet.BSID((bs+1+rng.Intn(3))%4))
				if err != nil {
					t.Errorf("worker %d: Handoff(%s): %v", w, imsi, err)
					return
				}
				c.ReleaseOldLocIP(hr.OldLocIP, hr.Shortcuts)
				if err := c.Detach(imsi); err != nil {
					t.Errorf("worker %d: Detach(%s): %v", w, imsi, err)
					return
				}
			}
		}(w)
	}
	// Readers: lookups and slab-scanning MemStats race the churn.
	stop := make(chan struct{})
	readers.Add(2)
	go func() {
		defer readers.Done()
		rng := rand.New(rand.NewSource(77))
		for {
			select {
			case <-stop:
				return
			default:
			}
			imsi := imsis[rng.Intn(workers)][rng.Intn(perWorker)]
			if ue, ok := c.LookupUE(imsi); ok && ue.PermIP != 0 {
				_, _ = c.ResolveLocIP(ue.PermIP)
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ms := c.MemStats()
			if ms.Subscribers != workers*perWorker {
				t.Errorf("MemStats mid-churn: %d subscribers, want %d", ms.Subscribers, workers*perWorker)
				return
			}
		}
	}()

	churn.Wait()
	close(stop)
	readers.Wait()

	if _, err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn race: %v", err)
	}
	ms := c.MemStats()
	if ms.Attached != 0 {
		t.Fatalf("%d UEs still attached after detach-everything churn", ms.Attached)
	}
	if ms.Subscribers != workers*perWorker {
		t.Fatalf("%d subscribers, want %d", ms.Subscribers, workers*perWorker)
	}
	if ms.Reservations != 0 {
		t.Fatalf("%d reservations leaked", ms.Reservations)
	}
}

// TestRecSizeMatchesRecord pins slabBytes' literal record size, and the
// station table's row size, to the structs: mem.slab_bytes, index_bytes and
// every per-subscriber figure derived from them would otherwise drift
// silently when a field is added or removed.
func TestRecSizeMatchesRecord(t *testing.T) {
	tbl := newBareTable()
	putRecord(t, tbl, "imsi", 1)
	if got, want := tbl.slabBytes(), uint64(ueSlabSize)*uint64(unsafe.Sizeof(ueRecord{})); got != want {
		t.Fatalf("slabBytes charges one slab at %d bytes, its records occupy %d", got, want)
	}
	if got := unsafe.Sizeof(stationRow{}); got != stationRowSize {
		t.Fatalf("MemStats charges a station row %d bytes, it occupies %d", stationRowSize, got)
	}
}

// TestInternPoolSteadyStateZeroAllocs pins the compaction fast path to
// literal zero heap allocations: a warmed UE-table and station-table lookup.
func TestInternPoolSteadyStateZeroAllocs(t *testing.T) {
	// UE table and station table: a hit on a warmed table allocates
	// nothing.
	tbl := newBareTable()
	ids := make(stationTable, 1)
	for i := 0; i < 100; i++ {
		_, slot := putRecord(t, tbl, fmt.Sprintf("imsi-%03d", i), packet.Addr(1000+i))
		ids[0].ids = append(ids[0].ids, slot+1) // UE ID i+1
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := tbl.get("imsi-042"); !ok {
			t.Fatal("warmed IMSI missing")
		}
		if _, ok := ids.slot(0, 43); !ok {
			t.Fatal("warmed UE ID missing")
		}
	}); allocs != 0 {
		t.Fatalf("UE-table lookup allocates %.1f/op, want 0", allocs)
	}
}

// TestChurnCycleAllocBudget pins the whole steady-state
// attach -> handoff -> detach cycle to its measured allocation count (2)
// plus two. Literal zero is out of reach — the two classifier slices the
// cycle hands back allocate by design; the attribute set compiles once, at
// the first attach — but the budget catches any regression to per-UE
// map/string churn, which cost dozens of allocations per cycle in the
// pre-compaction layout. No path is cached at the home station, so the
// handoff cuts no shortcuts; TestHandoffLocalAllocBudget in internal/shard
// prices those.
func TestChurnCycleAllocBudget(t *testing.T) {
	c, _ := testController(t)
	if err := c.RegisterSubscriber("imsi-cycle", policy.Attributes{Provider: "A", Plan: "silver"}); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if _, _, err := c.Attach("imsi-cycle", 0); err != nil {
			t.Fatal(err)
		}
		hr, err := c.Handoff("imsi-cycle", 1)
		if err != nil {
			t.Fatal(err)
		}
		c.ReleaseOldLocIP(hr.OldLocIP, hr.Shortcuts)
		if err := c.Detach("imsi-cycle"); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the slab, indices, attribute sets, paths, and UEID free lists.
	for i := 0; i < 50; i++ {
		cycle()
	}
	const budget = 4
	if allocs := testing.AllocsPerRun(200, cycle); allocs > budget {
		t.Fatalf("steady-state attach/handoff/detach cycle allocates %.1f/op, budget %d", allocs, budget)
	}
}
