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
)

// These tests pin the compacted state layer (DESIGN.md §14): the
// struct-of-arrays UE table, the open-addressed indices, the refcounted
// attribute pool, and the allocation behaviour of the steady-state
// attach -> handoff -> detach cycle.

// TestQuickUETableSlotAliasing drives random register/drop churn through
// the UE table against a reference map and checks the slot-aliasing
// property: a slot freed and reused for a new IMSI must never answer
// lookups for its previous occupant, and every live IMSI must resolve to
// the record that carries it.
func TestQuickUETableSlotAliasing(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tbl ueTable
		live := map[string]uint32{}     // imsi -> slot the table returned
		loc := map[packet.Addr]string{} // locIP -> imsi
		nextAddr := packet.Addr(1)

		universe := make([]string, 40)
		for i := range universe {
			universe[i] = fmt.Sprintf("imsi-%03d-%d", i, seed&0xff)
		}
		for op := 0; op < 600; op++ {
			imsi := universe[rng.Intn(len(universe))]
			if slot, ok := live[imsi]; ok {
				// Drop: delete the address entries first, as the controller
				// does, then free the slot.
				r := tbl.rec(slot)
				tbl.locIdx.delete(r.locIP)
				delete(loc, r.locIP)
				tbl.freeRec(slot)
				delete(live, imsi)
				continue
			}
			r, slot := tbl.alloc(imsi, 1, nextAddr+1)
			r.locIP = nextAddr
			nextAddr += 2
			tbl.locIdx.insert(r.locIP, slot)
			live[imsi] = slot
			loc[r.locIP] = imsi
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
		// The address index agrees with the model.
		for a, imsi := range loc {
			slot, ok := tbl.locIdx.lookup(a)
			if !ok || tbl.rec(slot).imsi != imsi {
				t.Fatalf("seed %d: locIdx[%v] lost or aliased", seed, a)
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

// TestQuickAddrIdxMatchesMap churns an open-addressed address index with a
// deliberately tiny key universe — maximum collision, tombstone, and
// grow-rehash pressure — and checks it against a plain map after every
// operation batch.
func TestQuickAddrIdxMatchesMap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var idx addrIdx
		model := map[packet.Addr]uint32{}
		for op := 0; op < 800; op++ {
			a := packet.Addr(1 + rng.Intn(48))
			switch {
			case rng.Intn(3) == 0:
				idx.delete(a)
				delete(model, a)
			default:
				slot := uint32(rng.Intn(1 << 20))
				idx.insert(a, slot)
				model[a] = slot
			}
		}
		for a := packet.Addr(1); a <= 48; a++ {
			slot, ok := idx.lookup(a)
			want, inModel := model[a]
			if ok != inModel || (ok && slot != want) {
				t.Fatalf("seed %d: lookup(%v) = (%d, %v), model (%d, %v)",
					seed, a, slot, ok, want, inModel)
			}
		}
		if idx.live != len(model) {
			t.Fatalf("seed %d: live=%d, model=%d", seed, idx.live, len(model))
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAttrPoolRefcountZero checks the intern pool's refcount-zero
// property: an entry's reference count tracks the outstanding acquires
// exactly, the entry is reclaimed exactly when the last holder releases,
// and a reclaimed handle slot can be reused without aliasing old holders.
func TestQuickAttrPoolRefcountZero(t *testing.T) {
	pol := policy.ExampleCarrierPolicy()
	universe := []policy.Attributes{
		{Provider: "A", Plan: "silver"},
		{Provider: "A", Plan: "gold"},
		{Provider: "B", Plan: "silver", DeviceType: "phone"},
		{Provider: "B", Roaming: true},
		{Provider: "C", DeviceType: "m2m-meter"},
		{Provider: "C", Plan: "gold", Roaming: true},
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := newAttrPool()
		type holder struct {
			attr policy.Attributes
			h    attrHandle
		}
		var held []holder
		count := map[policy.Attributes]int{}
		for op := 0; op < 500; op++ {
			if len(held) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(held))
				hd := held[i]
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				pool.release(hd.h)
				count[hd.attr]--
				if got := int(pool.refs(hd.h)); count[hd.attr] > 0 && got != count[hd.attr] {
					t.Fatalf("seed %d: refs=%d after release, model=%d", seed, got, count[hd.attr])
				}
				continue
			}
			attr := universe[rng.Intn(len(universe))]
			h := pool.acquire(attr, pol)
			held = append(held, holder{attr, h})
			count[attr]++
			if pool.attrOf(h) != attr {
				t.Fatalf("seed %d: handle %d resolves to %+v, want %+v", seed, h, pool.attrOf(h), attr)
			}
			if int(pool.refs(h)) != count[attr] {
				t.Fatalf("seed %d: refs=%d, model=%d", seed, pool.refs(h), count[attr])
			}
			// Interning: every holder of the same attributes has the same
			// handle and shares one compiled template.
			for _, other := range held {
				if other.attr == attr && other.h != h {
					t.Fatalf("seed %d: %+v interned twice (handles %d, %d)", seed, attr, other.h, h)
				}
			}
		}
		distinct := 0
		for _, n := range count {
			if n > 0 {
				distinct++
			}
		}
		if pool.liveEntries() != distinct {
			t.Fatalf("seed %d: liveEntries=%d, model=%d", seed, pool.liveEntries(), distinct)
		}
		// Release everything: the pool must drain to zero, and reclaimed
		// slots must serve a fresh intern correctly.
		for _, hd := range held {
			pool.release(hd.h)
		}
		if pool.liveEntries() != 0 || pool.totalRefs() != 0 {
			t.Fatalf("seed %d: pool not drained: %d entries, %d refs",
				seed, pool.liveEntries(), pool.totalRefs())
		}
		h := pool.acquire(universe[0], pol)
		if pool.attrOf(h) != universe[0] || len(pool.compiled(h)) == 0 {
			t.Fatalf("seed %d: reused slot serves wrong entry", seed)
		}
		pool.release(h)
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMemCompactionChurnRace runs disjoint attach -> handoff -> detach
// churn from several goroutines while readers hammer the lookup paths and
// MemStats scans the slabs, then audits the invariants. Under -race (make
// verify) this covers every pairing of the table and the attribute pool
// with the controller's three lock domains.
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

// TestRecSizeMatchesRecord pins slabBytes' literal record size to the
// struct: mem.slab_bytes and every per-subscriber figure derived from it
// would otherwise drift silently when a field is added or removed.
func TestRecSizeMatchesRecord(t *testing.T) {
	var tbl ueTable
	tbl.alloc("imsi", 1, 1)
	if got, want := tbl.slabBytes(), uint64(ueSlabSize)*uint64(unsafe.Sizeof(ueRecord{})); got != want {
		t.Fatalf("slabBytes charges one slab at %d bytes, its records occupy %d", got, want)
	}
}

// TestInternPoolSteadyStateZeroAllocs pins the compaction fast paths to
// literal zero heap allocations: a warmed UE-table lookup and an intern hit
// in the attribute pool.
func TestInternPoolSteadyStateZeroAllocs(t *testing.T) {
	// UE table: a hit on a warmed table allocates nothing.
	var tbl ueTable
	for i := 0; i < 100; i++ {
		r, slot := tbl.alloc(fmt.Sprintf("imsi-%03d", i), 1, packet.Addr(1000+i))
		r.locIP = packet.Addr(1 + i)
		tbl.locIdx.insert(r.locIP, slot)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := tbl.get("imsi-042"); !ok {
			t.Fatal("warmed IMSI missing")
		}
		if _, ok := tbl.locIdx.lookup(43); !ok {
			t.Fatal("warmed LocIP missing")
		}
	}); allocs != 0 {
		t.Fatalf("UE-table lookup allocates %.1f/op, want 0", allocs)
	}

	// Attribute pool: an intern hit (the steady-state attach path — the
	// city workload sees >99%% hits) allocates nothing.
	pol := policy.ExampleCarrierPolicy()
	pool := newAttrPool()
	attr := policy.Attributes{Provider: "A", Plan: "silver"}
	base := pool.acquire(attr, pol)
	if allocs := testing.AllocsPerRun(1000, func() {
		h := pool.acquire(attr, pol)
		pool.release(h)
	}); allocs != 0 {
		t.Fatalf("attrPool intern hit allocates %.1f/op, want 0", allocs)
	}
	pool.release(base)
}

// TestChurnCycleAllocBudget pins the whole steady-state
// attach -> handoff -> detach cycle to its measured allocation count (7)
// plus two. Literal zero is out of reach — the two classifier slices the
// cycle hands back, the reservation record the handoff keeps, and the
// classifier template each attach recompiles (the detach released its only
// holder) allocate by design — but the budget catches any regression to
// per-UE map/string churn, which cost dozens of allocations per cycle in
// the pre-compaction layout. No path is cached at the home station, so the
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
	// Warm the slab, indices, attribute pool, paths, and UEID free lists.
	for i := 0; i < 50; i++ {
		cycle()
	}
	const budget = 9
	if allocs := testing.AllocsPerRun(200, cycle); allocs > budget {
		t.Fatalf("steady-state attach/handoff/detach cycle allocates %.1f/op, budget %d", allocs, budget)
	}
}
