package cowindex

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// op is one step against an index under construction: put or delete a key,
// seal the draft and start its successor, or lay the draft out afresh.
type op struct {
	Del  bool
	Seal bool
	Lay  bool
	Key  uint16 // spread over the key space by keyOf
	Val  uint32
}

// keyOf maps an op's key onto a few hundred distinct keys, 0 included, so
// deletes hit, tables grow past a flat page list, and probe chains
// collide and wrap.
func keyOf(k uint16) key {
	if k%97 == 0 {
		return 0
	}
	return key(k%701) * 0x01000193
}

// key is a test key: a 32-bit integer under a multiplicative hash.
type key uint32

func (k key) Hash() uint32 { return uint32(uint64(k) * 0x9e3779b97f4a7c15 >> 32) }

// sealed is a published index and the map it must keep reading as.
type sealed struct {
	t *Index[key, uint32]
	m map[key]uint32
}

// equal reports how t differs from m, through Get, Range and its count.
func equal(t *Index[key, uint32], m map[key]uint32) error {
	if t.Len() != len(m) || t.Pages()*pageSize != t.Slots() {
		return fmt.Errorf("%d entries in %d pages of %d slots, want %d entries", t.Len(), t.Pages(), t.Slots(), len(m))
	}
	for k, want := range m {
		if got, ok := t.Get(k); !ok || got != want {
			return fmt.Errorf("Get(%#x) = %d, %v; want %d", k, got, ok, want)
		}
		if k == 0 {
			continue
		}
		if i, v, ok := t.Find(k); !ok || i >= t.Slots() || t.At(i) != want || v != want {
			return fmt.Errorf("Find(%#x) = %d, %d, %v of %d slots", k, i, v, ok, t.Slots())
		}
	}
	seen := make(map[key]uint32)
	var dup error
	t.Range(func(k key, v uint32) bool {
		if _, in := seen[k]; in {
			dup = fmt.Errorf("Range yields %#x twice", k)
			return false
		}
		seen[k] = v
		return true
	})
	if dup != nil {
		return dup
	}
	if !maps.Equal(seen, m) {
		return fmt.Errorf("Range yields %d entries that differ from the map's %d", len(seen), len(m))
	}
	for k := range key(64) { // keys the map lacks read as absent
		if _, in := m[k*7+5]; !in {
			_, _, found := t.Find(k*7 + 5)
			if _, ok := t.Get(k*7 + 5); ok || found {
				return fmt.Errorf("Get or Find(%#x) finds a key never put", k*7+5)
			}
		}
	}
	yields := 0
	t.Range(func(key, uint32) bool { yields++; return false })
	if want := min(len(m), 1); yields != want {
		return fmt.Errorf("Range asked to stop yielded %d entries, want %d", yields, want)
	}
	return nil
}

// check drives ops against an index of the given load bound and a plain
// map in step, sealing a snapshot of both at every Seal op. It compares the
// draft with the map after each op and, once every op has run, each sealed
// index with the map it was sealed with.
func check(load int, ops []op) error {
	published := new(Index[key, uint32])
	*published = New[key, uint32](load, 0)
	draft := *published
	m := map[key]uint32{}
	var seals []sealed
	for n, o := range ops {
		k := keyOf(o.Key)
		switch {
		case o.Seal:
			cp := draft
			published = &cp
			seals = append(seals, sealed{published, maps.Clone(m)})
			draft = *published
		case o.Lay:
			draft = draft.LaidOut()
			if draft.Loose() != 0 {
				return fmt.Errorf("op %d: a laid-out index counts %d loose pages", n, draft.Loose())
			}
		case o.Del:
			draft.Delete(published, k)
			delete(m, k)
		default:
			old, replaced := draft.Put(published, k, o.Val)
			if was, in := m[k]; replaced != in || old != was {
				return fmt.Errorf("op %d (%+v): Put replaced %d, %v; want %d, %v", n, o, old, replaced, was, in)
			}
			m[k] = o.Val
		}
		if err := equal(&draft, m); err != nil {
			return fmt.Errorf("op %d (%+v): draft: %w", n, o, err)
		}
		if 8*len(m) > load*draft.Slots()+8 { // the zero key holds no slot
			return fmt.Errorf("op %d: %d entries in %d slots, past %d per 8", n, len(m), draft.Slots(), load)
		}
	}
	for i, s := range seals {
		if err := equal(s.t, s.m); err != nil {
			return fmt.Errorf("sealed index %d changed: %w", i, err)
		}
	}
	return nil
}

// TestIndexMatchesAMap is the differential property: any sequence of puts,
// deletes, seals and relayouts reads the same through the index as through
// a map, at the default load bound, at the switch microflow table's ¾ and
// at ½, and a sealed index reads the same however its successors are
// written.
func TestIndexMatchesAMap(t *testing.T) {
	for _, load := range []int{7, 6, 4} {
		cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(int64(load))),
			Values: func(args []reflect.Value, r *rand.Rand) {
				ops := make([]op, r.Intn(1200))
				for i := range ops {
					ops[i] = op{Del: r.Intn(3) == 0, Seal: r.Intn(40) == 0, Lay: r.Intn(200) == 0,
						Key: uint16(r.Intn(1 << 16)), Val: r.Uint32()}
				}
				args[0] = reflect.ValueOf(ops)
			}}
		if err := quick.Check(func(ops []op) bool {
			if err := check(load, ops); err != nil {
				t.Logf("load %d/8: %v", load, err)
				return false
			}
			return true
		}, cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewHoldsItsCapacity: New sizes a table to take its capacity without
// growing, and a capacity of 0 allocates nothing.
func TestNewHoldsItsCapacity(t *testing.T) {
	if a := testing.AllocsPerRun(10, func() { New[key, uint32](4, 0) }); a != 0 {
		t.Fatalf("an empty New makes %.0f allocations", a)
	}
	empty := New[key, uint32](4, 0)
	if _, _, ok := empty.Find(1); ok {
		t.Fatal("an empty index finds a key")
	}
	for _, load := range []int{4, 7} {
		for _, c := range []int{1, 15, 64, 200, 1000} {
			idx := New[key, uint32](load, c)
			if idx.WouldGrow(c) {
				t.Fatalf("load %d/8, capacity %d: %d slots grow before holding it", load, c, idx.Slots())
			}
			size := idx.Slots()
			for k := key(1); k <= key(c); k++ {
				idx.Put(nil, k, 1)
			}
			if idx.Slots() != size || idx.Loose() != 0 {
				t.Fatalf("load %d/8, capacity %d: grew from %d to %d slots, %d loose", load, c, size, idx.Slots(), idx.Loose())
			}
		}
	}
}

// TestWrapAroundChains deletes from probe chains that wrap past the last
// slot of a one-page table, under a sealed predecessor.
func TestWrapAroundChains(t *testing.T) {
	var probe Index[key, uint32]
	probe.size = pageSize
	var tail []key // keys whose chains start at the last two slots
	for k := key(1); len(tail) < 6; k++ {
		if probe.home(k) >= pageSize-2 {
			tail = append(tail, k)
		}
	}
	published := new(Index[key, uint32])
	draft := *published
	m := map[key]uint32{}
	for i, k := range tail {
		draft.Put(published, k, uint32(i))
		m[k] = uint32(i)
	}
	if draft.size != pageSize {
		t.Fatalf("table has %d slots, want one page", draft.size)
	}
	cp := draft
	published = &cp
	before := maps.Clone(m)
	draft = *published
	for _, k := range []key{tail[0], tail[3], tail[1]} {
		draft.Delete(published, k)
		delete(m, k)
		if err := equal(&draft, m); err != nil {
			t.Fatalf("after deleting %#x: %v", k, err)
		}
	}
	if err := equal(published, before); err != nil {
		t.Fatalf("sealed predecessor changed: %v", err)
	}
}

// TestSuccessorCopiesOnlyWhatItWrites: a successor of a 4 096-entry index
// that changes one entry shares every page but one with it, and copies
// each page it writes once, however often it writes it. An index grown
// page by page does so under a tree, copying no flat list of its pages;
// one laid out in a block copies its page list once and counts the page
// it replaced loose, and a laid-out copy of it shares nothing.
func TestSuccessorCopiesOnlyWhatItWrites(t *testing.T) {
	for _, c := range []struct {
		name    string
		blocked bool
		allocs  float64 // most allocations per successor write
		why     string
	}{
		{"page by page", false, 4, "one page, the leaf and mid above it and the directory slice"},
		{"in a block", true, 2, "one page and the page list"},
	} {
		big := new(Index[key, uint32])
		if c.blocked {
			*big = New[key, uint32](7, 1)
		}
		for k := key(1); k <= 4096; k++ {
			big.Put(nil, k, uint32(k))
		}
		if (big.dir == nil) != c.blocked || (big.pages != nil) != c.blocked {
			t.Fatalf("%s: a 4 096-entry index has a tree %v and a page list %v", c.name, big.dir != nil, big.pages != nil)
		}
		next := *big
		for range 3 {
			next.Put(big, 77, 1)
		}
		pages := int(big.size >> pageBits)
		shared := 0
		for pg := range uint32(pages) {
			if next.pageAt(pg) == big.pageAt(pg) {
				shared++
			}
		}
		loose := 0
		if c.blocked {
			loose = 1
		}
		if shared != pages-1 || next.Loose() != loose {
			t.Fatalf("%s: %d of %d pages shared after one write (%d loose), want %d (%d)", c.name, shared, pages, next.Loose(), pages-1, loose)
		}
		allocs := testing.AllocsPerRun(100, func() {
			d := *big
			d.Put(big, 77, 2)
			d.Put(big, 77, 3)
		})
		if allocs > c.allocs {
			t.Fatalf("%s: one successor write makes %.0f allocations, want at most %.0f: %s", c.name, allocs, c.allocs, c.why)
		}
		laid := next.LaidOut()
		laid.Put(&next, 78, 1)
		for pg := range uint32(pages) {
			if laid.pageAt(pg) == next.pageAt(pg) {
				t.Fatalf("%s: a laid-out index shares page %d", c.name, pg)
			}
		}
		if laid.Loose() != 0 || laid.pages == nil {
			t.Fatalf("%s: a laid-out index has a page list %v and copied %d pages to write", c.name, laid.pages != nil, laid.Loose())
		}
	}
}

// TestReadsAllocateNothing: Get and Range allocate nothing.
func TestReadsAllocateNothing(t *testing.T) {
	for _, n := range []key{10, 4000} {
		var idx Index[key, uint32]
		for k := key(1); k <= n; k++ {
			idx.Put(nil, k, uint32(k))
		}
		var sum uint32
		allocs := testing.AllocsPerRun(100, func() {
			v, _ := idx.Get(n / 2)
			sum += v
			idx.Range(func(_ key, v uint32) bool {
				sum += v
				return true
			})
		})
		if allocs != 0 {
			t.Fatalf("%d entries: reads make %.1f allocations", n, allocs)
		}
	}
}

// FuzzIndex runs check on op sequences decoded from the fuzzer's bytes:
// four bytes an op (kind, two key bytes, value byte).
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 9, 0, 2, 0, 8, 2, 0, 0, 0, 1, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 3, 7, 1, 0, 4, 9, 2, 1, 3, 7, 0}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []op
		for ; len(data) >= 4; data = data[4:] {
			ops = append(ops, op{Del: data[0]%4 == 1, Seal: data[0]%4 == 2, Lay: data[0] == 3,
				Key: uint16(data[1])<<8 | uint16(data[2]), Val: uint32(data[3])})
		}
		for _, load := range []int{7, 6, 4} {
			if err := check(load, ops); err != nil {
				t.Fatalf("load %d/8: %v", load, err)
			}
		}
	})
}
