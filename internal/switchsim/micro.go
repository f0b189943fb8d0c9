package switchsim

import (
	"slices"

	"repro/internal/cowindex"
	"repro/internal/packet"
)

// flowKey is a five-tuple packed into two words, the microflow index's
// key: one multiply-mix hashes it, severalfold cheaper than a map's
// hashing. keyUsed marks every packed key, so the zero flowKey, which the
// index takes for an empty slot, is no flow's key.
type flowKey struct{ hi, lo uint64 }

const keyUsed = 1 << 63

// Hash mixes a key into a probe start.
func (k flowKey) Hash() uint32 {
	x := k.hi ^ k.lo*0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return uint32(x)
}

// packed packs a five-tuple into the index's key.
func packed(src, dst packet.Addr, sport, dport uint16, proto packet.Proto) flowKey {
	return flowKey{uint64(src)<<32 | uint64(dst), uint64(sport)<<24 | uint64(dport)<<8 | uint64(proto) | keyUsed}
}

// keyOf packs a flow key.
func keyOf(k packet.FlowKey) flowKey { return packed(k.Src, k.Dst, k.SrcPort, k.DstPort, k.Proto) }

type flowIndex = cowindex.Index[flowKey, *Flow]

// microLoad is the index's load bound, in entries per 8 slots: at ¾ a
// 128-entry table takes 192 slots where ½ takes 288, and only a miss in a
// large table probes further (EXPERIMENTS.md, "Microflow table ledger").
const microLoad = 6

// Microflows is a microflow table as View hands it out: sealed, so
// a fast-path snapshot reads its live entries with no lock.
type Microflows struct{ index flowIndex }

// Lookup returns the entry for p's five-tuple and its slot, numbered from
// 0 to Slots()-1 in this table. It packs p's fields, not p.Flow(): a
// FlowKey built on the stack and read back whole stalls the load.
func (m *Microflows) Lookup(p *packet.Packet) (slot int, f *Flow, ok bool) {
	return m.index.Find(packed(p.Src, p.Dst, p.SrcPort, p.DstPort, p.Proto))
}

// Len reports the entries.
func (m *Microflows) Len() int { return m.index.Len() }

// Slots reports the slots.
func (m *Microflows) Slots() int { return m.index.Slots() }

// At returns the entry in a slot, nil for an empty one.
func (m *Microflows) At(slot int) *Flow { return m.index.At(slot) }

// microTable is an access switch's microflow table. live, which Process
// reads and WriteMicroflows writes, succeeds sealed, the index View last
// handed out: a write copies a page live shares with sealed before writing
// it, so no handed-out index ever changes. No index goes out with more than
// a quarter of its block's pages copies (pages strewn over the heap slowed
// forwarding by a tenth; EXPERIMENTS.md, "Microflow ledger"): a write whose
// entries could pass that mark lays live out in a new block first, and the seal
// catches a removal whose shift wrote two pages. A relayout comes once per
// a quarter of the pages copied, so a write costs what it writes, amortised.
type microTable struct {
	live, sealed flowIndex
	shared       bool // live may share pages with sealed: set by a seal, cleared by a relayout
	// owned lists each cookie owner's keys, in install order.
	owned map[packet.Addr][]packet.FlowKey
}

func newMicroTable() *microTable {
	return &microTable{live: cowindex.New[flowKey, *Flow](microLoad, 1), owned: make(map[packet.Addr][]packet.FlowKey)}
}

// flow returns key's entry; a nil table holds none.
func (t *microTable) flow(key packet.FlowKey) (*Flow, bool) {
	if t == nil {
		return nil, false
	}
	return t.live.Get(keyOf(key))
}

// write takes remove's keys' entries out, then puts set's in, in the
// index and the owner index, and reports the entries it took out or put
// in. One check first lays live out anew when the writes could leave more
// than a quarter of its block's pages copies. o counts the pages copied.
func (t *microTable) write(remove []packet.FlowKey, set []Microflow, o *swObs) int {
	if t.shared && 4*(t.live.Loose()+len(remove)+len(set)) > t.live.Pages() {
		t.layOut(o)
	}
	n := len(set)
	for _, key := range remove {
		if t.put(key, nil, o) {
			n++
		}
	}
	for _, m := range set {
		t.put(m.Key, &Flow{Action: m.Action, Cookie: m.Cookie}, o)
	}
	return n
}

// put makes f key's entry, or with f nil takes key's entry out, and
// reports whether key had an entry.
func (t *microTable) put(key packet.FlowKey, f *Flow, o *swObs) bool {
	k, loose := keyOf(key), t.live.Loose()
	old, had := t.live.Get(k)
	var was, now packet.Addr
	if had {
		was = old.Cookie.Owner
	}
	switch {
	case f != nil:
		t.live.Put(&t.sealed, k, f)
		now = f.Cookie.Owner
	case had:
		t.live.Delete(&t.sealed, k)
	}
	o.pageCopy.Add(uint64(max(t.live.Loose()-loose, 0))) // a growth copies no page, and resets Loose
	t.own(key, was, now)
	return had
}

func (t *microTable) layOut(o *swObs) {
	t.live, t.shared = t.live.LaidOut(), false
	o.pageCopy.Add(uint64(t.live.Pages()))
}

// seal hands out live and makes it the base of the writes after.
func (t *microTable) seal(o *swObs) Microflows {
	if 4*t.live.Loose() > t.live.Pages() {
		t.layOut(o)
	}
	t.sealed, t.shared = t.live, true
	return Microflows{t.sealed}
}

// own moves key in the owner index from owner was to owner now; the zero
// address is no owner.
func (t *microTable) own(key packet.FlowKey, was, now packet.Addr) {
	if was == now {
		return
	}
	if was != 0 {
		keys := t.owned[was]
		i := slices.Index(keys, key)
		if keys = slices.Delete(keys, i, i+1); len(keys) == 0 {
			delete(t.owned, was)
		} else {
			t.owned[was] = keys
		}
	}
	if now != 0 {
		t.owned[now] = append(t.owned[now], key)
	}
}
