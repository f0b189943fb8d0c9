package fastpath

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/switchsim"
)

// microPlant returns a switch holding n forwarding microflows and a packet
// for each: hits, one per installed flow, and misses, which share a
// flow's addresses but not its ports.
func microPlant(n int) (sw *switchsim.Switch, hits, misses []packet.Packet) {
	sw = switchsim.NewSwitch("access")
	sw.Install(1, switchsim.Match{InPort: switchsim.AnyPort}, switchsim.Action{Output: 1})
	for i := range n {
		k := packet.FlowKey{Src: packet.Addr(0x0a000000 + i), Dst: 0x08080808,
			SrcPort: uint16(1024 + i%4096), DstPort: 443, Proto: packet.ProtoTCP}
		sw.InstallMicroflow(k, switchsim.Action{Output: 2}, switchsim.Cookie{})
		hits = append(hits, packet.Packet{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto})
		misses = append(misses, packet.Packet{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: 80, Proto: k.Proto})
	}
	return sw, hits, misses
}

// BenchmarkMicroflowLookup times one packet's fast-path lookup at an access
// switch holding 64, 1 024 and 16 384 microflows, for a packet that hits
// its microflow and for one that misses into the TCAM. It is the per-packet
// cost of the microflow index's probe.
func BenchmarkMicroflowLookup(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		sw, hits, misses := microPlant(n)
		v := sw.View()
		for _, c := range []struct {
			name string
			pkts []packet.Packet
		}{{"hit", hits}, {"miss", misses}} {
			b.Run(fmt.Sprintf("%s/flows=%d", c.name, n), func(b *testing.B) {
				var t tally
				t.ensure(slots(v))
				t.direct = true
				p := new(packet.Packet)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					*p = c.pkts[i%len(c.pkts)]
					lookup(v, p, 0, &t)
				}
			})
		}
	}
}
