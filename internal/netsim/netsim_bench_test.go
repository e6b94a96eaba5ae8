package netsim

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkHostToHost measures one pooled packet's full life cycle on a
// direct cable: NewPacket, serialization, delivery, drop at the receiver's
// NIC filter (no handler installed beyond the recycle-free default), and
// recycling. Steady state should not allocate packets.
func BenchmarkHostToHost(b *testing.B) {
	s := sim.New(1)
	n := NewNetwork(s)
	a := n.NewHost("a", MustParseIP("10.0.0.1"))
	c := n.NewHost("c", MustParseIP("10.0.0.2"))
	n.Connect(a.Port(), c.Port(), Gbps(10, time.Microsecond))
	recv := 0
	c.SetHandler(func(pkt *Packet) {
		recv++
		n.RecyclePacket(pkt) // take the transport stack's role
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := n.NewPacket()
		pkt.DstIP = c.IP()
		pkt.DstMAC = c.MAC()
		pkt.Proto = ProtoUDP
		pkt.Size = 1400
		a.Send(pkt)
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	if recv != b.N {
		b.Fatalf("delivered %d of %d packets", recv, b.N)
	}
}

// BenchmarkSwitchForward measures the store-and-forward path through one
// switch with a trivial pipeline — the per-hop cost every simulated packet
// pays in the cluster experiments.
func BenchmarkSwitchForward(b *testing.B) {
	s := sim.New(1)
	n := NewNetwork(s)
	a := n.NewHost("a", MustParseIP("10.0.0.1"))
	c := n.NewHost("c", MustParseIP("10.0.0.2"))
	sw := n.NewSwitch("sw", 2, time.Microsecond)
	n.Connect(a.Port(), sw.Port(0), Gbps(10, time.Microsecond))
	n.Connect(c.Port(), sw.Port(1), Gbps(10, time.Microsecond))
	sw.SetPipeline(PipelineFunc(func(sw *Switch, pkt *Packet, inPort int) {
		sw.Output(1-inPort, pkt)
	}))
	recv := 0
	c.SetHandler(func(pkt *Packet) {
		recv++
		n.RecyclePacket(pkt)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := n.NewPacket()
		pkt.DstIP = c.IP()
		pkt.DstMAC = c.MAC()
		pkt.Proto = ProtoUDP
		pkt.Size = 1400
		a.Send(pkt)
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	if recv != b.N {
		b.Fatalf("delivered %d of %d packets", recv, b.N)
	}
}

// BenchmarkFloodFanout measures multicast-style cloning: one packet in,
// seven pooled clones out, all dropped at non-subscribed NICs (and thus
// recycled). Untimed warm-up floods fill the packet and event free lists,
// so the timed region is steady state, and the benchmark asserts that
// state allocates nothing at all: it checks the exact byte total, so a
// single allocation fails the run, even at b.N = 1.
func BenchmarkFloodFanout(b *testing.B) {
	s := sim.New(1)
	n := NewNetwork(s)
	const fan = 8
	sw := n.NewSwitch("sw", fan, time.Microsecond)
	src := n.NewHost("src", IPv4(10, 0, 0, 100))
	n.Connect(src.Port(), sw.Port(0), Gbps(10, time.Microsecond))
	for i := 1; i < fan; i++ {
		h := n.NewHost("h", IPv4(10, 0, 0, byte(i)))
		n.Connect(h.Port(), sw.Port(i), Gbps(10, time.Microsecond))
	}
	sw.SetPipeline(PipelineFunc(func(sw *Switch, pkt *Packet, inPort int) {
		sw.Flood(pkt, inPort)
		n.RecyclePacket(pkt) // Flood sends clones; the original is ours
	}))
	flood := func() {
		pkt := n.NewPacket()
		pkt.DstIP = IPv4(10, 0, 0, 200) // nobody's address: NIC filters recycle
		pkt.Proto = ProtoUDP
		pkt.Size = 1400
		src.Send(pkt)
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	// Every timer-wheel bucket starts with room for a flood's seven
	// same-instant clones, whichever level they file in, so the warm-up
	// needs to reach no particular bucket.
	for range 10 {
		flood()
	}
	// Pinned as testing.AllocsPerRun pins it, so the bytes counted are the
	// flood path's own and not another goroutine's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flood()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if bytes := m1.TotalAlloc - m0.TotalAlloc; bytes != 0 {
		b.Fatalf("flood path allocates: %d bytes over %d ops", bytes, b.N)
	}
}
