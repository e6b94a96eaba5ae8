package netsim

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func us(n int) sim.Time { return sim.Time(n) * time.Microsecond }

// pair builds two hosts on a direct cable.
func pair(t *testing.T, cfg LinkConfig) (*sim.Simulator, *Network, *Host, *Host) {
	t.Helper()
	s := sim.New(1)
	n := NewNetwork(s)
	a := n.NewHost("a", MustParseIP("10.0.0.1"))
	b := n.NewHost("b", MustParseIP("10.0.0.2"))
	n.Connect(a.Port(), b.Port(), cfg)
	return s, n, a, b
}

func TestParseIP(t *testing.T) {
	ip, err := ParseIP("10.20.30.40")
	if err != nil {
		t.Fatal(err)
	}
	if ip.String() != "10.20.30.40" {
		t.Fatalf("round trip = %s", ip)
	}
	if IPv4(10, 20, 30, 40) != ip {
		t.Fatal("IPv4 mismatch")
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "a.b.c.d", "256.1.1.1", "-1.2.3.4"} {
		if _, err := ParseIP(bad); err == nil {
			t.Errorf("ParseIP(%q) succeeded", bad)
		}
	}
}

func TestPrefix(t *testing.T) {
	p := MustParsePrefix("10.10.0.0/16")
	if !p.Contains(MustParseIP("10.10.255.255")) {
		t.Fatal("should contain")
	}
	if p.Contains(MustParseIP("10.11.0.0")) {
		t.Fatal("should not contain")
	}
	if p.Size() != 1<<16 {
		t.Fatalf("Size = %d", p.Size())
	}
	if p.Nth(256).String() != "10.10.1.0" {
		t.Fatalf("Nth = %s", p.Nth(256))
	}
	var wild Prefix
	if !wild.Contains(MustParseIP("1.2.3.4")) || !wild.IsWildcard() {
		t.Fatal("zero prefix should be a wildcard")
	}
	// PrefixOf masks host bits.
	if PrefixOf(MustParseIP("10.10.3.7"), 24).Addr.String() != "10.10.3.0" {
		t.Fatal("PrefixOf did not mask")
	}
}

func TestPrefixContainsProperty(t *testing.T) {
	f := func(addr uint32, bits uint8) bool {
		b := int(bits % 33)
		p := PrefixOf(IP(addr), b)
		// The prefix base and the last address are inside; the address
		// just past the block is outside (unless wildcard).
		last := p.Addr + IP(p.Size()-1)
		if !p.Contains(p.Addr) || !p.Contains(last) {
			return false
		}
		if b > 0 && p.Addr >= IP(p.Size()) && p.Contains(p.Addr-1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkSerializationTiming(t *testing.T) {
	s, _, a, b := pair(t, LinkConfig{BandwidthBps: 1e9, Delay: us(10)})
	var arrival sim.Time
	b.SetHandler(func(pkt *Packet) { arrival = s.Now() })
	s.At(0, func() {
		a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 1250}) // 10 us at 1 Gbps
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := us(10) + us(10) // tx + propagation
	if arrival != want {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
}

func TestLinkFIFOQueueing(t *testing.T) {
	s, _, a, b := pair(t, LinkConfig{BandwidthBps: 1e9, Delay: 0})
	var arrivals []sim.Time
	b.SetHandler(func(pkt *Packet) { arrivals = append(arrivals, s.Now()) })
	s.At(0, func() {
		for i := 0; i < 3; i++ {
			a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 1250})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 3 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	for i, want := range []sim.Time{us(10), us(20), us(30)} {
		if arrivals[i] != want {
			t.Fatalf("arrival[%d] = %v, want %v", i, arrivals[i], want)
		}
	}
}

func TestFullDuplex(t *testing.T) {
	// Opposite directions must not contend.
	s, _, a, b := pair(t, LinkConfig{BandwidthBps: 1e9, Delay: 0})
	var atA, atB sim.Time
	a.SetHandler(func(pkt *Packet) { atA = s.Now() })
	b.SetHandler(func(pkt *Packet) { atB = s.Now() })
	s.At(0, func() {
		a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 1250})
		b.Send(&Packet{DstIP: a.IP(), Proto: ProtoUDP, Size: 1250})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if atA != us(10) || atB != us(10) {
		t.Fatalf("atA=%v atB=%v, want both 10us", atA, atB)
	}
}

func TestHostNICFilter(t *testing.T) {
	s, n, a, b := pair(t, Gbps(1, 0))
	got := 0
	b.SetHandler(func(pkt *Packet) { got++ })
	s.At(0, func() {
		// Wrong dst MAC: filtered by the NIC.
		a.Send(&Packet{DstIP: b.IP(), DstMAC: MAC(0x0200deadbeef), Proto: ProtoUDP, Size: 100})
		// Broadcast MAC but wrong IP: dropped at IP layer.
		a.Send(&Packet{DstIP: MustParseIP("10.0.0.99"), Proto: ProtoUDP, Size: 100})
		// Correct: broadcast MAC, right IP.
		a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 100})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("handler saw %d packets, want 1", got)
	}
	if n.Drops() != 2 {
		t.Fatalf("drops = %d, want 2", n.Drops())
	}
}

func TestMulticastSubscription(t *testing.T) {
	s, _, a, b := pair(t, Gbps(1, 0))
	group := MustParseIP("239.1.1.1")
	got := 0
	b.SetHandler(func(pkt *Packet) { got++ })
	s.At(0, func() {
		a.Send(&Packet{DstIP: group, Proto: ProtoUDP, Size: 100})
	})
	s.At(us(100), func() {
		b.JoinMulticast(group)
		a.Send(&Packet{DstIP: group, Proto: ProtoUDP, Size: 100})
	})
	s.At(us(200), func() {
		b.LeaveMulticast(group)
		a.Send(&Packet{DstIP: group, Proto: ProtoUDP, Size: 100})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("got %d multicast deliveries, want 1", got)
	}
}

func TestARPResolution(t *testing.T) {
	s, _, a, b := pair(t, Gbps(1, us(5)))
	s.At(0, func() {
		a.Send(&Packet{
			DstIP:   b.IP(),
			Proto:   ProtoARP,
			Size:    ARPPacketSize,
			Payload: &ARPPayload{Op: ARPRequest, TargetIP: b.IP(), SenderIP: a.IP()},
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if a.arp[b.IP()] != b.MAC() {
		t.Fatalf("ARP cache = %v, want %v", a.arp[b.IP()], b.MAC())
	}
	// Subsequent sends use the learned MAC.
	var gotMAC MAC
	b.SetHandler(func(pkt *Packet) { gotMAC = pkt.DstMAC })
	s.After(0, func() { a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 64}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gotMAC != b.MAC() {
		t.Fatalf("DstMAC = %v, want %v", gotMAC, b.MAC())
	}
}

func TestHostDown(t *testing.T) {
	s, _, a, b := pair(t, Gbps(1, 0))
	got := 0
	b.SetHandler(func(pkt *Packet) { got++ })
	s.At(0, func() {
		b.SetDown(true)
		a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 100})
	})
	s.At(us(50), func() {
		b.SetDown(false)
		a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 100})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("got %d, want 1 (down host must not receive)", got)
	}
}

func TestSwitchForwarding(t *testing.T) {
	s := sim.New(1)
	n := NewNetwork(s)
	a := n.NewHost("a", MustParseIP("10.0.0.1"))
	b := n.NewHost("b", MustParseIP("10.0.0.2"))
	c := n.NewHost("c", MustParseIP("10.0.0.3"))
	sw := n.NewSwitch("sw", 3, us(2))
	n.Connect(a.Port(), sw.Port(0), Gbps(1, 0))
	n.Connect(b.Port(), sw.Port(1), Gbps(1, 0))
	n.Connect(c.Port(), sw.Port(2), Gbps(1, 0))
	// Static IP pipeline.
	sw.SetPipeline(PipelineFunc(func(sw *Switch, pkt *Packet, inPort int) {
		switch pkt.DstIP {
		case a.IP():
			sw.Output(0, pkt)
		case b.IP():
			sw.Output(1, pkt)
		case c.IP():
			sw.Output(2, pkt)
		default:
			sw.Drop(pkt)
		}
	}))
	gotB, gotC := 0, 0
	b.SetHandler(func(pkt *Packet) { gotB++ })
	c.SetHandler(func(pkt *Packet) { gotC++ })
	s.At(0, func() {
		a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 100})
		a.Send(&Packet{DstIP: c.IP(), Proto: ProtoUDP, Size: 100})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gotB != 1 || gotC != 1 {
		t.Fatalf("gotB=%d gotC=%d", gotB, gotC)
	}
	st := sw.Stats()
	if st.PktsIn != 2 || st.PktsOut != 2 {
		t.Fatalf("switch stats %+v", st)
	}
}

func TestSwitchMulticastFanOutLoad(t *testing.T) {
	// The NICE replication claim: with switch fan-out, the sender's link
	// carries the data once while R receiver links each carry one copy.
	s := sim.New(1)
	n := NewNetwork(s)
	src := n.NewHost("src", MustParseIP("10.0.0.1"))
	sw := n.NewSwitch("sw", 4, 0)
	srcLink := n.Connect(src.Port(), sw.Port(0), Gbps(1, 0))
	group := MustParseIP("239.0.0.1")
	var rcvLinks []*Link
	recvd := 0
	for i := 0; i < 3; i++ {
		h := n.NewHost("r", MustParseIP("10.0.0.2").Add(uint32(i)))
		h.JoinMulticast(group)
		h.SetHandler(func(pkt *Packet) { recvd++ })
		rcvLinks = append(rcvLinks, n.Connect(h.Port(), sw.Port(i+1), Gbps(1, 0)))
	}
	sw.SetPipeline(PipelineFunc(func(sw *Switch, pkt *Packet, inPort int) {
		if pkt.DstIP == group {
			for p := 1; p <= 3; p++ {
				sw.Output(p, pkt.Clone())
			}
			return
		}
		sw.Drop(pkt)
	}))
	s.At(0, func() { src.Send(&Packet{DstIP: group, Proto: ProtoUDP, Size: 1000}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if recvd != 3 {
		t.Fatalf("recvd = %d, want 3", recvd)
	}
	if srcLink.StatsAB().Bytes != 1000 {
		t.Fatalf("src link carried %d bytes, want 1000", srcLink.StatsAB().Bytes)
	}
	for _, l := range rcvLinks {
		if l.StatsBA().Bytes != 1000 {
			t.Fatalf("receiver link carried %d, want 1000", l.StatsBA().Bytes)
		}
	}
	if n.TotalLinkBytes() != 4000 {
		t.Fatalf("TotalLinkBytes = %d, want 4000", n.TotalLinkBytes())
	}
}

func TestTTLExhaustion(t *testing.T) {
	// Two switches forwarding to each other in a loop must drop on TTL.
	s := sim.New(1)
	n := NewNetwork(s)
	h := n.NewHost("h", MustParseIP("10.0.0.1"))
	sw1 := n.NewSwitch("sw1", 2, us(1))
	sw2 := n.NewSwitch("sw2", 2, us(1))
	n.Connect(h.Port(), sw1.Port(0), Gbps(1, 0))
	n.Connect(sw1.Port(1), sw2.Port(0), Gbps(1, 0))
	sw1.SetPipeline(PipelineFunc(func(sw *Switch, pkt *Packet, inPort int) {
		sw.Output(1, pkt) // always toward sw2
	}))
	sw2.SetPipeline(PipelineFunc(func(sw *Switch, pkt *Packet, inPort int) {
		sw.Output(0, pkt) // bounce back
	}))
	s.At(0, func() { h.Send(&Packet{DstIP: MustParseIP("10.0.0.9"), Proto: ProtoUDP, Size: 100}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sw1.Stats().Dropped+sw2.Stats().Dropped == 0 {
		t.Fatal("loop was not cut by TTL")
	}
}

func TestSlowLinkConfig(t *testing.T) {
	s, _, a, b := pair(t, Mbps(50, 0))
	var arrival sim.Time
	b.SetHandler(func(pkt *Packet) { arrival = s.Now() })
	s.At(0, func() { a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 625000}) }) // 5 Mbit
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(100) * time.Millisecond // 5 Mbit at 50 Mbps
	if arrival != want {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
}

func TestSetConfigMidRun(t *testing.T) {
	s, _, a, b := pair(t, Gbps(1, 0))
	link := a.Port().Link()
	var arrivals []sim.Time
	b.SetHandler(func(pkt *Packet) { arrivals = append(arrivals, s.Now()) })
	s.At(0, func() { a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 1250}) })
	s.At(us(50), func() {
		link.SetConfig(Mbps(100, 0))
		a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 1250})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals[0] != us(10) || arrivals[1] != us(50)+us(100) {
		t.Fatalf("arrivals = %v", arrivals)
	}
}

func TestHostByIPAndResets(t *testing.T) {
	s, n, a, b := pair(t, Gbps(1, 0))
	if n.HostByIP(a.IP()) != a || n.HostByIP(MustParseIP("9.9.9.9")) != nil {
		t.Fatal("HostByIP lookup wrong")
	}
	b.SetHandler(func(pkt *Packet) {})
	s.At(0, func() { a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 500}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().BytesSent != 500 || b.Stats().BytesRecv != 500 {
		t.Fatalf("host stats: %+v %+v", a.Stats(), b.Stats())
	}
	n.ResetHostStats()
	n.ResetLinkStats()
	if a.Stats().BytesSent != 0 || n.TotalLinkBytes() != 0 {
		t.Fatal("reset did not zero counters")
	}
}

func TestTapsObserveTraffic(t *testing.T) {
	s, n, a, b := pair(t, Gbps(1, 0))
	b.SetHandler(func(pkt *Packet) {})
	counter := NewCountingTap()
	remove := n.AddTap(counter.Tap)
	var lines []string
	n.AddTap(func(ev TraceEvent) { lines = append(lines, ev.String()) })
	s.At(0, func() {
		a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 500})
		a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 300})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if counter.Pkts["b/udp"] != 2 || counter.Bytes["b/udp"] != 800 {
		t.Fatalf("counting tap: %+v", counter)
	}
	if len(lines) != 4 { // 2 tx at a + 2 rx at b
		t.Fatalf("trace lines = %d, want 4: %v", len(lines), lines)
	}
	// Removal stops delivery.
	remove()
	s.After(0, func() { a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 100}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if counter.Pkts["b/udp"] != 2 {
		t.Fatal("removed tap still counting")
	}
}

// TestTapsFireInRegistrationOrder: every event reaches the taps in the
// order they were added — a map of taps called them in a different order
// from event to event and run to run, so two writers on one stream
// interleaved nondeterministically — and removing one (here from inside
// its own callback) leaves the order of the rest alone. The tap's header
// snapshot carries the transport sequence field like any other header.
func TestTapsFireInRegistrationOrder(t *testing.T) {
	s, n, a, b := pair(t, Gbps(1, 0))
	b.SetHandler(func(pkt *Packet) {})
	const taps = 16
	var order []int
	var removeFifth func()
	for i := 0; i < taps; i++ {
		remove := n.AddTap(func(ev TraceEvent) {
			if ev.Pkt.Seq != 77 {
				t.Errorf("tap saw Seq %d, want 77", ev.Pkt.Seq)
			}
			order = append(order, i)
			if i == 5 && len(order) > 3*taps {
				removeFifth()
			}
		})
		if i == 5 {
			removeFifth = remove
		}
	}
	s.At(0, func() {
		for k := 0; k < 3; k++ {
			a.Send(&Packet{DstIP: b.IP(), Proto: ProtoUDP, Size: 100, Seq: 77})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Six events (3 tx, 3 rx): tap 5 sees the first four and is gone.
	var want []int
	for ev := 0; ev < 6; ev++ {
		for i := 0; i < taps; i++ {
			if i != 5 || ev < 4 {
				want = append(want, i)
			}
		}
	}
	if !slices.Equal(order, want) {
		t.Fatalf("taps fired in order %v", order)
	}
	if c := n.ClonePacket(&Packet{Seq: 9}); c.Seq != 9 {
		t.Fatal("ClonePacket dropped the sequence field")
	}
}
