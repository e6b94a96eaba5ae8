package openflow

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func us(n int) sim.Time { return sim.Time(n) * time.Microsecond }

func ip(s string) netsim.IP      { return netsim.MustParseIP(s) }
func pfx(s string) netsim.Prefix { return netsim.MustParsePrefix(s) }
func udp(src, dst string) *netsim.Packet {
	return &netsim.Packet{SrcIP: ip(src), DstIP: ip(dst), Proto: netsim.ProtoUDP, Size: 100}
}

func TestMatchCovers(t *testing.T) {
	pkt := udp("192.168.1.5", "10.10.3.9")
	pkt.SrcPort, pkt.DstPort = 5000, 7000

	cases := []struct {
		name string
		m    Match
		want bool
	}{
		{"wildcard", NewMatch(), true},
		{"dst prefix hit", MatchDst(pfx("10.10.0.0/16")), true},
		{"dst prefix miss", MatchDst(pfx("10.11.0.0/16")), false},
		{"src prefix", func() Match { m := NewMatch(); m.SrcIP = pfx("192.168.0.0/16"); return m }(), true},
		{"proto hit", func() Match { m := NewMatch(); m.Proto = netsim.ProtoUDP; return m }(), true},
		{"proto miss", func() Match { m := NewMatch(); m.Proto = netsim.ProtoTCP; return m }(), false},
		{"dport hit", func() Match { m := NewMatch(); m.DstPort = 7000; return m }(), true},
		{"dport miss", func() Match { m := NewMatch(); m.DstPort = 7001; return m }(), false},
		{"sport hit", func() Match { m := NewMatch(); m.SrcPort = 5000; return m }(), true},
		{"inport hit", func() Match { m := NewMatch(); m.InPort = 3; return m }(), true},
		{"inport miss", func() Match { m := NewMatch(); m.InPort = 4; return m }(), false},
	}
	for _, c := range cases {
		if got := c.m.Covers(pkt, 3); got != c.want {
			t.Errorf("%s: Covers = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFlowTablePriority(t *testing.T) {
	tbl := NewFlowTable()
	lo := tbl.Add(FlowEntry{Priority: 1, Match: NewMatch(), Cookie: "default"})
	hi := tbl.Add(FlowEntry{Priority: 10, Match: MatchDst(pfx("10.10.0.0/16")), Cookie: "vring"})

	if e := tbl.Lookup(udp("1.1.1.1", "10.10.0.5"), 0); e != hi {
		t.Fatalf("lookup hit %v, want high-priority entry", e)
	}
	if e := tbl.Lookup(udp("1.1.1.1", "10.99.0.5"), 0); e != lo {
		t.Fatalf("lookup hit %v, want default entry", e)
	}
	if hi.Matches() != 1 || lo.Matches() != 1 {
		t.Fatalf("counters: hi=%d lo=%d", hi.Matches(), lo.Matches())
	}
}

func TestFlowTableInsertionOrderTieBreak(t *testing.T) {
	tbl := NewFlowTable()
	first := tbl.Add(FlowEntry{Priority: 5, Match: NewMatch(), Cookie: "first"})
	tbl.Add(FlowEntry{Priority: 5, Match: NewMatch(), Cookie: "second"})
	if e := tbl.Lookup(udp("1.1.1.1", "2.2.2.2"), 0); e != first {
		t.Fatalf("tie broke to %q, want first", e.Cookie)
	}
}

func TestRemoveCookie(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(FlowEntry{Priority: 1, Cookie: "vring-unicast-p0"})
	tbl.Add(FlowEntry{Priority: 1, Cookie: "vring-unicast-p1"})
	tbl.Add(FlowEntry{Priority: 1, Cookie: "vring-mcast-p0"})
	if n := tbl.RemoveCookie("vring-unicast-"); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

// topo builds hosts around one OpenFlow switch: client on port 0, servers
// on ports 1..n.
func topo(t *testing.T, nServers int, ctrlDelay sim.Time) (*sim.Simulator, *netsim.Network, *Datapath, *netsim.Host, []*netsim.Host) {
	t.Helper()
	s := sim.New(1)
	n := netsim.NewNetwork(s)
	sw := n.NewSwitch("sw", nServers+1, us(2))
	dp := Attach(sw, ctrlDelay)
	client := n.NewHost("client", ip("192.168.0.1"))
	n.Connect(client.Port(), sw.Port(0), netsim.Gbps(1, 0))
	var servers []*netsim.Host
	for i := 0; i < nServers; i++ {
		h := n.NewHost("srv", ip("10.0.0.1").Add(uint32(i)))
		n.Connect(h.Port(), sw.Port(i+1), netsim.Gbps(1, 0))
		servers = append(servers, h)
	}
	return s, n, dp, client, servers
}

func TestRewriteAndForward(t *testing.T) {
	// The core NICE mechanism: a packet to a virtual address is rewritten
	// to the physical node's IP/MAC and forwarded in one hop.
	s, _, dp, client, servers := topo(t, 1, 0)
	srv := servers[0]
	vaddr := ip("10.10.1.7")
	dp.Table().Add(FlowEntry{
		Priority: 10,
		Match:    MatchDst(pfx("10.10.1.0/24")),
		Actions:  []Action{SetDstIP{srv.IP()}, SetDstMAC{srv.MAC()}, Output{Port: 1}},
		Cookie:   "vring",
	})
	var got *netsim.Packet
	srv.SetHandler(func(pkt *netsim.Packet) { got = pkt })
	s.At(0, func() { client.Send(&netsim.Packet{DstIP: vaddr, Proto: netsim.ProtoUDP, Size: 200}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("server did not receive rewritten packet")
	}
	if got.DstIP != srv.IP() || got.DstMAC != srv.MAC() {
		t.Fatalf("rewrite failed: dst=%s mac=%s", got.DstIP, got.DstMAC)
	}
	if got.SrcIP != client.IP() {
		t.Fatalf("src clobbered: %s", got.SrcIP)
	}
}

func TestGroupMulticast(t *testing.T) {
	// Multicast vring: rewrite to the group address, then fan out to all
	// replica ports; every replica receives exactly one copy.
	s, _, dp, client, servers := topo(t, 3, 0)
	group := ip("239.0.1.0")
	var buckets []Bucket
	for i := range servers {
		servers[i].JoinMulticast(group)
		buckets = append(buckets, Bucket{Actions: []Action{Output{Port: i + 1}}})
	}
	dp.Groups().Set(Group{ID: 7, Buckets: buckets})
	dp.Table().Add(FlowEntry{
		Priority: 10,
		Match:    MatchDst(pfx("10.11.1.0/24")),
		Actions:  []Action{SetDstIP{group}, SetDstMAC{netsim.BroadcastMAC}, OutputGroup{Group: 7}},
	})
	got := make([]int, len(servers))
	for i := range servers {
		i := i
		servers[i].SetHandler(func(pkt *netsim.Packet) {
			if pkt.DstIP == group {
				got[i]++
			}
		})
	}
	s.At(0, func() { client.Send(&netsim.Packet{DstIP: ip("10.11.1.42"), Proto: netsim.ProtoUDP, Size: 500}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range got {
		if n != 1 {
			t.Fatalf("server %d received %d copies, want 1", i, n)
		}
	}
}

type recordingController struct {
	ins []*netsim.Packet
}

func (c *recordingController) PacketIn(dp *Datapath, pkt *netsim.Packet, inPort int) {
	c.ins = append(c.ins, pkt)
	// Reflect it back out the port it came from.
	dp.PacketOut(pkt, inPort)
}

func TestPacketInOut(t *testing.T) {
	s, _, dp, client, _ := topo(t, 1, us(100))
	ctrl := &recordingController{}
	dp.SetController(ctrl)
	var echoed bool
	client.SetHandler(func(pkt *netsim.Packet) { echoed = true })
	s.At(0, func() {
		client.Send(&netsim.Packet{DstIP: client.IP(), DstMAC: netsim.BroadcastMAC, Proto: netsim.ProtoUDP, Size: 99})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ctrl.ins) != 1 {
		t.Fatalf("controller saw %d PacketIns, want 1", len(ctrl.ins))
	}
	if !echoed {
		t.Fatal("PacketOut did not reach the client")
	}
	st := dp.Stats()
	if st.PacketIns != 1 || st.PacketOuts != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFlowModLatency(t *testing.T) {
	s, _, dp, client, servers := topo(t, 1, us(500))
	srv := servers[0]
	got := 0
	srv.SetHandler(func(pkt *netsim.Packet) { got++ })
	s.At(0, func() {
		dp.AddFlow(FlowEntry{
			Priority: 5,
			Match:    MatchDst(netsim.HostPrefix(srv.IP())),
			Actions:  []Action{SetDstMAC{srv.MAC()}, Output{Port: 1}},
		})
		// Sent before the mod lands: dropped.
		client.Send(&netsim.Packet{DstIP: srv.IP(), Proto: netsim.ProtoUDP, Size: 10})
	})
	s.At(us(1000), func() { // after the mod landed
		client.Send(&netsim.Packet{DstIP: srv.IP(), Proto: netsim.ProtoUDP, Size: 10})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("server received %d, want 1 (flow mod latency)", got)
	}
	if dp.Stats().FlowMods != 1 {
		t.Fatalf("FlowMods = %d", dp.Stats().FlowMods)
	}
}

// stageFunc adapts a function to Stage.
type stageFunc func(pkt *netsim.Packet) bool

func (f stageFunc) Process(_ *netsim.Switch, pkt *netsim.Packet, _ int) bool { return f(pkt) }

// TestStagesRunAheadOfTheFlowTable: stages see a packet in the order they
// were added; one that consumes it ends the walk, one that passes it on —
// rewritten — hands it to the next stage and then the flow-table lookup.
func TestStagesRunAheadOfTheFlowTable(t *testing.T) {
	s, _, dp, client, servers := topo(t, 1, 0)
	srv := servers[0]
	dp.Table().Add(FlowEntry{Priority: 5, Match: MatchDst(netsim.HostPrefix(srv.IP())), Actions: []Action{Output{Port: 1}}})
	var seen []string
	dp.AddStage(stageFunc(func(pkt *netsim.Packet) bool {
		seen = append(seen, "first")
		if pkt.DstPort == 1 { // consumed here
			dp.Switch().Drop(pkt)
			return true
		}
		pkt.DstIP = srv.IP() // passed on, rewritten
		return false
	}))
	dp.AddStage(stageFunc(func(pkt *netsim.Packet) bool {
		seen = append(seen, "second")
		return false
	}))
	got := 0
	srv.SetHandler(func(pkt *netsim.Packet) { got++ })
	s.At(0, func() {
		client.Send(&netsim.Packet{DstIP: ip("10.10.0.1"), DstPort: 1, Proto: netsim.ProtoUDP, Size: 10})
		client.Send(&netsim.Packet{DstIP: ip("10.10.0.1"), DstPort: 2, Proto: netsim.ProtoUDP, Size: 10})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"first", "first", "second"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("stages ran %v, want %v", seen, want)
	}
	if got != 1 {
		t.Fatalf("server received %d packets, want the one the stages passed on", got)
	}
}

// TestStageCommandRidesTheControlChannel: a stage command is delivered
// like a flow mod — same latency, behind every mod submitted before it —
// without counting as one, and learns at apply time whether its writer
// generation is still admitted. An upcall takes a packet-in's latency.
func TestStageCommandRidesTheControlChannel(t *testing.T) {
	s, _, dp, _, servers := topo(t, 1, us(500))
	var events []string
	s.At(0, func() {
		dp.SetControlFault(us(2000), 0)
		dp.AddFlow(FlowEntry{Priority: 5, Match: MatchDst(netsim.HostPrefix(servers[0].IP()))})
		dp.SetControlFault(0, 0)
		dp.StageCommand(1, StageFunc(func(admitted bool) {
			events = append(events, fmt.Sprintf("command admitted=%v rules=%d at %v", admitted, dp.Table().Len(), s.Now()))
		}))
		dp.Upcall(func(_, _ any) { events = append(events, fmt.Sprintf("upcall at %v", s.Now())) }, nil, nil)
	})
	s.At(us(2400), func() { // in flight when the fence rises
		dp.StageCommand(1, StageFunc(func(admitted bool) {
			events = append(events, fmt.Sprintf("command admitted=%v at %v", admitted, s.Now()))
		}))
	})
	s.At(us(2600), func() { dp.RaiseWriterFence(2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"upcall at 500µs",
		"command admitted=true rules=1 at 2.5ms",
		"command admitted=false at 2.9ms",
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events:\n  %q\nwant:\n  %q", events, want)
	}
	if st := dp.Stats(); st.FlowMods != 1 || st.FencedMods != 1 {
		t.Fatalf("stats %+v, want 1 flow mod and 1 fenced command", st)
	}
}

func TestActionListStopsOnDrop(t *testing.T) {
	s, _, dp, client, servers := topo(t, 1, 0)
	dp.Table().Add(FlowEntry{
		Priority: 5,
		Match:    NewMatch(),
		Actions:  []Action{Drop{}, Output{Port: 1}},
	})
	got := 0
	servers[0].SetHandler(func(pkt *netsim.Packet) { got++ })
	s.At(0, func() { client.Send(&netsim.Packet{DstIP: servers[0].IP(), Proto: netsim.ProtoUDP, Size: 10}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("output after drop must not fire")
	}
}

func TestSetFieldDoesNotAliasAcrossOutputs(t *testing.T) {
	// Output, then rewrite, then output again: the first copy must keep
	// the original header.
	s, _, dp, client, servers := topo(t, 2, 0)
	dp.Table().Add(FlowEntry{
		Priority: 5,
		Match:    NewMatch(),
		Actions: []Action{
			SetDstMAC{servers[0].MAC()}, Output{Port: 1},
			SetDstIP{servers[1].IP()}, SetDstMAC{servers[1].MAC()}, Output{Port: 2},
		},
	})
	var dst0, dst1 netsim.IP
	servers[0].SetHandler(func(pkt *netsim.Packet) { dst0 = pkt.DstIP })
	servers[1].SetHandler(func(pkt *netsim.Packet) { dst1 = pkt.DstIP })
	s.At(0, func() { client.Send(&netsim.Packet{DstIP: servers[0].IP(), Proto: netsim.ProtoUDP, Size: 10}) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if dst0 != servers[0].IP() {
		t.Fatalf("first copy rewritten: %s", dst0)
	}
	if dst1 != servers[1].IP() {
		t.Fatalf("second copy not rewritten: %s", dst1)
	}
}
