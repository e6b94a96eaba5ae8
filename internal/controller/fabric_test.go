package controller

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
)

// tree is a three-tier fabric cabled out of bare netsim switches, with
// nothing told to the controller side but the root datapath:
//
//	root ── agg0 ── tor0 (h0 h1), tor1 (h2 h3)
//	   ├─── agg1 ── tor2 (h4 h5), tor3 (h6 h7)
//	   └─── h8
//
// Uplinks sit on different port numbers at every tier (port 0 of a ToR,
// the last port of an aggregation switch), so nothing can get by on
// assuming one.
type tree struct {
	s        *sim.Simulator
	nw       *netsim.Network
	root     *netsim.Switch
	aggs     []*netsim.Switch
	tors     []*netsim.Switch
	switches []*netsim.Switch // root, aggs, tors
	hosts    []*netsim.Host
	access   []*netsim.Link // hosts[i]'s link; A is the host end
	trunks   []*netsim.Link // switch-to-switch links
	fabric   *Fabric
}

var treeLink = netsim.Gbps(1, us(5))

func newTree() *tree {
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	tr := &tree{s: s, nw: nw}
	newSwitch := func(name string, ports int) *netsim.Switch {
		sw := nw.NewSwitch(name, ports, us(2))
		openflow.Attach(sw, 0)
		tr.switches = append(tr.switches, sw)
		return sw
	}
	tr.root = newSwitch("root", 4)
	for a := 0; a < 2; a++ {
		agg := newSwitch(fmt.Sprintf("agg%d", a), 4)
		tr.aggs = append(tr.aggs, agg)
		tr.trunks = append(tr.trunks, nw.Connect(agg.Port(3), tr.root.Port(a), treeLink))
	}
	for i := 0; i < 4; i++ {
		tor := newSwitch(fmt.Sprintf("tor%d", i), 4)
		tr.tors = append(tr.tors, tor)
		tr.trunks = append(tr.trunks, nw.Connect(tor.Port(0), tr.aggs[i/2].Port(i%2), treeLink))
		tr.addHost(tor, 1)
		tr.addHost(tor, 2)
	}
	tr.addHost(tr.root, 2)
	tr.fabric = NewFabric(dpOf(tr.root))
	return tr
}

func (tr *tree) addHost(sw *netsim.Switch, port int) *netsim.Host {
	n := len(tr.hosts)
	h := tr.nw.NewHost(fmt.Sprintf("h%d", n), netsim.IPv4(10, 0, 0, byte(n+1)))
	tr.hosts = append(tr.hosts, h)
	tr.access = append(tr.access, tr.nw.Connect(h.Port(), sw.Port(port), treeLink))
	return h
}

func dpOf(sw *netsim.Switch) *openflow.Datapath { return sw.Pipeline().(*openflow.Datapath) }

// leadsTo is the test's own reading of the cabling: does the device
// entered through port in reach target without turning back?
func leadsTo(in *netsim.Port, target *netsim.Host) bool {
	sw, ok := in.Dev.(*netsim.Switch)
	if !ok {
		return in.Dev == netsim.Device(target)
	}
	for i := 0; i < sw.NumPorts(); i++ {
		if p := sw.Port(i); p != in && p.Connected() && leadsTo(p.Peer(), target) {
			return true
		}
	}
	return false
}

// TestFabricPortTowardFollowsTheTreePath: from every switch, the port the
// fabric names for every host is the first hop of the one path the
// cabling offers.
func TestFabricPortTowardFollowsTheTreePath(t *testing.T) {
	tr := newTree()
	for _, sw := range tr.switches {
		for _, h := range tr.hosts {
			want := -1
			for i := 0; i < sw.NumPorts(); i++ {
				if p := sw.Port(i); p.Connected() && leadsTo(p.Peer(), h) {
					want = i
				}
			}
			if got, ok := tr.fabric.PortToward(dpOf(sw), h.IP()); !ok || got != want {
				t.Errorf("PortToward(%s, %s) = %d, %v; the cabling says port %d",
					sw.DeviceName(), h.DeviceName(), got, ok, want)
			}
		}
	}
	if port, ok := tr.fabric.PortToward(dpOf(tr.root), netsim.IPv4(10, 9, 9, 9)); ok {
		t.Errorf("an address cabled nowhere is toward port %d", port)
	}
	var names []string
	for _, dp := range tr.fabric.Datapaths() {
		names = append(names, dp.Name())
	}
	if got := strings.Join(names, " "); got != "root agg0 tor0 tor1 agg1 tor2 tor3" {
		t.Errorf("Datapaths() = %s, want the tree in pre-order", got)
	}
	names = nil
	for _, dp := range tr.fabric.MappingDatapaths() {
		names = append(names, dp.Name())
	}
	if got := strings.Join(names, " "); got != "tor0 tor1 tor2 tor3" {
		t.Errorf("MappingDatapaths() = %s, want the switches with no switch below them", got)
	}
	names = nil
	for _, dp := range tr.fabric.Holding([]netsim.IP{tr.hosts[2].IP(), tr.hosts[3].IP()}) {
		names = append(names, dp.Name())
	}
	if got := strings.Join(names, " "); got != "root agg0 tor1" {
		t.Errorf("Holding(h2, h3) = %s, want tor1 and the switches above it", got)
	}
}

// installPlan puts one group's MulticastPlan on every switch the way
// Service.installPartition does: entry k is group 64p+k, ingress-specific
// entries shadow the fallback, entries without ports are skipped.
func (tr *tree) installPlan(p int, group netsim.IP, members []netsim.IP) {
	for _, sw := range tr.switches {
		dp := dpOf(sw)
		for k, rule := range tr.fabric.MulticastPlan(dp, members) {
			if len(rule.Ports) == 0 {
				continue
			}
			g := openflow.Group{ID: openflow.GroupID(64*p + k)}
			for _, port := range rule.Ports {
				g.Buckets = append(g.Buckets, openflow.Bucket{Actions: []openflow.Action{openflow.Output{Port: port}}})
			}
			dp.SetGroup(g)
			m := openflow.MatchDst(netsim.HostPrefix(group))
			m.InPort = rule.InPort
			prio := prioMapping
			if rule.InPort != openflow.AnyPort {
				prio += 2
			}
			dp.AddFlow(openflow.FlowEntry{Priority: prio, Match: m, Actions: []openflow.Action{openflow.OutputGroup{Group: g.ID}}})
		}
	}
}

// TestFabricMulticastOnThreeTiers installs the plan for several member
// sets on a tree one tier deeper than any deployment builds, and sends
// one packet to each group from every host in turn — each member and
// each non-member. Every member's access link delivers exactly one copy,
// no other host's delivers any, and no link carries the packet twice in
// one direction.
//
// Two things the tables have always done stay as they are (the golden in
// internal/cluster pins them bit for bit). A sending member is counted
// like any other member: its own access switch's fallback group echoes
// the packet to it, as the single switch always has. And every set here
// has members under two ports of the root: a group living wholly under
// one child of the root is sent up regardless, meets no ingress-specific
// entry there (its port list is empty, so it is skipped) and is echoed
// back down by the fallback — see ROADMAP.
func TestFabricMulticastOnThreeTiers(t *testing.T) {
	tr := newTree()
	sets := [][]int{
		{0, 4, 7},    // one per rack, both sides of the root
		{0, 1, 6},    // a rack pair and one across the root
		{0, 2, 8},    // one aggregation switch and the root's own host
		{3, 4},       // a pair across the root
		{8, 6},       // the root's host first
		{1, 2, 5, 8}, // four members, every tier
	}
	for p, set := range sets {
		group := netsim.IPv4(239, 0, 0, byte(p))
		member := make(map[int]bool)
		var ips []netsim.IP
		for _, i := range set {
			member[i] = true
			ips = append(ips, tr.hosts[i].IP())
			tr.hosts[i].JoinMulticast(group)
		}
		tr.installPlan(p, group, ips)
		if err := tr.s.Run(); err != nil {
			t.Fatal(err)
		}
		for sender, h := range tr.hosts {
			tr.nw.ResetLinkStats()
			h.Send(&netsim.Packet{DstIP: group, Proto: netsim.ProtoUDP, Size: 100})
			if err := tr.s.Run(); err != nil {
				t.Fatal(err)
			}
			for i, l := range tr.access {
				want := int64(0)
				if member[i] {
					want = 1
				}
				if got := l.StatsBA().Packets; got != want {
					t.Errorf("set %v, h%d sending: h%d was delivered %d copies, want %d", set, sender, i, got, want)
				}
			}
			for _, l := range tr.trunks {
				if ab, ba := l.StatsAB().Packets, l.StatsBA().Packets; ab > 1 || ba > 1 {
					t.Errorf("set %v, h%d sending: %s carried the packet %d times up, %d down", set, sender, l.Name, ab, ba)
				}
			}
		}
	}
}

// TestFabricFindsHostsCabledLater: controller tests, like operators, plug
// hosts in after the service is up. A question about an address the last
// walk did not see re-reads the cabling — a whole new rack included.
func TestFabricFindsHostsCabledLater(t *testing.T) {
	tr := newTree()
	if port, ok := tr.fabric.PortToward(dpOf(tr.root), tr.hosts[0].IP()); !ok || port != 0 {
		t.Fatalf("PortToward(root, h0) = %d, %v", port, ok)
	}
	late := tr.addHost(tr.tors[3], 3)
	if port, ok := tr.fabric.PortToward(dpOf(tr.root), late.IP()); !ok || port != 1 {
		t.Errorf("PortToward(root, host cabled after the first answer) = %d, %v; want port 1", port, ok)
	}
	if port, ok := tr.fabric.PortToward(dpOf(tr.tors[3]), late.IP()); !ok || port != 3 {
		t.Errorf("PortToward(tor3, late host) = %d, %v; want its own port 3", port, ok)
	}
	rack := tr.nw.NewSwitch("tor4", 2, us(2))
	openflow.Attach(rack, 0)
	tr.nw.Connect(rack.Port(1), tr.aggs[1].Port(2), treeLink)
	later := tr.addHost(rack, 0)
	if port, ok := tr.fabric.PortToward(dpOf(tr.aggs[1]), later.IP()); !ok || port != 2 {
		t.Errorf("PortToward(agg1, host in a rack cabled later) = %d, %v; want port 2", port, ok)
	}
	if port, ok := tr.fabric.PortToward(dpOf(rack), tr.hosts[8].IP()); !ok || port != 1 {
		t.Errorf("PortToward(new rack, h8) = %d, %v; want its uplink, port 1", port, ok)
	}
	if n := len(tr.fabric.Datapaths()); n != 8 {
		t.Errorf("%d datapaths after cabling an eighth", n)
	}
}

// TestFabricRefusesALoop: a second path to a switch means "the port
// toward a host" has two answers; the walk refuses, naming the switch it
// reached twice.
func TestFabricRefusesALoop(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cable func(tr *tree)
		want  string
	}{
		{"parallel trunks", func(tr *tree) { tr.nw.Connect(tr.aggs[0].Port(2), tr.root.Port(3), treeLink) }, "root"},
		{"rack to rack", func(tr *tree) { tr.nw.Connect(tr.tors[0].Port(3), tr.tors[1].Port(3), treeLink) }, "agg0"},
		{"across the root", func(tr *tree) { tr.nw.Connect(tr.tors[1].Port(3), tr.tors[2].Port(3), treeLink) }, "root"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTree()
			tc.cable(tr)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "switch "+tc.want+":") || !strings.Contains(msg, "not a tree") {
					t.Errorf("recovered %q, want the refusal naming %s", msg, tc.want)
				}
			}()
			tr.fabric.Datapaths()
			t.Error("a looped cabling was walked")
		})
	}
}
