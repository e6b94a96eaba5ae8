package controller

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

func ms(n int) sim.Time { return sim.Time(n) * time.Millisecond }
func us(n int) sim.Time { return sim.Time(n) * time.Microsecond }

const (
	dataPort = 7000
	nodeCtrl = 9001
)

// rig is a single-switch deployment with fake storage nodes that
// heartbeat and record the control messages they receive.
type rig struct {
	s     *sim.Simulator
	net   *netsim.Network
	dp    *openflow.Datapath
	svc   *Service
	nodes []*fakeNode
	meta  *transport.Stack
	// onMsg, when set, sees each control message as node i receives it.
	onMsg func(i int, m any)
}

type fakeNode struct {
	stack *transport.Stack
	ctrl  *transport.UDPSocket
	msgs  []any
	beat  bool // keep heartbeating
}

func newRig(t *testing.T, n, r int, lb bool) *rig {
	t.Helper()
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	sw := nw.NewSwitch("core", n+8, us(2))
	dp := openflow.Attach(sw, us(50))
	rg := &rig{s: s, net: nw, dp: dp}

	metaHost := nw.NewHost("meta", netsim.MustParseIP("10.0.0.100"))
	nw.Connect(metaHost.Port(), sw.Port(n), netsim.Gbps(1, us(5)))
	rg.meta = transport.NewStack(metaHost)

	var addrs []NodeAddr
	for i := 0; i < n; i++ {
		h := nw.NewHost("node", netsim.IPv4(10, 0, 0, byte(i+1)))
		nw.Connect(h.Port(), sw.Port(i), netsim.Gbps(1, us(5)))
		st := transport.NewStack(h)
		fn := &fakeNode{stack: st, ctrl: st.MustBindUDP(nodeCtrl), beat: true}
		rg.nodes = append(rg.nodes, fn)
		addrs = append(addrs, NodeAddr{
			Index: i, IP: h.IP(), MAC: h.MAC(), DataPort: dataPort, CtrlPort: nodeCtrl,
		})
	}

	cfg := DefaultConfig()
	cfg.Placement = ring.NewPlacement(n, r)
	cfg.Unicast = ring.MustVRing(netsim.MustParsePrefix("10.10.0.0/16"), n, 8)
	cfg.Multicast = ring.MustVRing(netsim.MustParsePrefix("10.11.0.0/16"), n, 8)
	cfg.GroupBase = netsim.MustParseIP("239.0.0.0")
	cfg.HeartbeatEvery = ms(100)
	cfg.LoadBalance = lb
	cfg.ClientSpace = netsim.MustParsePrefix("192.168.0.0/16")
	rg.svc = New(rg.meta, NewFabric(dp), cfg, addrs)
	rg.svc.Start()

	// Fake node loops: heartbeat + record control messages.
	for i, fn := range rg.nodes {
		i, fn := i, fn
		s.Spawn("hb", func(p *sim.Proc) {
			hb := fn.stack.MustBindUDP(0)
			for {
				p.Sleep(ms(100))
				if fn.beat {
					hb.SendTo(rg.meta.IP(), cfg.CtrlPort, &Heartbeat{Node: i}, 64)
				}
			}
		})
		s.Spawn("ctrl", func(p *sim.Proc) {
			for {
				d, ok := fn.ctrl.Recv(p)
				if !ok {
					return
				}
				fn.msgs = append(fn.msgs, d.Data)
				if rg.onMsg != nil {
					rg.onMsg(i, d.Data)
				}
			}
		})
	}
	return rg
}

func (rg *rig) runUntil(t *testing.T, at sim.Time) {
	t.Helper()
	if err := rg.s.RunUntil(at); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapInstallsRules(t *testing.T) {
	rg := newRig(t, 5, 3, false)
	rg.runUntil(t, ms(10))
	// Per partition: 1 unicast + 1 multicast mapping + 1 group-direct.
	// Plus one phys rule per host (5 nodes + meta).
	tbl := rg.dp.Table()
	wantMin := 5*3 + 6
	if tbl.Len() < wantMin {
		t.Fatalf("table has %d entries, want >= %d", tbl.Len(), wantMin)
	}
	if rg.dp.Groups().Len() != 5 {
		t.Fatalf("groups = %d, want 5", rg.dp.Groups().Len())
	}
	// §4.6: without LB each partition costs 2 mapping entries.
	if got := rg.svc.Stats().RulesPerPart; got != 2 {
		t.Fatalf("RulesPerPart = %d, want 2", got)
	}
	rg.s.Shutdown()
}

func TestSwitchScalabilityWithLB(t *testing.T) {
	rg := newRig(t, 5, 3, true)
	rg.runUntil(t, ms(10))
	// §4.6: with LB, R+1 entries per partition (R unicast divisions + 1
	// default unicast... the paper counts R per partition for the unicast
	// ring plus 1 multicast). Our implementation keeps the default
	// primary rule as well: R+2 mapping entries.
	if got := rg.svc.Stats().RulesPerPart; got != 3+2 {
		t.Fatalf("RulesPerPart = %d, want 5", got)
	}
	rg.s.Shutdown()
}

func TestUnicastVRingRouting(t *testing.T) {
	rg := newRig(t, 5, 3, false)
	// A client behind the switch sends a UDP request to a vnode address;
	// the primary of that partition must receive it rewritten.
	client := rg.net.NewHost("client", netsim.MustParseIP("192.168.0.1"))
	rg.net.Connect(client.Port(), rg.dp.Switch().Port(6), netsim.Gbps(1, us(5)))
	cst := transport.NewStack(client)

	key := "object-x"
	part := ring.NewSpace(5).PartitionOf(key)
	primary := rg.svc.View(part).Primary()

	got := make(map[int]int)
	for i, fn := range rg.nodes {
		i, fn := i, fn
		sock := fn.stack.MustBindUDP(dataPort)
		rg.s.Spawn("data", func(p *sim.Proc) {
			for {
				if _, ok := sock.Recv(p); !ok {
					return
				}
				got[i]++
			}
		})
	}
	rg.s.At(ms(5), func() {
		sock := cst.MustBindUDP(0)
		vaddr := rg.svc.cfg.Unicast.AddrOfKey(key)
		sock.SendTo(vaddr, dataPort, "get", 32)
	})
	rg.runUntil(t, ms(50))
	if got[primary.Index] != 1 {
		t.Fatalf("primary %d received %d requests (map %v)", primary.Index, got[primary.Index], got)
	}
	for i, n := range got {
		if i != primary.Index && n != 0 {
			t.Fatalf("non-primary %d received traffic", i)
		}
	}
	rg.s.Shutdown()
}

func TestLoadBalancingDivisions(t *testing.T) {
	rg := newRig(t, 5, 3, true)
	key := "hot"
	part := ring.NewSpace(5).PartitionOf(key)
	view := rg.svc.View(part)
	vaddr := rg.svc.cfg.Unicast.AddrOfKey(key)

	got := make(map[int]int)
	for i, fn := range rg.nodes {
		i, fn := i, fn
		sock := fn.stack.MustBindUDP(dataPort)
		rg.s.Spawn("data", func(p *sim.Proc) {
			for {
				if _, ok := sock.Recv(p); !ok {
					return
				}
				got[i]++
			}
		})
	}
	// Three clients in different divisions of 192.168.0.0/16 (R=3 ->
	// 4 divisions of /18).
	for d := 0; d < 3; d++ {
		ip := netsim.IPv4(192, 168, byte(d*64), 1)
		h := rg.net.NewHost("client", ip)
		port := 6 + d
		rg.net.Connect(h.Port(), rg.dp.Switch().Port(port), netsim.Gbps(1, us(5)))
		st := transport.NewStack(h)
		rg.s.At(ms(5), func() {
			st.MustBindUDP(0).SendTo(vaddr, dataPort, "get", 32)
		})
	}
	rg.runUntil(t, ms(50))
	// Each replica must have received exactly one request.
	for _, r := range view.Replicas {
		if got[r.Index] != 1 {
			t.Fatalf("replica %d got %d requests (%v)", r.Index, got[r.Index], got)
		}
	}
	rg.s.Shutdown()
}

func TestHeartbeatFailureDetectionAndHandoff(t *testing.T) {
	rg := newRig(t, 5, 3, false)
	victim := 1
	rg.s.At(ms(300), func() {
		rg.nodes[victim].beat = false
		rg.nodes[victim].stack.Host().SetDown(true)
	})
	rg.runUntil(t, ms(1200)) // > 3 missed heartbeats after 300ms
	st := rg.svc.Stats()
	if st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
	// Every partition that node 1 served must have replaced it.
	for p := 0; p < 5; p++ {
		v := rg.svc.View(p)
		if v.HasReplica(victim) {
			t.Fatalf("partition %d still lists failed node", p)
		}
		if rg.svc.cfg.Placement.IsReplica(p, victim) {
			if v.Handoff == nil {
				t.Fatalf("partition %d has no handoff", p)
			}
			if len(v.Replicas) != 3 {
				t.Fatalf("partition %d has %d replicas", p, len(v.Replicas))
			}
		}
	}
	// Partition victim (primary's own partition) must have promoted a
	// secondary.
	v := rg.svc.View(victim)
	if v.Primary().Index == victim {
		t.Fatal("failed primary not replaced")
	}
	rg.s.Shutdown()
}

func TestPeerReportTriggersImmediateFailure(t *testing.T) {
	rg := newRig(t, 5, 3, false)
	// The suspect stops heartbeating at 100ms; a peer report lands once
	// its heartbeat is stale (one period), well before the detector's
	// three-period deadline.
	rg.s.At(ms(100), func() {
		rg.nodes[2].beat = false
		rg.nodes[2].stack.Host().SetDown(true)
	})
	rg.s.At(ms(320), func() {
		sock := rg.nodes[0].stack.MustBindUDP(0)
		sock.SendTo(rg.meta.IP(), rg.svc.cfg.CtrlPort, &FailureReport{Reporter: 0, Suspect: 2}, 64)
	})
	rg.runUntil(t, ms(360))
	if rg.svc.Stats().Failures != 1 || rg.svc.nodes[2].status != nodeDown {
		t.Fatalf("suspect not failed: %+v", rg.svc.Stats())
	}
	rg.s.Shutdown()
}

func TestPeerReportAgainstFreshNodeIgnored(t *testing.T) {
	rg := newRig(t, 5, 3, false)
	rg.s.At(ms(250), func() {
		sock := rg.nodes[0].stack.MustBindUDP(0)
		sock.SendTo(rg.meta.IP(), rg.svc.cfg.CtrlPort, &FailureReport{Reporter: 0, Suspect: 2}, 64)
	})
	rg.runUntil(t, ms(300))
	if rg.svc.Stats().Failures != 0 {
		t.Fatalf("fresh node was failed on a stale report: %+v", rg.svc.Stats())
	}
	rg.s.Shutdown()
}

func TestRejoinTwoPhases(t *testing.T) {
	rg := newRig(t, 5, 3, false)
	victim := 2
	rg.s.At(ms(200), func() {
		rg.nodes[victim].beat = false
		rg.nodes[victim].stack.Host().SetDown(true)
	})
	rg.runUntil(t, ms(1200))
	if rg.svc.nodes[victim].status != nodeDown {
		t.Fatal("victim not failed")
	}

	// Phase 1: rejoin -> put-visible (Recovering on its home partitions).
	rg.s.At(ms(1250), func() {
		rg.nodes[victim].stack.Host().SetDown(false)
		rg.nodes[victim].beat = true
		sock := rg.nodes[victim].stack.MustBindUDP(0)
		sock.SendTo(rg.meta.IP(), rg.svc.cfg.CtrlPort, &RejoinRequest{Node: victim}, 64)
	})
	rg.runUntil(t, ms(1400))
	if rg.svc.nodes[victim].status != nodeRecovering {
		t.Fatal("victim not recovering after rejoin")
	}
	home := rg.svc.homePartitions(victim)
	for _, p := range home {
		v := rg.svc.View(p)
		if !v.IsRecovering(victim) {
			t.Fatalf("partition %d missing recovering node", p)
		}
		if v.HasReplica(victim) {
			t.Fatalf("partition %d made node get-visible too early", p)
		}
	}
	// The rejoining node must have been told where the handoff data is.
	var info *RejoinInfo
	for _, m := range rg.nodes[victim].msgs {
		if ri, ok := m.(*RejoinInfo); ok {
			info = ri
		}
	}
	if info == nil || len(info.Views) != len(home) {
		t.Fatalf("RejoinInfo = %+v", info)
	}

	// Phase 2: consistent -> get-visible, handoff released.
	rg.s.After(ms(10), func() {
		sock := rg.nodes[victim].stack.MustBindUDP(0)
		sock.SendTo(rg.meta.IP(), rg.svc.cfg.CtrlPort, &ConsistentNotice{Node: victim}, 64)
	})
	rg.runUntil(t, ms(1600))
	if rg.svc.nodes[victim].status != nodeUp {
		t.Fatal("victim not up after consistent notice")
	}
	for _, p := range home {
		v := rg.svc.View(p)
		if !v.HasReplica(victim) || v.Handoff != nil || v.Recovering != nil {
			t.Fatalf("partition %d not restored: %+v", p, v)
		}
	}
	rg.s.Shutdown()
}

func TestMembershipMessageScalability(t *testing.T) {
	// The paper's claim (§4.1): a membership change costs O(S) switch
	// updates and O(R) node messages, independent of N.
	msgsFor := func(n int) int64 {
		rg := newRig(t, n, 3, false)
		rg.runUntil(t, ms(200))
		before := rg.svc.Stats().NodeMsgs
		rg.s.After(0, func() {
			rg.nodes[1].beat = false
			rg.nodes[1].stack.Host().SetDown(true)
		})
		rg.runUntil(t, ms(800)) // heartbeat detector fires the failure
		if rg.svc.Stats().Failures != 1 {
			t.Fatalf("failure not detected (N=%d)", n)
		}
		after := rg.svc.Stats().NodeMsgs
		rg.s.Shutdown()
		return after - before
	}
	small := msgsFor(5)
	large := msgsFor(20)
	if small == 0 {
		t.Fatal("no membership messages recorded")
	}
	if large != small {
		t.Fatalf("membership cost grew with N: %d (N=5) vs %d (N=20)", small, large)
	}
}

func TestLearningSwitchARPPath(t *testing.T) {
	rg := newRig(t, 3, 2, false)
	// A client the controller has never seen; replies to it require ARP
	// learning.
	client := rg.net.NewHost("stranger", netsim.MustParseIP("192.168.5.5"))
	rg.net.Connect(client.Port(), rg.dp.Switch().Port(7), netsim.Gbps(1, us(5)))
	cst := transport.NewStack(client)
	csock := cst.MustBindUDP(4000)

	delivered := false
	rg.s.Spawn("client", func(p *sim.Proc) {
		if _, ok := csock.RecvTimeout(p, ms(500)); ok {
			delivered = true
		}
	})
	// A storage node sends to the unknown client: first packet misses,
	// controller ARPs, learns, flushes.
	rg.s.At(ms(5), func() {
		sock := rg.nodes[0].stack.MustBindUDP(0)
		sock.SendTo(client.IP(), 4000, "reply", 100)
	})
	rg.runUntil(t, ms(600))
	if !delivered {
		t.Fatal("packet to unknown host was not delivered via ARP learning")
	}
	// And the rule is now installed: a second packet flows without the
	// controller.
	ins := rg.dp.Stats().PacketIns
	delivered = false
	rg.s.Spawn("client2", func(p *sim.Proc) {
		if _, ok := csock.RecvTimeout(p, ms(500)); ok {
			delivered = true
		}
	})
	rg.s.After(0, func() {
		sock := rg.nodes[1].stack.MustBindUDP(0)
		sock.SendTo(client.IP(), 4000, "again", 100)
	})
	rg.runUntil(t, rg.s.Now()+ms(600))
	if !delivered {
		t.Fatal("second packet not delivered")
	}
	if rg.dp.Stats().PacketIns > ins {
		t.Fatal("second packet still punted to controller")
	}
	rg.s.Shutdown()
}

func TestDivisionsMath(t *testing.T) {
	rg := newRig(t, 4, 3, true)
	divs := rg.svc.divisionsN(3)
	if len(divs) != 3 {
		t.Fatalf("got %d divisions", len(divs))
	}
	// 3 replicas -> 4 divisions of /18 each; we take the first three.
	for i, want := range []string{"192.168.0.0/18", "192.168.64.0/18", "192.168.128.0/18"} {
		if divs[i].String() != want {
			t.Fatalf("division %d = %s, want %s", i, divs[i], want)
		}
	}
	rg.s.Shutdown()
}

func TestDynamicLBRebalancesHotDivisions(t *testing.T) {
	// §8 future-work extension: two hot client divisions that the static
	// round-robin binds to the same replica get separated by the
	// counter-driven rebalancer.
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	sw := nw.NewSwitch("core", 16, us(2))
	dp := openflow.Attach(sw, us(50))

	metaHost := nw.NewHost("meta", netsim.MustParseIP("10.0.0.100"))
	nw.Connect(metaHost.Port(), sw.Port(8), netsim.Gbps(1, us(5)))
	meta := transport.NewStack(metaHost)

	var addrs []NodeAddr
	var stacks []*transport.Stack
	for i := 0; i < 3; i++ {
		h := nw.NewHost("node", netsim.IPv4(10, 0, 0, byte(i+1)))
		nw.Connect(h.Port(), sw.Port(i), netsim.Gbps(1, us(5)))
		st := transport.NewStack(h)
		st.MustBindUDP(dataPort)
		stacks = append(stacks, st)
		addrs = append(addrs, NodeAddr{Index: i, IP: h.IP(), MAC: h.MAC(), DataPort: dataPort, CtrlPort: nodeCtrl})
	}

	cfg := DefaultConfig()
	cfg.Placement = ring.NewPlacement(3, 3)
	cfg.Unicast = ring.MustVRing(netsim.MustParsePrefix("10.10.0.0/16"), 3, 8)
	cfg.Multicast = ring.MustVRing(netsim.MustParsePrefix("10.11.0.0/16"), 3, 8)
	cfg.GroupBase = netsim.MustParseIP("239.0.0.0")
	cfg.HeartbeatEvery = ms(100)
	cfg.LoadBalance = true
	cfg.DynamicLB = true
	cfg.ClientSpace = netsim.MustParsePrefix("192.168.0.0/16")
	svc := New(meta, NewFabric(dp), cfg, addrs)
	svc.Start()
	// Keep heartbeats flowing so the detector stays quiet.
	for i := range addrs {
		i := i
		s.Spawn("hb", func(p *sim.Proc) {
			hb := stacks[i].MustBindUDP(0)
			for {
				p.Sleep(ms(100))
				hb.SendTo(meta.IP(), cfg.CtrlPort, &Heartbeat{Node: i}, 64)
			}
		})
	}

	// Dynamic mode uses 8 divisions over 192.168.0.0/16 (/19 each); the
	// default round-robin maps divisions {0,3,6} to replica slot 0.
	// Put hot clients in divisions 0 and 3: both initially hammer the
	// same replica, each with twice the gets per rebalance period the
	// rebalancer needs before it acts.
	key := "hot"
	part := ring.NewSpace(3).PartitionOf(key)
	vaddr := cfg.Unicast.AddrOfKey(key)
	for ci, div := range []int{0, 3} {
		ip := netsim.IPv4(192, 168, byte(div*32), 1) // /19 divisions
		h := nw.NewHost("client", ip)
		port := 10 + ci
		nw.Connect(h.Port(), sw.Port(port), netsim.Gbps(1, us(5)))
		st := transport.NewStack(h)
		s.Spawn("getter", func(p *sim.Proc) {
			sock := st.MustBindUDP(0)
			for {
				sock.SendTo(vaddr, dataPort, "get", 32)
				p.Sleep(RebalanceEvery / (2 * RebalanceMinOps))
			}
		})
	}

	if err := s.RunUntil(RebalanceEvery - ms(50)); err != nil {
		t.Fatal(err)
	}
	// Before the first rebalance both hot divisions share a replica.
	initial := svc.divisionAssignment(part, 8, 3)
	if initial[0] != initial[3] {
		t.Fatalf("precondition: divisions 0 and 3 should start colocated: %v", initial)
	}
	if err := s.RunUntil(2*RebalanceEvery + ms(100)); err != nil {
		t.Fatal(err)
	}
	got := svc.LBAssignment(part)
	if got == nil {
		t.Fatal("rebalancer never ran")
	}
	if got[0] == got[3] {
		t.Fatalf("hot divisions 0 and 3 still share replica slot: %v", got)
	}
	if svc.Stats().Rebalances == 0 || svc.Stats().StatsPolls == 0 {
		t.Fatalf("stats not recorded: %+v", svc.Stats())
	}
	s.Shutdown()
}

// TestPuntedVnodePacketReinstallsItsPartition: a packet to a vnode
// address whose partition has no rules on the switch (a collapsed
// partition, a rebooted switch) misses the table and punts; the
// controller re-installs the partition's mapping and forwards the packet
// to the primary itself, and the next packet rides the restored rules.
func TestPuntedVnodePacketReinstallsItsPartition(t *testing.T) {
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	sw := nw.NewSwitch("core", 8, us(2))
	dp := openflow.Attach(sw, us(50))

	metaHost := nw.NewHost("meta", netsim.MustParseIP("10.0.0.100"))
	nw.Connect(metaHost.Port(), sw.Port(4), netsim.Gbps(1, us(5)))
	meta := transport.NewStack(metaHost)

	var addrs []NodeAddr
	var nodeSocks []*transport.UDPSocket
	for i := 0; i < 3; i++ {
		h := nw.NewHost("node", netsim.IPv4(10, 0, 0, byte(i+1)))
		nw.Connect(h.Port(), sw.Port(i), netsim.Gbps(1, us(5)))
		st := transport.NewStack(h)
		nodeSocks = append(nodeSocks, st.MustBindUDP(dataPort))
		addrs = append(addrs, NodeAddr{Index: i, IP: h.IP(), MAC: h.MAC(), DataPort: dataPort, CtrlPort: nodeCtrl})
	}
	client := nw.NewHost("client", netsim.MustParseIP("192.168.0.1"))
	nw.Connect(client.Port(), sw.Port(5), netsim.Gbps(1, us(5)))
	cst := transport.NewStack(client)

	cfg := DefaultConfig()
	cfg.Placement = ring.NewPlacement(3, 2)
	cfg.Unicast = ring.MustVRing(netsim.MustParsePrefix("10.10.0.0/16"), 3, 8)
	cfg.Multicast = ring.MustVRing(netsim.MustParsePrefix("10.11.0.0/16"), 3, 8)
	cfg.GroupBase = netsim.MustParseIP("239.0.0.0")
	svc := New(meta, NewFabric(dp), cfg, addrs)
	svc.Start()

	key := "punted-object"
	part := ring.NewSpace(3).PartitionOf(key)
	vaddr := cfg.Unicast.AddrOfKey(key)
	primary := svc.View(part).Primary()
	uni, mc := fmt.Sprintf("uni-p%d.", part), fmt.Sprintf("mc-p%d.", part)
	countVring := func() int {
		n := 0
		for _, e := range dp.Table().Entries() {
			if strings.HasPrefix(e.Cookie, uni) || strings.HasPrefix(e.Cookie, mc) {
				n++
			}
		}
		return n
	}
	got := 0
	for i := range nodeSocks {
		i := i
		sock := nodeSocks[i]
		s.Spawn("node", func(p *sim.Proc) {
			for {
				if _, ok := sock.Recv(p); !ok {
					return
				}
				if i == primary.Index {
					got++
				}
			}
		})
	}

	if err := s.RunUntil(ms(10)); err != nil {
		t.Fatal(err)
	}
	installed := countVring()
	if installed == 0 {
		t.Fatalf("bootstrap installed no vring rules for partition %d", part)
	}
	dp.RemoveCookie(uni)
	dp.RemoveCookie(mc)
	if err := s.RunUntil(ms(11)); err != nil {
		t.Fatal(err)
	}
	if n := countVring(); n != 0 {
		t.Fatalf("%d vring rules for partition %d survive their removal", n, part)
	}
	// First packet: misses, punts, is forwarded to the primary by the
	// controller, and brings the partition's rules back.
	ins := dp.Stats().PacketIns
	csock := cst.MustBindUDP(0)
	s.After(0, func() { csock.SendTo(vaddr, dataPort, "get1", 32) })
	if err := s.RunUntil(ms(20)); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("punted packet not delivered to the primary (got=%d)", got)
	}
	if dp.Stats().PacketIns != ins+1 {
		t.Fatalf("PacketIns = %d, want %d: the first packet must punt", dp.Stats().PacketIns, ins+1)
	}
	if n := countVring(); n != installed {
		t.Fatalf("%d vring rules for partition %d after the punt, want the %d bootstrap installed", n, part, installed)
	}
	// Second packet: flows through the reinstalled rule.
	s.After(0, func() { csock.SendTo(vaddr, dataPort, "get2", 32) })
	if err := s.RunUntil(ms(40)); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("second packet not delivered (got=%d)", got)
	}
	if dp.Stats().PacketIns != ins+1 {
		t.Fatal("second packet still punted")
	}
	s.Shutdown()
}

// TestViewMessagesWaitForTheSwitch: with every flow and group mod held
// 5 ms on the control channel, no node receives a view-bearing message —
// a failure's PartitionUpdate and HandoffAssign, a rejoiner's RejoinInfo,
// the views that complete its recovery and release the stand-in — before
// the switch applied the view: the partition's unicast mapping already
// rewrites to the view's primary and its group already fans out to
// exactly the view's put participants.
func TestViewMessagesWaitForTheSwitch(t *testing.T) {
	rg := newRig(t, 5, 3, false)
	rg.runUntil(t, ms(50))
	rg.dp.SetControlFault(ms(5), 0)
	applied := func(v *PartitionView) bool {
		primary := false
		for _, e := range rg.dp.Table().Entries() {
			if e.Cookie != fmt.Sprintf("uni-p%d.", v.Partition) {
				continue
			}
			for _, a := range e.Actions {
				if set, ok := a.(openflow.SetDstIP); ok && set.IP == v.Primary().IP {
					primary = true
				}
			}
		}
		g, ok := rg.dp.Groups().Get(openflow.GroupID(v.Partition * 64))
		if !ok || !primary {
			return false
		}
		ports := make(map[int]bool)
		for _, b := range g.Buckets {
			ports[b.Actions[0].(openflow.Output).Port] = true
		}
		for _, r := range v.PutParticipants() {
			if !ports[r.Index] { // node i is cabled to switch port i
				return false
			}
		}
		return len(ports) == len(v.PutParticipants())
	}
	seen := make(map[string]int)
	rg.onMsg = func(i int, m any) {
		var views []*PartitionView
		switch m := m.(type) {
		case *PartitionUpdate:
			views = []*PartitionView{m.View}
		case *HandoffAssign:
			views = []*PartitionView{m.View}
		case *RejoinInfo:
			views = m.Views
		default:
			return
		}
		name := fmt.Sprintf("%T", m)
		seen[name]++
		for _, v := range views {
			if !applied(v) {
				t.Errorf("%v: node %d received %s for partition %d epoch %d before the switch applied it",
					rg.s.Now(), i, name, v.Partition, v.Epoch)
			}
		}
	}
	victim := 2
	rg.s.At(ms(200), func() {
		rg.nodes[victim].beat = false
		rg.nodes[victim].stack.Host().SetDown(true)
	})
	rg.s.At(ms(1250), func() {
		rg.nodes[victim].stack.Host().SetDown(false)
		rg.nodes[victim].beat = true
		sock := rg.nodes[victim].stack.MustBindUDP(0)
		sock.SendTo(rg.meta.IP(), rg.svc.cfg.CtrlPort, &RejoinRequest{Node: victim}, 64)
	})
	rg.s.At(ms(1400), func() {
		sock := rg.nodes[victim].stack.MustBindUDP(0)
		sock.SendTo(rg.meta.IP(), rg.svc.cfg.CtrlPort, &ConsistentNotice{Node: victim}, 64)
	})
	rg.runUntil(t, ms(1600))
	for _, name := range []string{"*controller.PartitionUpdate", "*controller.HandoffAssign", "*controller.RejoinInfo"} {
		if seen[name] == 0 {
			t.Errorf("no %s received", name)
		}
	}
	if rg.svc.nodes[victim].status != nodeUp {
		t.Fatal("victim did not recover")
	}
	rg.s.Shutdown()
}
