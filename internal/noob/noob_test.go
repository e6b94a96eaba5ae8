package noob

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

// wire builds n hosts behind a static L3 switch.
func wire(t *testing.T, n int) (*sim.Simulator, []*transport.Stack) {
	t.Helper()
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	sw := nw.NewSwitch("sw", n, time.Microsecond)
	ports := make(map[netsim.IP]int)
	macs := make(map[netsim.IP]netsim.MAC)
	var stacks []*transport.Stack
	for i := 0; i < n; i++ {
		h := nw.NewHost("h", netsim.IPv4(10, 0, 0, byte(i+1)))
		nw.Connect(h.Port(), sw.Port(i), netsim.Gbps(1, 0))
		ports[h.IP()] = i
		macs[h.IP()] = h.MAC()
		stacks = append(stacks, transport.NewStack(h))
	}
	sw.SetPipeline(netsim.PipelineFunc(func(sw *netsim.Switch, pkt *netsim.Packet, in int) {
		if port, ok := ports[pkt.DstIP]; ok {
			c := pkt.Clone()
			c.DstMAC = macs[pkt.DstIP]
			sw.Output(port, c)
			return
		}
		sw.Drop(pkt)
	}))
	return s, stacks
}

func TestRPCRequestReply(t *testing.T) {
	s, stacks := wire(t, 2)
	srv, cli := stacks[0], stacks[1]
	ln := srv.MustListen(7000)
	serveRPC(srv, ln, func(p *sim.Proc, body any) (any, int) {
		return body.(int) * 2, 64
	})
	var results []int
	s.Spawn("client", func(p *sim.Proc) {
		pool := newRPCPool(cli)
		to := Addr{IP: srv.IP(), Port: 7000}
		for i := 1; i <= 5; i++ {
			resp, ok := pool.Call(p, to, i, 64)
			if !ok {
				t.Error("call failed")
				return
			}
			results = append(results, resp.(int))
		}
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != (i+1)*2 {
			t.Fatalf("results = %v", results)
		}
	}
	s.Shutdown()
}

func TestRPCConcurrentCallersMultiplexOneConn(t *testing.T) {
	s, stacks := wire(t, 2)
	srv, cli := stacks[0], stacks[1]
	ln := srv.MustListen(7000)
	serveRPC(srv, ln, func(p *sim.Proc, body any) (any, int) {
		// Variable service time: responses complete out of order.
		d := time.Duration(10-body.(int)) * time.Millisecond
		p.Sleep(d)
		return body.(int) + 100, 64
	})
	pool := newRPCPool(cli)
	to := Addr{IP: srv.IP(), Port: 7000}
	results := make([]int, 5)
	g := sim.NewGroup(s)
	for i := 0; i < 5; i++ {
		i := i
		g.Add(1)
		s.Spawn(fmt.Sprintf("caller%d", i), func(p *sim.Proc) {
			defer g.Done()
			resp, ok := pool.Call(p, to, i, 64)
			if !ok {
				t.Errorf("caller %d failed", i)
				return
			}
			results[i] = resp.(int)
		})
	}
	s.Spawn("join", func(p *sim.Proc) { g.Wait(p); s.Stop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i+100 {
			t.Fatalf("response %d = %d (mismatched mux?)", i, v)
		}
	}
	s.Shutdown()
}

func TestRPCCallToDeadPeerFails(t *testing.T) {
	s, stacks := wire(t, 2)
	srv, cli := stacks[0], stacks[1]
	srv.Host().SetDown(true)
	var ok bool
	s.Spawn("client", func(p *sim.Proc) {
		pool := newRPCPool(cli)
		_, ok = pool.Call(p, Addr{IP: srv.IP(), Port: 7000}, 1, 64)
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("call to dead peer succeeded")
	}
	s.Shutdown()
}

// TestRPCFailWakesCallersOldestFirst: when a peer dies its pending
// callers are woken in call order, never the pending map's — they go on
// to retry or report, so their order is the simulation's. Two
// identically driven peers wake their callers alike.
func TestRPCFailWakesCallersOldestFirst(t *testing.T) {
	const callers = 8
	drive := func() []int {
		s, stacks := wire(t, 2)
		defer s.Shutdown()
		srv, cli := stacks[0], stacks[1]
		srv.Host().SetDown(true) // the dial times out under the queued calls
		peer := newRPCPeer(cli, Addr{IP: srv.IP(), Port: 7000})
		var woken []int
		for i := 0; i < callers; i++ {
			s.Spawn(fmt.Sprintf("caller%d", i), func(p *sim.Proc) {
				if _, ok := peer.Call(p, i, 64); ok {
					t.Errorf("caller %d: call to a dead peer succeeded", i)
				}
				woken = append(woken, i)
			})
		}
		if err := s.RunUntil(rpcTimeout / 2); err != nil { // woken by fail, not by their own timeouts
			t.Fatal(err)
		}
		return woken
	}
	first, second := drive(), drive()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("identically driven peers woke callers in different orders:\n  %v\n  %v", first, second)
	}
	if len(first) != callers || !sort.IntsAreSorted(first) {
		t.Fatalf("callers woke in order %v, want all %d oldest first", first, callers)
	}
}

func TestGatewayTargetSelection(t *testing.T) {
	s, stacks := wire(t, 4)
	var nodes []Addr
	for i := 0; i < 3; i++ {
		nodes = append(nodes, Addr{Index: i, IP: stacks[i].IP(), Port: 7000})
	}
	placement := ring.NewPlacement(3, 2)
	space := ring.NewSpace(3)
	gw := NewGateway(stacks[3], GatewayConfig{
		Self:      Addr{IP: stacks[3].IP(), Port: 7000},
		Nodes:     nodes,
		Placement: placement,
		Space:     space,
		Mode:      RAG,
		Gets:      GetRoundRobin,
	})
	key := "k"
	part := space.PartitionOf(key)
	primary := placement.Primary(part)
	// Puts always go to the primary.
	for i := 0; i < 5; i++ {
		if got := gw.target(key, false); got.Index != primary {
			t.Fatalf("put target = %d, want primary %d", got.Index, primary)
		}
	}
	// Round-robin gets cycle through both replicas.
	seen := map[int]int{}
	for i := 0; i < 6; i++ {
		seen[gw.target(key, true).Index]++
	}
	reps := placement.Replicas(part)
	for _, r := range reps {
		if seen[r] != 3 {
			t.Fatalf("round robin uneven: %v", seen)
		}
	}
	// ROG ignores placement entirely (random); just ensure it picks a
	// valid node.
	gw.cfg.Mode = ROG
	for i := 0; i < 10; i++ {
		got := gw.target(key, true)
		if got.Index < 0 || got.Index >= 3 {
			t.Fatalf("ROG picked invalid node %d", got.Index)
		}
	}
	_ = s
	s.Shutdown()
}

func TestMembershipBroadcastCount(t *testing.T) {
	s, stacks := wire(t, 4)
	var nodes []Addr
	for i := 0; i < 3; i++ {
		nodes = append(nodes, Addr{Index: i, IP: stacks[i].IP(), Port: 7000})
	}
	m := NewMembership(stacks[3], nodes)
	m.BroadcastChange([]int{0})
	m.BroadcastChange([]int{1})
	if m.MsgsSent() != 6 {
		t.Fatalf("MsgsSent = %d, want 6", m.MsgsSent())
	}
	s.Shutdown()
}

func TestGossipDisseminatesToAllMembers(t *testing.T) {
	for _, n := range []int{8, 32} {
		s, stacks := wire(t, n)
		var ips []netsim.IP
		for _, st := range stacks {
			ips = append(ips, st.IP())
		}
		var members []*GossipMember
		for i, st := range stacks {
			g := NewGossipMember(st, i, ips, 7100)
			g.Start()
			members = append(members, g)
		}
		members[0].Announce([]int{3})
		if err := s.RunUntil(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		infected := 0
		var total int64
		for _, g := range members {
			if g.Epoch() >= 1 {
				infected++
			}
			total += g.MsgsSent()
		}
		if infected != n {
			t.Fatalf("N=%d: only %d/%d members learned the rumor", n, infected, n)
		}
		// O(N log N)-ish messages: far more than the broadcast's N but
		// bounded (each member forwards at most 2*fanout*log2(N) rumors).
		bound := int64(n * 2 * 2 * (log2ceil(n) + 1))
		if total > bound {
			t.Fatalf("N=%d: %d gossip messages exceeds bound %d", n, total, bound)
		}
		s.Shutdown()
	}
}

func TestGossipStaleRumorsDie(t *testing.T) {
	s, stacks := wire(t, 4)
	var ips []netsim.IP
	for _, st := range stacks {
		ips = append(ips, st.IP())
	}
	var members []*GossipMember
	for i, st := range stacks {
		g := NewGossipMember(st, i, ips, 7100)
		g.Start()
		members = append(members, g)
	}
	members[0].Announce([]int{1})
	if err := s.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	quiesced := make([]int64, 4)
	for i, g := range members {
		quiesced[i] = g.MsgsSent()
	}
	// With no new rumor, no further messages flow.
	if err := s.RunUntil(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, g := range members {
		if g.MsgsSent() != quiesced[i] {
			t.Fatalf("member %d kept gossiping a settled rumor", i)
		}
	}
	s.Shutdown()
}
