package transport

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * time.Millisecond }
func us(n int) sim.Time { return sim.Time(n) * time.Microsecond }

// hub is a test fabric: a single switch statically routing by IP, with
// optional multicast groups fanning out to subscribed hosts.
type hub struct {
	s      *sim.Simulator
	net    *netsim.Network
	sw     *netsim.Switch
	ports  map[netsim.IP]int
	groups map[netsim.IP][]int
	stacks []*Stack
	// drop, when set, loses the packets it returns true for at the switch.
	drop func(*netsim.Packet) bool
}

func newHub(t *testing.T, n int, cfg netsim.LinkConfig) *hub {
	t.Helper()
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	h := &hub{
		s:      s,
		net:    nw,
		sw:     nw.NewSwitch("hub", n, us(2)),
		ports:  make(map[netsim.IP]int),
		groups: make(map[netsim.IP][]int),
	}
	for i := 0; i < n; i++ {
		host := nw.NewHost("h", netsim.IPv4(10, 0, 0, byte(i+1)))
		nw.Connect(host.Port(), h.sw.Port(i), cfg)
		h.ports[host.IP()] = i
		h.stacks = append(h.stacks, NewStack(host))
	}
	h.sw.SetPipeline(netsim.PipelineFunc(func(sw *netsim.Switch, pkt *netsim.Packet, inPort int) {
		if h.drop != nil && h.drop(pkt) {
			sw.Drop(pkt)
			return
		}
		// Pooled copies, and the original back to the pool, so the fabric
		// itself allocates nothing per packet (the allocation tests below
		// measure whole runs).
		if outs, ok := h.groups[pkt.DstIP]; ok {
			for _, o := range outs {
				c := nw.ClonePacket(pkt)
				c.DstMAC = netsim.BroadcastMAC
				sw.Output(o, c)
			}
			nw.RecyclePacket(pkt)
			return
		}
		if o, ok := h.ports[pkt.DstIP]; ok {
			pkt.DstMAC = h.host(o).MAC()
			sw.Output(o, pkt)
			return
		}
		sw.Drop(pkt)
	}))
	return h
}

func (h *hub) host(i int) *netsim.Host { return h.net.Hosts()[i] }

func (h *hub) run(t *testing.T) {
	t.Helper()
	if err := h.s.Run(); err != nil {
		t.Fatal(err)
	}
	h.s.Shutdown()
}

func TestUDPRoundTrip(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	a, b := h.stacks[0], h.stacks[1]
	srv := b.MustBindUDP(7000)
	done := false
	h.s.Spawn("server", func(p *sim.Proc) {
		d, ok := srv.Recv(p)
		if !ok {
			t.Error("recv failed")
			return
		}
		if d.Data.(string) != "ping" || d.From != a.IP() {
			t.Errorf("got %v from %v", d.Data, d.From)
		}
		// Reply to the sender's ephemeral port.
		reply := b.MustBindUDP(0)
		reply.SendTo(d.From, d.FromPort, "pong", 4)
	})
	h.s.Spawn("client", func(p *sim.Proc) {
		sock := a.MustBindUDP(0)
		sock.SendTo(b.IP(), 7000, "ping", 4)
		d, ok := sock.RecvTimeout(p, ms(100))
		if !ok || d.Data.(string) != "pong" {
			t.Errorf("no pong: %v %v", d, ok)
			return
		}
		done = true
	})
	h.run(t)
	if !done {
		t.Fatal("round trip incomplete")
	}
}

func TestUDPOversizePanics(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, 0))
	sock := h.stacks[0].MustBindUDP(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for datagram above MTU")
		}
	}()
	sock.SendTo(h.stacks[1].IP(), 1, nil, MTU+1)
}

func TestUDPPortConflict(t *testing.T) {
	h := newHub(t, 1, netsim.Gbps(1, 0))
	h.stacks[0].MustBindUDP(9)
	if _, err := h.stacks[0].BindUDP(9); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}

// TestPortInUseNamesThePort: every kind of socket reports a second bind
// of its port the same way — which port, on which host — not as a closed
// endpoint.
func TestPortInUseNamesThePort(t *testing.T) {
	st := newHub(t, 1, netsim.Gbps(1, 0)).stacks[0]
	binds := map[string]func() error{
		"UDP":       func() error { _, err := st.BindUDP(9); return err },
		"stream":    func() error { _, err := st.Listen(9); return err },
		"multicast": func() error { _, err := st.BindMulticast(9); return err },
	}
	for kind, bind := range binds {
		if err := bind(); err != nil {
			t.Fatalf("first %s bind: %v", kind, err)
		}
		want := "transport: " + kind + " port 9 in use on h"
		if err := bind(); err == nil || err.Error() != want {
			t.Errorf("second %s bind: err = %v, want %q", kind, err, want)
		}
	}
}

func TestStreamSmallMessage(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(5000)
	var got Message
	h.s.Spawn("server", func(p *sim.Proc) {
		c, ok := ln.Accept(p)
		if !ok {
			return
		}
		got, _ = c.Recv(p)
		if err := c.Send(p, "ok", 2); err != nil {
			t.Error(err)
		}
	})
	var reply Message
	h.s.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Send(p, "hello", 5); err != nil {
			t.Error(err)
			return
		}
		reply, _ = c.Recv(p)
		c.Close()
	})
	h.run(t)
	if got.Data != "hello" || got.Size != 5 {
		t.Fatalf("server got %+v", got)
	}
	if reply.Data != "ok" {
		t.Fatalf("client got %+v", reply)
	}
}

func TestStreamLargeMessageTiming(t *testing.T) {
	// 1 MB over two 1 Gbps hops: at least the 8 ms serialization, and not
	// wildly more (the window comfortably covers the tiny BDP).
	h := newHub(t, 2, netsim.Gbps(1, us(20)))
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(5000)
	const size = 1 << 20
	var took sim.Time
	h.s.Spawn("server", func(p *sim.Proc) {
		c, ok := ln.Accept(p)
		if !ok {
			return
		}
		m, _ := c.Recv(p)
		if m.Size != size {
			t.Errorf("size = %d", m.Size)
		}
	})
	h.s.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		start := p.Now()
		if err := c.Send(p, "blob", size); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	h.run(t)
	if took < ms(8) || took > ms(40) {
		t.Fatalf("1MB transfer took %v, want ~8-40ms", took)
	}
}

func TestStreamBidirectionalSequentialMessages(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, us(5)))
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(5000)
	const rounds = 5
	serverSum, clientSum := 0, 0
	h.s.Spawn("server", func(p *sim.Proc) {
		c, _ := ln.Accept(p)
		for i := 0; i < rounds; i++ {
			m, ok := c.Recv(p)
			if !ok {
				return
			}
			serverSum += m.Data.(int)
			c.Send(p, m.Data.(int)*10, 100)
		}
	})
	h.s.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 1; i <= rounds; i++ {
			c.Send(p, i, 5000) // multi-segment each way
			m, ok := c.Recv(p)
			if !ok {
				return
			}
			clientSum += m.Data.(int)
		}
	})
	h.run(t)
	if serverSum != 15 || clientSum != 150 {
		t.Fatalf("sums = %d, %d", serverSum, clientSum)
	}
}

func TestDialDownHostTimesOut(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, 0))
	h.host(1).SetDown(true)
	var err error
	var took sim.Time
	h.s.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		_, err = h.stacks[0].Dial(p, h.stacks[1].IP(), 5000)
		took = p.Now() - start
	})
	h.run(t)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if took < ms(100) {
		t.Fatalf("gave up too fast: %v", took)
	}
}

func TestSendToCrashedPeerTimesOut(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, 0))
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(5000)
	h.s.Spawn("server", func(p *sim.Proc) {
		c, _ := ln.Accept(p)
		c.Recv(p)
	})
	var err error
	h.s.Spawn("client", func(p *sim.Proc) {
		c, derr := a.Dial(p, b.IP(), 5000)
		if derr != nil {
			t.Error(derr)
			return
		}
		c.Send(p, "warm", 100)
		h.host(1).SetDown(true)
		err = c.Send(p, "black hole", 1<<20)
	})
	h.run(t)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestStreamSurvivesPacketLoss(t *testing.T) {
	h := newHub(t, 2, netsim.LinkConfig{BandwidthBps: 1e9, LossRate: 0.02})
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(5000)
	var got Message
	h.s.Spawn("server", func(p *sim.Proc) {
		c, _ := ln.Accept(p)
		got, _ = c.Recv(p)
	})
	// A data segment numbered at or below one already sent is go-back-N
	// rewinding; the number is the packet's, not the descriptor's.
	var highest uint64
	rewound := 0
	h.net.AddTap(func(ev netsim.TraceEvent) {
		if m, ok := ev.Pkt.Payload.(*segMsg); ok && m.kind == segData && ev.Dir == "tx" {
			if ev.Pkt.Seq <= highest && highest > 0 {
				rewound++
			}
			highest = max(highest, ev.Pkt.Seq)
		}
	})
	h.s.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Send(p, "lossy", 300*1024); err != nil {
			t.Error(err)
		}
	})
	h.run(t)
	if got.Data != "lossy" || got.Size != 300*1024 {
		t.Fatalf("got %+v", got)
	}
	if rewound == 0 {
		t.Fatal("2% loss over 220 segments never made the sender rewind")
	}
}

// mcastHub subscribes hosts[1..] to a group fanned out by the switch.
func mcastGroup(h *hub, members ...int) netsim.IP {
	g := netsim.MustParseIP("239.1.2.3")
	var outs []int
	for _, m := range members {
		h.host(m).JoinMulticast(g)
		outs = append(outs, m)
	}
	h.groups[g] = outs
	return g
}

func TestMulticastAllReceivers(t *testing.T) {
	h := newHub(t, 4, netsim.Gbps(1, us(10)))
	g := mcastGroup(h, 1, 2, 3)
	var transfers []Transfer
	for i := 1; i <= 3; i++ {
		r := h.stacks[i].MustBindMulticast(6000)
		h.s.Spawn("recv", func(p *sim.Proc) {
			tr, ok := r.Recv(p)
			if ok {
				transfers = append(transfers, tr)
			}
		})
	}
	var res McastResult
	var err error
	h.s.Spawn("send", func(p *sim.Proc) {
		res, err = h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "payload", Size: 100 * 1024, Receivers: 3,
		})
	})
	h.run(t)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished()) != 3 || len(transfers) != 3 {
		t.Fatalf("finished=%d transfers=%d", len(res.Finished()), len(transfers))
	}
	for _, tr := range transfers {
		if tr.Data != "payload" || tr.Size != 100*1024 || tr.To != g {
			t.Fatalf("bad transfer %+v", tr)
		}
	}
	// Network optimality: the sender's link carried the data once
	// (plus protocol overhead), not three times.
	sent := h.host(0).Stats().BytesSent
	if sent > 110*1024 {
		t.Fatalf("sender pushed %d bytes for a 100KiB object: not multicast", sent)
	}
}

func TestMulticastRepairsLoss(t *testing.T) {
	h := newHub(t, 3, netsim.LinkConfig{BandwidthBps: 1e9, LossRate: 0.05})
	g := mcastGroup(h, 1, 2)
	got := 0
	for i := 1; i <= 2; i++ {
		r := h.stacks[i].MustBindMulticast(6000)
		h.s.Spawn("recv", func(p *sim.Proc) {
			if _, ok := r.Recv(p); ok {
				got++
			}
		})
	}
	var res McastResult
	var err error
	h.s.Spawn("send", func(p *sim.Proc) {
		res, err = h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "x", Size: 200 * 1024, Receivers: 2,
			Timeout: 10 * time.Second,
		})
	})
	h.run(t)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("deliveries = %d, want 2", got)
	}
	if res.Repairs == 0 {
		t.Fatal("expected unicast repairs under 5% loss")
	}
}

func TestMulticastAnyK(t *testing.T) {
	// 1 fast + 2 slow receivers; any-2 must return at roughly the fast
	// pace... any-1 definitely must. Compare k=1 vs k=3 completion times.
	mk := func(k int) sim.Time {
		h := newHub(t, 4, netsim.Gbps(1, us(10)))
		g := mcastGroup(h, 1, 2, 3)
		// Throttle receivers 2 and 3.
		h.host(2).Port().Link().SetConfig(netsim.Mbps(50, us(10)))
		h.host(3).Port().Link().SetConfig(netsim.Mbps(50, us(10)))
		for i := 1; i <= 3; i++ {
			r := h.stacks[i].MustBindMulticast(6000)
			h.s.Spawn("recv", func(p *sim.Proc) {
				for {
					if _, ok := r.Recv(p); !ok {
						return
					}
				}
			})
		}
		var took sim.Time
		h.s.Spawn("send", func(p *sim.Proc) {
			start := p.Now()
			_, err := h.stacks[0].SendMulticast(p, McastOpts{
				To: g, ToPort: 6000, Data: "x", Size: 1 << 20, Receivers: 3, K: k,
				Timeout: 30 * time.Second,
			})
			if err != nil {
				t.Error(err)
			}
			took = p.Now() - start
		})
		h.run(t)
		return took
	}
	fast := mk(1)
	slow := mk(3)
	if fast*4 > slow {
		t.Fatalf("any-1 (%v) should be far faster than all-3 (%v) with slow replicas", fast, slow)
	}
}

func TestMulticastStragglersEventuallyFinish(t *testing.T) {
	h := newHub(t, 3, netsim.Gbps(1, us(10)))
	g := mcastGroup(h, 1, 2)
	h.host(2).Port().Link().SetConfig(netsim.Mbps(100, us(10)))
	finished := make([]bool, 3)
	for i := 1; i <= 2; i++ {
		i := i
		r := h.stacks[i].MustBindMulticast(6000)
		h.s.Spawn("recv", func(p *sim.Proc) {
			if _, ok := r.Recv(p); ok {
				finished[i] = true
			}
		})
	}
	h.s.Spawn("send", func(p *sim.Proc) {
		_, err := h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "x", Size: 512 * 1024, Receivers: 2, K: 1,
			Timeout: 10 * time.Second,
		})
		if err != nil {
			t.Error(err)
		}
	})
	h.run(t)
	if !finished[1] || !finished[2] {
		t.Fatalf("finished = %v; straggler support should complete both", finished)
	}
}

func TestMulticastTimesOutWhenReceiversDown(t *testing.T) {
	h := newHub(t, 3, netsim.Gbps(1, 0))
	g := mcastGroup(h, 1, 2)
	h.stacks[1].MustBindMulticast(6000)
	h.stacks[2].MustBindMulticast(6000)
	h.host(2).SetDown(true)
	var err error
	h.s.Spawn("send", func(p *sim.Proc) {
		_, err = h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "x", Size: 4, Receivers: 2,
			Timeout: 500 * time.Millisecond,
		})
	})
	h.run(t)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestMulticastSmallObjectLatency(t *testing.T) {
	// A 4-byte put payload is one chunk; latency should be on the order
	// of two hops + ack, i.e. well under a millisecond at 1 Gbps.
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	g := mcastGroup(h, 1)
	r := h.stacks[1].MustBindMulticast(6000)
	h.s.Spawn("recv", func(p *sim.Proc) { r.Recv(p) })
	var took sim.Time
	h.s.Spawn("send", func(p *sim.Proc) {
		start := p.Now()
		if _, err := h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "x", Size: 4, Receivers: 1,
		}); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	h.run(t)
	if took == 0 || took > ms(1) {
		t.Fatalf("4B multicast took %v", took)
	}
}

// Property: any payload size (1 byte to several MB) survives a stream
// round trip with its size intact, and the wire carried at least the
// payload.
func TestStreamSizeProperty(t *testing.T) {
	f := func(raw uint32) bool {
		size := int(raw%3_000_000) + 1
		h := newHub(t, 2, netsim.Gbps(1, us(5)))
		a, b := h.stacks[0], h.stacks[1]
		ln := b.MustListen(5000)
		var got Message
		h.s.Spawn("server", func(p *sim.Proc) {
			c, ok := ln.Accept(p)
			if !ok {
				return
			}
			got, _ = c.Recv(p)
		})
		okSend := true
		h.s.Spawn("client", func(p *sim.Proc) {
			c, err := a.Dial(p, b.IP(), 5000)
			if err != nil {
				okSend = false
				return
			}
			if err := c.Send(p, "payload", size); err != nil {
				okSend = false
			}
		})
		if err := h.s.Run(); err != nil {
			return false
		}
		wire := h.net.TotalLinkBytes()
		h.s.Shutdown()
		return okSend && got.Size == size && got.Data == "payload" && wire >= int64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the multicast transport delivers any size exactly once to
// every receiver, and the chunk count matches ceil(size/MTU).
func TestMulticastSizeProperty(t *testing.T) {
	f := func(raw uint32, nr uint8) bool {
		size := int(raw%2_000_000) + 1
		receivers := int(nr%3) + 1
		h := newHub(t, receivers+1, netsim.Gbps(1, us(5)))
		members := make([]int, receivers)
		for i := range members {
			members[i] = i + 1
		}
		g := mcastGroup(h, members...)
		delivered := 0
		for i := 1; i <= receivers; i++ {
			r := h.stacks[i].MustBindMulticast(6000)
			h.s.Spawn("recv", func(p *sim.Proc) {
				for {
					tr, ok := r.Recv(p)
					if !ok {
						return
					}
					if tr.Size == size {
						delivered++
					}
				}
			})
		}
		var res McastResult
		var err error
		h.s.Spawn("send", func(p *sim.Proc) {
			res, err = h.stacks[0].SendMulticast(p, McastOpts{
				To: g, ToPort: 6000, Data: "x", Size: size, Receivers: receivers,
				Timeout: 30 * time.Second,
			})
		})
		if e := h.s.Run(); e != nil {
			return false
		}
		h.s.Shutdown()
		wantChunks := (size + MTU - 1) / MTU
		return err == nil && delivered == receivers && res.Chunks == wantChunks &&
			len(res.Finished()) == receivers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPRecvTimeout(t *testing.T) {
	h := newHub(t, 1, netsim.Gbps(1, 0))
	sock := h.stacks[0].MustBindUDP(1234)
	var elapsed sim.Time
	h.s.Spawn("waiter", func(p *sim.Proc) {
		start := p.Now()
		if _, ok := sock.RecvTimeout(p, ms(7)); ok {
			t.Error("unexpected datagram")
		}
		elapsed = p.Now() - start
	})
	if err := h.s.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != ms(7) {
		t.Fatalf("timeout after %v, want 7ms", elapsed)
	}
	h.s.Shutdown()
}

func TestListenerClosedAcceptReturns(t *testing.T) {
	h := newHub(t, 1, netsim.Gbps(1, 0))
	ln := h.stacks[0].MustListen(5000)
	accepted := true
	h.s.Spawn("acceptor", func(p *sim.Proc) {
		_, accepted = ln.Accept(p)
	})
	h.s.At(ms(5), func() { ln.Close() })
	if err := h.s.Run(); err != nil {
		t.Fatal(err)
	}
	if accepted {
		t.Fatal("Accept returned ok after Close")
	}
	h.s.Shutdown()
}

// TestMulticastStallNacksAtGapTimeout pins the watchdog's timing under
// loss: a NACK leaves the receiver either with the window-boundary chunk
// that exposed the hole, or exactly a whole number of gapTimeouts after
// the last chunk it received — and the first such stall NACK exactly one
// gapTimeout after it, although the one armed event was scheduled from
// the transfer's first chunk and only re-armed itself since.
func TestMulticastStallNacksAtGapTimeout(t *testing.T) {
	h := newHub(t, 2, netsim.LinkConfig{BandwidthBps: 1e9, LossRate: 0.1})
	g := mcastGroup(h, 1)
	r := h.stacks[1].MustBindMulticast(6000)
	delivered := false
	h.s.Spawn("recv", func(p *sim.Proc) { _, delivered = r.Recv(p) })

	var lastChunk sim.Time
	var stalls []sim.Time // how long after the last chunk each stall NACK left
	h.net.AddTap(func(ev netsim.TraceEvent) {
		switch m := ev.Pkt.Payload.(type) {
		case *chunkMsg:
			if ev.Dir == "rx" {
				lastChunk = ev.At
			}
		case *mctrlMsg:
			if ev.Dir == "tx" && m.kind == mctrlNack && ev.At != lastChunk {
				stalls = append(stalls, ev.At-lastChunk)
			}
		}
	})
	var res McastResult
	var err error
	h.s.Spawn("send", func(p *sim.Proc) {
		res, err = h.stacks[0].SendMulticast(p, McastOpts{
			To: g, ToPort: 6000, Data: "x", Size: 512 * 1024, Receivers: 1,
			Timeout: 10 * time.Second,
		})
	})
	h.run(t)
	if err != nil || !delivered || res.Repairs == 0 {
		t.Fatalf("err=%v delivered=%v repairs=%d", err, delivered, res.Repairs)
	}
	// 512 KB outlasts gapTimeout on the wire, so every stall below is seen
	// by an event that fired early at least once before.
	if len(stalls) < 5 || stalls[0] != gapTimeout {
		t.Fatalf("stall NACKs left %v after the last chunk, want several, the first at exactly %v", stalls, sim.Time(gapTimeout))
	}
	for _, d := range stalls {
		if d%gapTimeout != 0 {
			t.Fatalf("a stall NACK left %v after the last chunk: not a multiple of %v", d, sim.Time(gapTimeout))
		}
	}
}

// mallocsDuring counts the heap objects fn allocates.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMulticastChunkCostsNoEventNoAlloc: a loss-free 1 MB transfer to
// three receivers keeps one watchdog armed per receiver, so the event
// queue never holds more than the packets in flight; the whole run —
// sender, fabric and receivers — allocates per window (the wheel buckets
// its timers reach), not per chunk or per ack; and a chunk in the middle of
// a window, handed to the receiver directly, allocates nothing and
// schedules nothing.
func TestMulticastChunkCostsNoEventNoAlloc(t *testing.T) {
	maxPending := 0
	transfer := func(size int) uint64 {
		h := newHub(t, 4, netsim.Gbps(1, us(10)))
		g := mcastGroup(h, 1, 2, 3)
		for i := 1; i <= 3; i++ {
			r := h.stacks[i].MustBindMulticast(6000)
			h.s.Spawn("recv", func(p *sim.Proc) { r.Recv(p) })
		}
		h.net.AddTap(func(ev netsim.TraceEvent) {
			if n := h.s.Pending(); n > maxPending {
				maxPending = n
			}
		})
		var res McastResult
		var err error
		h.s.Spawn("send", func(p *sim.Proc) {
			res, err = h.stacks[0].SendMulticast(p, McastOpts{
				To: g, ToPort: 6000, Data: "x", Size: size, Receivers: 3,
			})
		})
		mallocs := mallocsDuring(func() { h.run(t) })
		if err != nil || res.Repairs != 0 || len(res.Finished()) != 3 {
			t.Fatalf("err=%v result=%+v", err, res)
		}
		return mallocs
	}
	one, two := transfer(1<<20), transfer(2<<20)
	// A window of chunks in flight, acks, three watchdogs and the sender's
	// ack wait come to 39; one timer per chunk received in the last
	// gapTimeout would be over 1 200.
	if limit := 2 * McastWindow; maxPending > limit {
		t.Fatalf("%d events pending at once during a transfer, want at most %d", maxPending, limit)
	}
	// The second megabyte is 749 more chunks in 24 more windows, each acked
	// by three receivers (a shared descriptor apiece, delivered by value).
	// What remains is the timer-wheel buckets the run's timers first reach,
	// ~6 objects a window; a descriptor per chunk alone would be 749.
	const moreWindows = (1 << 20) / MTU / McastWindow
	if more := int(two) - int(one); more > 7*moreWindows {
		t.Fatalf("the second megabyte allocated %d objects (%d → %d) in %d windows", more, one, two, moreWindows)
	}

	g := netsim.MustParseIP("239.1.2.3")
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	r := h.stacks[1].MustBindMulticast(6000)
	pkt := &netsim.Packet{DstIP: g}
	m := &chunkMsg{xfer: 1, total: 750, size: 1 << 20, ackIP: h.stacks[0].IP(), ackPort: 5000}
	r.recvChunk(pkt, m) // chunk 0 creates the transfer and arms its watchdog
	pending := h.s.Pending()
	if pending != 1 {
		t.Fatalf("%d events pending after the first chunk, want the watchdog alone", pending)
	}
	idx := 0
	allocs := testing.AllocsPerRun(700, func() {
		idx++
		if idx%McastWindow == McastWindow-1 {
			idx++ // a window's last chunk asks for an ack; stay mid-window
		}
		pkt.Seq = chunkSeq(idx, false)
		r.recvChunk(pkt, m)
	})
	if allocs != 0 || h.s.Pending() != pending {
		t.Fatalf("mid-transfer chunk: %v allocs, %d events pending (was %d)", allocs, h.s.Pending(), pending)
	}
	h.s.Shutdown()
}

// TestMulticastFinishedSetBounded: a receiver remembers the last
// finishedCap completed transfers (so a duplicate tail is re-confirmed,
// not taken for a new transfer), by key alone, and forgets older ones in
// completion order — never in whatever order a map yields.
// Two identically driven receivers end up remembering the same transfers
// and give a replayed duplicate the same answers.
func TestMulticastFinishedSetBounded(t *testing.T) {
	const extra = 100
	type answer struct {
		kind mctrlKind
		xfer uint64
	}
	type outcome struct {
		answers    []answer // what the sender heard back, in order
		delivered  []uint64 // transfers handed to the application
		remembered []uint64 // keys left in the receiver's map, ascending
	}
	replayed := []uint64{1, extra, extra + 1, finishedCap + extra}
	drive := func() outcome {
		var out outcome
		h := newHub(t, 2, netsim.Gbps(1, us(10)))
		r := h.stacks[1].MustBindMulticast(6000)
		ctrl := h.stacks[0].MustBindUDP(5000)
		h.s.Spawn("sender", func(p *sim.Proc) {
			for {
				d, ok := ctrl.Recv(p)
				if !ok {
					return
				}
				out.answers = append(out.answers, answer{d.Data.(*mctrlMsg).kind, d.seq >> 32})
			}
		})
		h.s.Spawn("app", func(p *sim.Proc) {
			for {
				tr, ok := r.Recv(p)
				if !ok {
					return
				}
				out.delivered = append(out.delivered, tr.Xfer)
			}
		})
		pkt := &netsim.Packet{DstIP: h.stacks[1].IP()}
		chunk := func(xfer uint64, idx int) {
			pkt.Seq = chunkSeq(idx, false)
			r.recvChunk(pkt, &chunkMsg{
				xfer: xfer, total: 2, size: 2 * MTU, data: "v",
				ackIP: h.stacks[0].IP(), ackPort: 5000,
			})
		}
		h.s.Spawn("driver", func(p *sim.Proc) {
			for x := uint64(1); x <= finishedCap+extra; x++ {
				chunk(x, 0)
				chunk(x, 1)
				p.Sleep(us(20))
			}
			for _, x := range replayed {
				chunk(x, 1)
				p.Sleep(us(20))
			}
		})
		if err := h.s.Run(); err != nil {
			t.Fatal(err)
		}
		for _, s := range r.rx.slots {
			if s.key == (xferKey{}) {
				continue
			}
			if s.st != nil {
				t.Fatalf("transfer %d is remembered in flight, as %+v", s.key.xfer, s.st)
			}
			out.remembered = append(out.remembered, s.key.xfer)
		}
		if len(out.remembered) != r.rx.n {
			t.Fatalf("the table counts %d transfers and holds %d", r.rx.n, len(out.remembered))
		}
		slices.Sort(out.remembered)
		h.s.Shutdown()
		return out
	}
	a, b := drive(), drive()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identically driven receivers remember or answer differently")
	}

	// The oldest `extra` are gone; the two of them replayed were taken for
	// new transfers, NACKed for their first chunk until the receiver gave
	// up, and are gone again.
	if len(a.remembered) != finishedCap || a.remembered[0] != extra+1 || a.remembered[finishedCap-1] != finishedCap+extra {
		t.Fatalf("remembers %d transfers, %d…%d", len(a.remembered), a.remembered[0], a.remembered[len(a.remembered)-1])
	}
	if len(a.delivered) != finishedCap+extra {
		t.Fatalf("delivered %d transfers, want each of %d once", len(a.delivered), finishedCap+extra)
	}
	got := map[answer]int{}
	for _, ans := range a.answers[finishedCap+extra:] {
		got[ans]++
	}
	want := map[answer]int{
		{mctrlNack, 1}:                   gapMaxNacks,
		{mctrlNack, extra}:               gapMaxNacks,
		{mctrlDone, extra + 1}:           1,
		{mctrlDone, finishedCap + extra}: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answers to the replayed tails: %v, want %v", got, want)
	}
}

// TestStreamMessageAllocsIndependentOfSize: on an established stream a
// message allocates nothing whatever its size — its descriptors live in the
// connection, and there is no object per segment, none per ack. Each size
// is sent five times and the cheapest counts, so a pool growing for the
// first time is not mistaken for a per-message cost; a 1 MB message also
// spans 9 ms, in which its RTO timers may reach a coarse wheel bucket never
// used before, hence the allowance of two.
func TestStreamMessageAllocsIndependentOfSize(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(5000)
	received := 0
	h.s.Spawn("server", func(p *sim.Proc) {
		c, _ := ln.Accept(p)
		for {
			if _, ok := c.Recv(p); !ok {
				return
			}
			received++
		}
	})
	cheapest := map[int]uint64{}
	h.s.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		for round := 0; round < 5; round++ {
			for _, size := range []int{1 << 20, 64 << 10, 100} {
				n := mallocsDuring(func() {
					if err := c.Send(p, "m", size); err != nil {
						t.Error(err)
					}
				})
				if old, seen := cheapest[size]; !seen || n < old {
					cheapest[size] = n
				}
			}
		}
		c.Close()
	})
	h.run(t)
	if received != 15 {
		t.Fatalf("server received %d of 15 messages", received)
	}
	if cheapest[1<<20] > 2 || cheapest[64<<10] != 0 || cheapest[100] != 0 {
		t.Fatalf("objects per message: 1 MB %d (749 segments and acks; want at most 2), 64 KB %d (47; want 0), 100 B %d (want 0)",
			cheapest[1<<20], cheapest[64<<10], cheapest[100])
	}
}

// TestStaleSegmentNeverReadsTheNextMessage: a Send rewrites its
// connection's descriptors, so a late copy of an earlier message's segment
// must not be taken for the new message's. The receiver sits behind a slow
// link, where a segment takes 15 ms to serialize and the 25 ms RTO covers
// one ack gap but not two: message 1 loses one ack, the sender times out
// and go-back-N resends the rest of its window behind the originals. The
// originals' acks complete message 1, message 2 starts and rewrites the
// descriptors, and only then do the resent copies arrive. Each message is
// delivered once, with its own data and size.
func TestStaleSegmentNeverReadsTheNextMessage(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	a, b := h.stacks[0], h.stacks[1]
	h.host(1).Port().Link().SetConfig(netsim.LinkConfig{BandwidthBps: 768e3})
	lost := false
	h.drop = func(pkt *netsim.Packet) bool {
		m, ok := pkt.Payload.(*segMsg)
		if ok && m.kind == segAck && pkt.Seq == 2 && !lost {
			lost = true
			return true
		}
		return false
	}
	ln := b.MustListen(5000)
	var got []Message
	h.s.Spawn("server", func(p *sim.Proc) {
		c, _ := ln.Accept(p)
		for {
			m, ok := c.Recv(p)
			if !ok {
				return
			}
			got = append(got, m)
		}
	})
	const size1, size2 = 4 * MSS, 3*MSS - 100 // segments 0-3, then 4-6
	var start2 sim.Time
	stale := 0 // copies of message 1's segments reaching the receiver after message 2 started
	h.net.AddTap(func(ev netsim.TraceEvent) {
		if m, ok := ev.Pkt.Payload.(*segMsg); ok && m.kind == segData && ev.Dir == "rx" &&
			ev.Pkt.DstIP == b.IP() && ev.Device == "h" && ev.Pkt.Seq < 4 && start2 > 0 {
			stale++
		}
	})
	h.s.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, b.IP(), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Send(p, "one", size1); err != nil {
			t.Error(err)
		}
		start2 = p.Now()
		if err := c.Send(p, "two", size2); err != nil {
			t.Error(err)
		}
		c.Close()
	})
	h.run(t)
	if !lost || stale == 0 {
		t.Fatalf("ack lost: %v; %d stale copies arrived after message 2 started, want some", lost, stale)
	}
	if want := []Message{{"one", size1}, {"two", size2}}; !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// TestChunkPayloadOncePerTransfer: of everything a transfer puts on the
// sender's wire, ChunkPayload finds the application message in the final
// chunk and nowhere else — once in a loss-free 750-chunk transfer, once in
// a one-chunk transfer, and again in each unicast repair of the final
// chunk, which a stage therefore has to tolerate.
func TestChunkPayloadOncePerTransfer(t *testing.T) {
	type seen struct {
		idx     int
		unicast bool
	}
	// watch records every chunk host 0 transmits that carries the message.
	watch := func(h *hub, g netsim.IP) *[]seen {
		var carrying []seen
		h.net.AddTap(func(ev netsim.TraceEvent) {
			if ev.Dir != "tx" || ev.Pkt.SrcIP != h.stacks[0].IP() {
				return
			}
			if data, ok := ChunkPayload(ev.Pkt.Payload); ok {
				if data != "body" {
					t.Errorf("ChunkPayload returned %v", data)
				}
				idx, _ := chunkOf(&ev.Pkt)
				carrying = append(carrying, seen{idx, ev.Pkt.DstIP != g})
			}
		})
		return &carrying
	}
	for _, size := range []int{750 * MTU, 100} {
		h := newHub(t, 3, netsim.Gbps(1, us(10)))
		g := mcastGroup(h, 1, 2)
		for i := 1; i <= 2; i++ {
			r := h.stacks[i].MustBindMulticast(6000)
			h.s.Spawn("recv", func(p *sim.Proc) { r.Recv(p) })
		}
		carrying := watch(h, g)
		h.s.Spawn("send", func(p *sim.Proc) {
			if _, err := h.stacks[0].SendMulticast(p, McastOpts{To: g, ToPort: 6000, Data: "body", Size: size, Receivers: 2}); err != nil {
				t.Error(err)
			}
		})
		h.run(t)
		if want := []seen{{(size+MTU-1)/MTU - 1, false}}; !slices.Equal(*carrying, want) {
			t.Fatalf("%d-byte transfer: message seen in chunks %v, want %v", size, *carrying, want)
		}
	}

	// A receiver that asks for the final chunk again gets it by unicast —
	// twice, the second copy re-requesting an ack — message included.
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	g := mcastGroup(h, 1)
	carrying := watch(h, g)
	var ackPort uint16
	h.net.AddTap(func(ev netsim.TraceEvent) {
		if m, ok := ev.Pkt.Payload.(*chunkMsg); ok {
			ackPort = m.ackPort
		}
	})
	h.s.Spawn("receiver", func(p *sim.Proc) {
		sock := h.stacks[1].MustBindUDP(0)
		p.Sleep(ms(1))
		sendCtrl(sock, h.stacks[0].IP(), ackPort, &mctrlMsg{kind: mctrlNack, missing: []int{1}}, 1, 0)
		p.Sleep(ms(1))
		sendCtrl(sock, h.stacks[0].IP(), ackPort, doneCtrl, 1, 2)
	})
	var res McastResult
	h.s.Spawn("send", func(p *sim.Proc) {
		var err error
		if res, err = h.stacks[0].SendMulticast(p, McastOpts{To: g, ToPort: 6000, Data: "body", Size: 2 * MTU, Receivers: 1}); err != nil {
			t.Error(err)
		}
	})
	h.run(t)
	if want := []seen{{1, false}, {1, true}, {1, true}}; !slices.Equal(*carrying, want) || res.Repairs != 2 {
		t.Fatalf("message seen in chunks %v (repairs %d), want %v", *carrying, res.Repairs, want)
	}
}

// TestEphemeralPortSkipsLiveStreams: once the ephemeral range wraps, a
// second dial to the same peer and port gets a local port of its own
// instead of the live first stream's, which would replace that stream in
// the demultiplexer; tearing the streams down (a local Close, a FIN from
// the peer) frees both ports again.
func TestEphemeralPortSkipsLiveStreams(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	a, b := h.stacks[0], h.stacks[1]
	ln := b.MustListen(80)
	var accepted []*Conn
	h.s.Spawn("server", func(p *sim.Proc) {
		for {
			c, ok := ln.Accept(p)
			if !ok {
				return
			}
			accepted = append(accepted, c)
		}
	})
	var first, second *Conn
	h.s.Spawn("client", func(p *sim.Proc) {
		var err error
		if first, err = a.Dial(p, b.IP(), 80); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 65536-49152-1; i++ { // the rest of the range
			a.MustBindUDP(0).Close()
		}
		if second, err = a.Dial(p, b.IP(), 80); err != nil {
			t.Error(err)
			return
		}
		if first.localPort == second.localPort || len(a.conns) != 2 {
			t.Errorf("second dial got port %d beside the live stream's %d; %d streams demultiplexed",
				second.localPort, first.localPort, len(a.conns))
			return
		}
		first.Close()
		accepted[1].Close()
	})
	h.run(t)
	if t.Failed() {
		return
	}
	if len(a.conns) != 0 || len(a.dialed) != 0 {
		t.Fatalf("after teardown: %d streams, dialed ports %v", len(a.conns), a.dialed)
	}
}

// sendCtrl sends a multicast control message from sock as a receiver
// does: m answers transfer xfer, with upTo chunks, in the packet header.
func sendCtrl(sock *UDPSocket, to netsim.IP, toPort uint16, m *mctrlMsg, xfer uint64, upTo int) {
	sock.send(sock.stack.IP(), to, toPort, m, mctrlSize-netsim.UDPHeaderSize, ctrlSeq(xfer, upTo))
}

// ctrlPorts records each transfer's sender control port, as its chunks
// carry it.
func ctrlPorts(h *hub) map[uint64]uint16 {
	ports := map[uint64]uint16{}
	h.net.AddTap(func(ev netsim.TraceEvent) {
		if m, ok := ev.Pkt.Payload.(*chunkMsg); ok {
			ports[m.xfer] = m.ackPort
		}
	})
	return ports
}

// TestReusedControlSocketIgnoresItsLastTransfer: back-to-back sends share
// one pooled control socket, and the second ignores what still arrives
// for the first — a slow member's DONE, a stray ACK and DONE from a host
// outside the group — and completes on its own receiver's messages.
func TestReusedControlSocketIgnoresItsLastTransfer(t *testing.T) {
	h := newHub(t, 4, netsim.Gbps(1, us(10)))
	g := mcastGroup(h, 1, 2)
	h.host(2).Port().Link().SetConfig(netsim.Gbps(1, ms(2)))
	for i := 1; i <= 2; i++ {
		r := h.stacks[i].MustBindMulticast(6000)
		h.s.Spawn("recv", func(p *sim.Proc) {
			for {
				if _, ok := r.Recv(p); !ok {
					return
				}
			}
		})
	}
	ports := ctrlPorts(h)
	sender := h.stacks[0]
	var lateDone sim.Time // host 2's DONE of transfer 1 reaching the sender
	h.net.AddTap(func(ev netsim.TraceEvent) {
		m, ok := ev.Pkt.Payload.(*mctrlMsg)
		if ok && ev.Dir == "rx" && ev.Pkt.DstIP == sender.IP() && ev.Device == "h" &&
			ev.Pkt.Seq>>32 == 1 && m.kind == mctrlDone && ev.Pkt.SrcIP == h.stacks[2].IP() {
			lateDone = ev.At
		}
	})
	var res1, res2 McastResult
	var start2, end2 sim.Time
	h.s.Spawn("send", func(p *sim.Proc) {
		var err error
		// Any one receiver completes transfer 1; host 2, 2 ms away, answers late.
		if res1, err = sender.SendMulticast(p, McastOpts{To: g, ToPort: 6000, Data: "one", Size: 100, Receivers: 1}); err != nil {
			t.Error(err)
			return
		}
		stray := h.stacks[3].MustBindUDP(0)
		sendCtrl(stray, sender.IP(), ports[1], ackCtrl, 1, 1<<20)
		sendCtrl(stray, sender.IP(), ports[1], doneCtrl, 1, 1)
		// Transfer 2, 1 MB to host 1 alone, spans the late arrivals.
		start2 = p.Now()
		if res2, err = sender.SendMulticast(p, McastOpts{To: h.stacks[1].IP(), ToPort: 6000, Data: "two", Size: 1 << 20, Receivers: 1}); err != nil {
			t.Error(err)
		}
		end2 = p.Now()
	})
	h.run(t)
	if t.Failed() {
		return
	}
	if ports[1] != ports[2] || len(sender.udp) != 1 {
		t.Fatalf("transfers used control ports %d and %d, %d sockets bound; want one reused", ports[1], ports[2], len(sender.udp))
	}
	if lateDone <= start2 || lateDone >= end2 {
		t.Fatalf("the late DONE arrived at %v, outside transfer 2 (%v–%v)", lateDone, start2, end2)
	}
	h1 := h.stacks[1].IP()
	if !slices.Equal(res1.Finished(), []netsim.IP{h1}) || !slices.Equal(res2.Finished(), []netsim.IP{h1}) {
		t.Fatalf("finished: transfer 1 %v, transfer 2 %v; want host 1 alone in each", res1.Finished(), res2.Finished())
	}
}

// TestLateDuplicateMeetsARecycledSend: a late duplicate of a finished
// one-chunk transfer reaches its receiver while the next send holds the
// first one's pooled state and control socket. The duplicate still names
// transfer 1 — a chunk descriptor is its transfer's own, never recycled —
// so the receiver re-confirms transfer 1 with DONE; the new send's socket
// drops that DONE, and transfer 2 is delivered once, with its own data,
// before its send returns.
func TestLateDuplicateMeetsARecycledSend(t *testing.T) {
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	sender, rcv := h.stacks[0], h.stacks[1]
	r := rcv.MustBindMulticast(6000)
	var got []Transfer
	var delivered2 sim.Time
	h.s.Spawn("recv", func(p *sim.Proc) {
		for {
			tr, ok := r.Recv(p)
			if !ok {
				return
			}
			got = append(got, tr)
			if tr.Xfer == 2 {
				delivered2 = p.Now()
			}
		}
	})
	ports := ctrlPorts(h)
	var first *chunkMsg // transfer 1's descriptor, as its chunk carried it
	var dones []sim.Time
	h.net.AddTap(func(ev netsim.TraceEvent) {
		if m, ok := ev.Pkt.Payload.(*chunkMsg); ok && m.xfer == 1 && first == nil {
			first = m
		}
		m, ok := ev.Pkt.Payload.(*mctrlMsg)
		if ok && ev.Dir == "rx" && ev.Device == "h" && ev.Pkt.DstIP == sender.IP() &&
			m.kind == mctrlDone && ev.Pkt.Seq>>32 == 1 {
			dones = append(dones, ev.At)
		}
	})
	var res2 McastResult
	var start2, end2, dupAt sim.Time
	pooledAtDup := -1
	h.s.Spawn("send", func(p *sim.Proc) {
		if _, err := sender.SendMulticast(p, McastOpts{To: rcv.IP(), ToPort: 6000, Data: "one", Size: 100, Receivers: 1}); err != nil {
			t.Error(err)
			return
		}
		// Transfer 1's chunk again, 100 µs into transfer 2 (256 KB, ~2 ms).
		dup := sender.MustBindUDP(0)
		h.s.After(us(100), func() {
			dupAt, pooledAtDup = h.s.Now(), len(sender.txFree)
			dup.send(sender.IP(), rcv.IP(), 6000, first, 100, chunkSeq(0, false))
		})
		start2 = p.Now()
		var err error
		if res2, err = sender.SendMulticast(p, McastOpts{To: rcv.IP(), ToPort: 6000, Data: "two", Size: 256 << 10, Receivers: 1}); err != nil {
			t.Error(err)
		}
		end2 = p.Now()
	})
	h.run(t)
	if t.Failed() {
		return
	}
	if ports[1] != ports[2] || pooledAtDup != 0 || len(sender.txFree) != 1 {
		t.Fatalf("control ports %d and %d, %d states pooled when the duplicate left, %d after: want one state and socket reused",
			ports[1], ports[2], pooledAtDup, len(sender.txFree))
	}
	if len(dones) != 2 || dones[1] <= dupAt || dones[1] >= end2 {
		t.Fatalf("DONEs of transfer 1 reached the sender at %v; want the original and a re-confirmation of the duplicate sent at %v, before %v",
			dones, dupAt, end2)
	}
	if len(got) != 2 || got[0].Xfer != 1 || got[0].Data != "one" || got[1].Xfer != 2 || got[1].Data != "two" || got[1].Size != 256<<10 {
		t.Fatalf("delivered %+v; want transfer 1 and transfer 2 once each, with their own data", got)
	}
	if h1 := rcv.IP(); delivered2 <= start2 || end2 < delivered2 || !slices.Equal(res2.Finished(), []netsim.IP{h1}) {
		t.Fatalf("transfer 2 delivered at %v, its send ran %v–%v and finished %v: the stale DONE completed it",
			delivered2, start2, end2, res2.Finished())
	}
}

// TestStragglerKeepsItsControlSocket: after an any-k send returns, its
// straggler proc still listens on the control socket and holds the send
// state, so a send made meanwhile binds another socket and takes a fresh
// state; once the straggler ends, both go back to the pool and are reused.
func TestStragglerKeepsItsControlSocket(t *testing.T) {
	h := newHub(t, 3, netsim.Gbps(1, us(10)))
	g := mcastGroup(h, 1, 2)
	h.host(2).Port().Link().SetConfig(netsim.Mbps(100, us(10)))
	delivered := make([]int, 3)
	for i := 1; i <= 2; i++ {
		r := h.stacks[i].MustBindMulticast(6000)
		h.s.Spawn("recv", func(p *sim.Proc) {
			for {
				if _, ok := r.Recv(p); !ok {
					return
				}
				delivered[i]++
			}
		})
	}
	ports := ctrlPorts(h)
	st := h.stacks[0]
	var pooled [3]int // send states in the pool after each send returns
	h.s.Spawn("send", func(p *sim.Proc) {
		send := func(i int, to netsim.IP, size, receivers, k int) McastResult {
			res, err := st.SendMulticast(p, McastOpts{To: to, ToPort: 6000, Data: "x", Size: size, Receivers: receivers, K: k})
			if err != nil {
				t.Error(err)
			}
			pooled[i] = len(st.txFree)
			return res
		}
		quorum := send(0, g, 256*1024, 2, 1) // host 1 finishes; host 2 straggles
		if len(quorum.Finished()) != 1 {
			t.Errorf("any-1 send returned with %v finished", quorum.Finished())
		}
		send(1, h.stacks[1].IP(), 100, 1, 0)
		p.Sleep(StragglerTimeout)
		send(2, h.stacks[1].IP(), 100, 1, 0)
	})
	h.run(t)
	if t.Failed() {
		return
	}
	if ports[2] == ports[1] {
		t.Fatalf("a send during the straggler's repairs shared its control port %d", ports[1])
	}
	if ports[3] != ports[1] {
		t.Fatalf("after the straggler ended the next send used port %d, want its released %d", ports[3], ports[1])
	}
	// The any-1 send's state stays out of the pool while its straggler runs
	// (0 pooled, then only the second send's), and joins it when the
	// straggler ends: the third send takes one of two and returns it.
	if pooled != [3]int{0, 1, 2} {
		t.Fatalf("send states pooled after each send: %v, want [0 1 2]", pooled)
	}
	if delivered[1] != 3 || delivered[2] != 1 {
		t.Fatalf("deliveries %v: the straggler did not complete host 2", delivered[1:])
	}
}

// TestRecycledRxStateStartsClean: a transfer that lands in a recycled
// state — one that had NACKed, fired its watchdog and carried a message —
// NACKs exactly its own missing chunk and delivers its own message, in an
// inline bitmap (3 chunks) and a heap one (100). Every completion recycles
// its state, so one state serves every transfer here, the finished ring's
// evictions included, and the second 100-chunk transfer reuses the first's
// full heap bitmap.
func TestRecycledRxStateStartsClean(t *testing.T) {
	type nack struct {
		xfer    uint64
		missing []int
	}
	h := newHub(t, 2, netsim.Gbps(1, us(10)))
	r := h.stacks[1].MustBindMulticast(6000)
	ctrl := h.stacks[0].MustBindUDP(5000)
	var nacks []nack
	h.s.Spawn("sender", func(p *sim.Proc) {
		for {
			d, ok := ctrl.Recv(p)
			if !ok {
				return
			}
			if m := d.Data.(*mctrlMsg); m.kind == mctrlNack {
				nacks = append(nacks, nack{d.seq >> 32, m.missing})
			}
		}
	})
	delivered := map[uint64]Transfer{}
	h.s.Spawn("app", func(p *sim.Proc) {
		for {
			tr, ok := r.Recv(p)
			if !ok {
				return
			}
			delivered[tr.Xfer] = tr
		}
	})
	pkt := &netsim.Packet{DstIP: h.stacks[1].IP()}
	chunk := func(xfer uint64, total, idx int) {
		m := &chunkMsg{xfer: xfer, total: total, size: total * MTU, ackIP: h.stacks[0].IP(), ackPort: 5000}
		if idx == total-1 {
			m.data = xfer
		}
		pkt.Seq = chunkSeq(idx, false)
		r.recvChunk(pkt, m)
	}
	// stalled delivers every chunk of xfer but hole, lets the watchdog NACK
	// once, then fills the hole.
	stalled := func(p *sim.Proc, xfer uint64, total, hole int) {
		for i := 0; i < total; i++ {
			if i != hole {
				chunk(xfer, total, i)
			}
		}
		p.Sleep(gapTimeout + us(1))
		chunk(xfer, total, hole)
	}
	const a, b, c = finishedCap + 2, finishedCap + 3, finishedCap + 4
	var first *rxState
	var reused [3]bool
	h.s.Spawn("chunks", func(p *sim.Proc) {
		stalled(p, 1, 3, 1)
		first = r.free[0]
		stalled(p, 2, 2, 0)
		for x := uint64(3); x < a; x++ {
			chunk(x, 1, 0)
			p.Sleep(us(20))
		}
		for i, x := range []uint64{a, b, c} {
			total, hole := 3, 1
			switch x {
			case b:
				total, hole = 100, 70
			case c:
				total, hole = 100, 30
			}
			chunk(x, total, 0)
			st, _ := r.rx.get(xferKey{h.stacks[0].IP(), x})
			reused[i] = st == first
			stalled(p, x, total, hole)
		}
	})
	h.run(t)
	if reused != [3]bool{true, true, true} || len(r.free) != 1 {
		t.Fatalf("transfers %d, %d and %d reused transfer 1's state: %v; %d states free, want 1", a, b, c, reused, len(r.free))
	}
	want := []nack{{1, []int{1}}, {2, []int{0}}, {a, []int{1}}, {b, []int{70}}, {c, []int{30}}}
	if !reflect.DeepEqual(nacks, want) {
		t.Fatalf("NACKs %v, want %v", nacks, want)
	}
	for _, c := range []struct {
		xfer  uint64
		total int
	}{{a, 3}, {b, 100}, {c, 100}} {
		if tr := delivered[c.xfer]; tr.Data != c.xfer || tr.Size != c.total*MTU {
			t.Fatalf("transfer %d delivered %+v, want its own message of %d bytes", c.xfer, tr, c.total*MTU)
		}
	}
}

// TestOneChunkMulticastAllocs: with every receiver's finished ring full,
// so that the ring and the transfer table no longer grow, a 1 KB reliable
// multicast to three receivers allocates its one chunk descriptor and
// nothing else — no send state, no result, no control message, no
// Datagram, no rxState, no chunk bitmap, no socket, no peer or Finished
// list.
func TestOneChunkMulticastAllocs(t *testing.T) {
	h := newHub(t, 4, netsim.Gbps(1, us(10)))
	defer h.s.Shutdown()
	g := mcastGroup(h, 1, 2, 3)
	for i := 1; i <= 3; i++ {
		r := h.stacks[i].MustBindMulticast(6000)
		h.s.Spawn("recv", func(p *sim.Proc) {
			for {
				if _, ok := r.Recv(p); !ok {
					return
				}
			}
		})
	}
	start := sim.NewQueue[struct{}](h.s)
	h.s.Spawn("send", func(p *sim.Proc) {
		for {
			if _, ok := start.Pop(p); !ok {
				return
			}
			res, err := h.stacks[0].SendMulticast(p, McastOpts{To: g, ToPort: 6000, Data: "v", Size: 1024, Receivers: 3})
			if n := len(res.Finished()); err != nil || n != 3 {
				t.Errorf("err=%v, %d finished", err, n)
			}
		}
	})
	send := func() {
		start.Push(struct{}{})
		if err := h.s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < finishedCap+100; i++ {
		send()
	}
	// AllocsPerRun counts whole objects per run; the bytes, over the same
	// runs and its one warm-up, are floored alike.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(1000, send)
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / 1001
	if desc := uint64(unsafe.Sizeof(chunkMsg{})); objects != 1 || bytes > desc {
		t.Fatalf("a 1 KB multicast to 3 receivers allocated %v objects, %d bytes; want 1 of at most %d: the chunk descriptor",
			objects, bytes, desc)
	}
	if len(h.stacks[0].udp) != 1 || len(h.stacks[0].txFree) != 1 {
		t.Fatalf("the sender holds %d sockets and %d pooled send states, want one of each", len(h.stacks[0].udp), len(h.stacks[0].txFree))
	}
}

// TestReleasedControlSocketIsDrainedAndDeaf: a control socket goes back
// to the pool with nothing queued, even what arrived for its transfer
// after the send stopped reading, and takes in no control message while
// pooled — so its next send reads only its own. Past 2^32 sends the header
// names a transfer by its low 32 bits: the socket serving transfer 2^32
// (bits 0, a pooled socket's number) takes its own DONE, not its
// predecessor's, and once pooled takes neither.
func TestReleasedControlSocketIsDrainedAndDeaf(t *testing.T) {
	h := newHub(t, 1, netsim.Gbps(1, 0))
	st := h.stacks[0]
	u, err := st.ctrlSocket()
	if err != nil {
		t.Fatal(err)
	}
	arrive := func(xfers ...uint64) {
		for _, x := range xfers {
			u.deliver(&netsim.Packet{Proto: netsim.ProtoUDP, Size: mctrlSize, Payload: doneCtrl, Seq: ctrlSeq(x, 1)})
		}
	}
	for _, xfer := range []uint64{7, 1 << 32} {
		u.xfer = xfer
		arrive(xfer, xfer-1)
		if n := u.rq.Len(); n != 1 {
			t.Fatalf("%d messages queued for transfer %d, want its own one", n, xfer)
		}
		st.releaseCtrl(u)
		arrive(xfer, 0)
		if again, _ := st.ctrlSocket(); again != u || u.rq.Len() != 0 {
			t.Fatalf("reacquired socket is the released one: %v; %d messages queued, want 0", again == u, u.rq.Len())
		}
	}
	h.s.Shutdown()
}
