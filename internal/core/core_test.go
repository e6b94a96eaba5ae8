package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

// pair wires two hosts through a tiny L3 switch and returns their
// stacks.
func pair(t *testing.T) (*sim.Simulator, *transport.Stack, *transport.Stack) {
	t.Helper()
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	a := nw.NewHost("a", netsim.MustParseIP("10.0.0.1"))
	b := nw.NewHost("b", netsim.MustParseIP("10.0.0.2"))
	sw := nw.NewSwitch("sw", 2, time.Microsecond)
	nw.Connect(a.Port(), sw.Port(0), netsim.Gbps(1, 0))
	nw.Connect(b.Port(), sw.Port(1), netsim.Gbps(1, 0))
	hosts := map[netsim.IP]int{a.IP(): 0, b.IP(): 1}
	macs := map[netsim.IP]netsim.MAC{a.IP(): a.MAC(), b.IP(): b.MAC()}
	sw.SetPipeline(netsim.PipelineFunc(func(sw *netsim.Switch, pkt *netsim.Packet, in int) {
		if port, ok := hosts[pkt.DstIP]; ok {
			pkt.DstMAC = macs[pkt.DstIP]
			sw.Output(port, pkt)
			return
		}
		sw.Drop(pkt)
	}))
	return s, transport.NewStack(a), transport.NewStack(b)
}

func TestConnPoolPreservesOrderAcrossQueuedSends(t *testing.T) {
	s, a, b := pair(t)
	ln := b.MustListen(8000)
	var got []int
	s.Spawn("server", func(p *sim.Proc) {
		conn, ok := ln.Accept(p)
		if !ok {
			return
		}
		for {
			m, ok := conn.Recv(p)
			if !ok {
				return
			}
			got = append(got, m.Data.(int))
		}
	})
	pool := newConnPool(a)
	s.At(0, func() {
		// Burst of sends before the dial even completes: the writer proc
		// must deliver them in order.
		for i := 0; i < 10; i++ {
			pool.Send(b.IP(), 8000, i, 1000)
		}
	})
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("received %d messages, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
	s.Shutdown()
}

func TestConnPoolRedialsAfterPeerFailure(t *testing.T) {
	s, a, b := pair(t)
	ln := b.MustListen(8000)
	var got []string
	s.Spawn("server", func(p *sim.Proc) {
		for {
			conn, ok := ln.Accept(p)
			if !ok {
				return
			}
			s.Spawn("reader", func(p *sim.Proc) {
				for {
					m, ok := conn.Recv(p)
					if !ok {
						return
					}
					got = append(got, m.Data.(string))
				}
			})
		}
	})
	pool := newConnPool(a)
	s.At(0, func() { pool.Send(b.IP(), 8000, "one", 100) })
	// Cut the peer: the cached writer dies.
	s.At(50*time.Millisecond, func() { b.Host().SetDown(true) })
	s.At(60*time.Millisecond, func() { pool.Send(b.IP(), 8000, "lost", 100) })
	// Peer returns: the next Send must establish a fresh connection.
	s.At(500*time.Millisecond, func() { b.Host().SetDown(false) })
	s.At(600*time.Millisecond, func() { pool.Send(b.IP(), 8000, "two", 100) })
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"one": true, "two": true}
	for _, v := range got {
		delete(want, v)
	}
	if len(want) != 0 {
		t.Fatalf("messages missing after redial: got %v", got)
	}
	s.Shutdown()
}

// TestConnPoolCloseAllIsAddressOrdered: a restart closes the pooled
// connections in peer-address order, never the map's — each close wakes a
// writer whose FIN queues on the node's one link, so the order shows on
// the wire. Two identically driven pools tear down alike, ascending.
func TestConnPoolCloseAllIsAddressOrdered(t *testing.T) {
	ports := []uint16{8005, 8001, 8007, 8003, 8000, 8006, 8002, 8004}
	drive := func() []uint16 {
		s, a, b := pair(t)
		defer s.Shutdown()
		var closed []uint16 // peer ports in the order their streams ended
		for _, port := range ports {
			ln := b.MustListen(port)
			s.Spawn("server", func(p *sim.Proc) {
				conn, ok := ln.Accept(p)
				for ok {
					_, ok = conn.Recv(p)
				}
				closed = append(closed, port)
			})
		}
		pool := newConnPool(a)
		s.At(0, func() {
			for _, port := range ports {
				pool.Send(b.IP(), port, "hello", 100)
			}
		})
		s.At(100*time.Millisecond, pool.CloseAll)
		if err := s.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		return closed
	}
	first, second := drive(), drive()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("identically driven pools closed in different orders:\n  %v\n  %v", first, second)
	}
	if len(first) != len(ports) || !slices.IsSorted(first) {
		t.Fatalf("streams ended in order %v, want all %d ascending", first, len(ports))
	}
}

// TestOrphanOverflowForgetsOldestFirst: past orphanCap the early-message
// buffer forgotten is the oldest created, never whichever the map meets
// first, and a buffer a retry re-created is not forgotten on the strength
// of its merged predecessor's age. Two identically driven nodes keep the
// same buffers.
func TestOrphanOverflowForgetsOldestFirst(t *testing.T) {
	const extra = 100
	key := func(i int) reqKey { return reqKey{Client: 1, Seq: uint64(i)} }
	drive := func() *Node {
		s, a, _ := pair(t)
		defer s.Shutdown()
		cfg := DefaultNodeConfig()
		cfg.Addr.IP = a.IP()
		n := NewNode(a, cfg)
		for i := 0; i < orphanCap+extra; i++ {
			n.orphan(key(i)).ack1.add(2)
			if i == 50 { // its put registers, merging the buffer...
				n.registerPut(&PutRequest{Client: 1, ClientSeq: 50}, 0)
			}
			if i == orphanCap { // ...and much later an ack of a retry re-creates it
				n.orphan(key(50)).ack2.add(2)
			}
		}
		return n
	}
	a, b := drive(), drive()
	if !reflect.DeepEqual(a.orphans, b.orphans) {
		t.Fatal("identically driven nodes remember different early messages")
	}
	// orphanCap+extra+1 buffers were created, so extra+1 are gone: the
	// oldest, less number 50, whose place in the queue held nothing.
	for i := 0; i < orphanCap+extra; i++ {
		_, held := a.orphans[key(i)]
		if want := i > extra || i == 50; held != want {
			t.Fatalf("buffer %d held=%v, want %v", i, held, want)
		}
	}
	if o := a.orphans[key(50)]; o.ack1.has(2) || !o.ack2.has(2) {
		t.Fatalf("buffer 50 is not the re-created one: %+v", o)
	}
	if len(a.orphanAge) != orphanCap {
		t.Fatalf("%d buffers queued, want %d", len(a.orphanAge), orphanCap)
	}
}

func TestObserveTsAdvancesClock(t *testing.T) {
	s, a, _ := pair(t)
	cfg := DefaultNodeConfig()
	cfg.Addr.IP = a.IP()
	n := NewNode(a, cfg)
	n.observeTs(kvstore.Timestamp{PrimarySeq: 7})
	if n.primarySeq != 7 {
		t.Fatalf("primarySeq = %d, want 7", n.primarySeq)
	}
	n.observeTs(kvstore.Timestamp{PrimarySeq: 3}) // older: no regression
	if n.primarySeq != 7 {
		t.Fatalf("primarySeq regressed to %d", n.primarySeq)
	}
	s.Shutdown()
}

func TestItoa(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{0, "0"}, {7, "7"}, {15, "15"}, {120, "120"}} {
		if got := itoa(c.n); got != c.want {
			t.Errorf("itoa(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

// TestLateOutcomeEndsOnlyItsOwnPrepare drives the entry points through
// which a put's outcome reaches a node whose handler for it is gone — a
// late timestamp and a resolution order, commit and abort — against
// every state a soft restart can leave the key in: the WAL keeps the old
// put's record while the lock is still its own, free, or already a newer
// put's (which may have logged too). The old put must be finished from
// its record, and nothing of the newer put — lock, record, future —
// touched.
func TestLateOutcomeEndsOnlyItsOwnPrepare(t *testing.T) {
	old, newer := reqKey{Client: 1, Seq: 1}, reqKey{Client: 2, Seq: 9}
	commit := kvstore.Timestamp{Primary: 7, PrimarySeq: 5, Client: old.Client, ClientSeq: old.Seq}
	entries := []struct {
		name    string
		deliver func(n *Node, ts kvstore.Timestamp)
	}{
		{"lateTs", func(n *Node, ts kvstore.Timestamp) {
			n.lateTs(TsMsg{Req: old, Key: "k", Ts: ts, Abort: ts.IsZero()}, 0)
		}},
		{"ResolveOrder", func(n *Node, ts kvstore.Timestamp) {
			n.applyOrder(&ResolveOrder{Key: "k", Req: old, Ts: ts})
		}},
	}
	outcomes := []struct {
		name string
		ts   kvstore.Timestamp
	}{{"commit", commit}, {"abort", kvstore.Timestamp{}}}
	states := []struct {
		name   string
		record reqKey  // whose prepare the WAL holds
		holder *reqKey // who holds the lock (nil = free)
		live   bool    // the newer put's handler is still registered
	}{
		{"lock held by its own put", old, &old, false},
		{"lock free", old, nil, false},
		{"lock held by a newer put", old, &newer, false},
		{"lock held by a newer put with a live handler", old, &newer, true},
		{"lock and record of a newer put", newer, &newer, true},
	}
	for _, e := range entries {
		for _, o := range outcomes {
			for _, st := range states {
				t.Run(e.name+"/"+o.name+"/"+st.name, func(t *testing.T) {
					s, a, _ := pair(t)
					defer s.Shutdown()
					cfg := DefaultNodeConfig()
					cfg.Addr.IP = a.IP()
					cfg.Space = ring.NewSpace(4)
					n := NewNode(a, cfg)
					s.Spawn("test", func(p *sim.Proc) {
						n.store.AppendLog(p, kvstore.LogRecord{Tag: st.record,
							Obj: kvstore.Object{Key: "k", Value: "prepared", Size: 1}}, 0)
						if st.holder != nil {
							n.store.Lock(p, "k", *st.holder, 0)
						}
						var ps *putState
						if st.live {
							ps = n.registerPut(&PutRequest{Key: "k", Client: newer.Client, ClientSeq: newer.Seq}, 0)
						}

						e.deliver(n, o.ts)

						finished := st.record == old
						rec, logged := n.store.LogOf("k")
						if logged == finished || (logged && rec.Tag != newer) {
							t.Errorf("WAL record left = %v (%+v), old put finished = %v", logged, rec.Tag, finished)
						}
						obj, have := n.store.Peek("k")
						if want := finished && !o.ts.IsZero(); have != want || (have && obj.Version != o.ts) {
							t.Errorf("committed = %v (%+v), want %v", have, obj, want)
						}
						if got := n.stats.Puts + n.stats.Aborts; finished != (got == 1) {
							t.Errorf("puts+aborts = %d, old put finished = %v", got, finished)
						}
						newerHolds := st.holder == &newer
						if n.store.Locked("k") != newerHolds {
							t.Errorf("locked = %v, want %v", n.store.Locked("k"), newerHolds)
						}
						if ps != nil && ps.ts.Done() {
							t.Error("the newer put's handler was handed the old put's outcome")
						}
						if newerHolds && (!n.store.Release("k", newer) || n.store.Locked("k")) {
							t.Error("the lock is no longer the newer put's to release")
						}
					})
					if err := s.Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestRejoinWaitsOutAnOpenPrepare: a rejoiner whose range fetch reaches a
// member while a put is prepared there but not yet resolved — its commit
// will never reach the rejoiner, whose group membership postdates the
// prepare — does not report itself consistent until the put resolves,
// and then holds the committed copy. No dirty-set stage is configured:
// the rule is the same in every mode.
func TestRejoinWaitsOutAnOpenPrepare(t *testing.T) {
	s, a, b := pair(t)
	defer s.Shutdown()
	const metaPort = 9000
	addr := func(i int, st *transport.Stack) controller.NodeAddr {
		return controller.NodeAddr{Index: i, IP: st.IP(), MAC: st.Host().MAC(), DataPort: 7000, CtrlPort: 7001}
	}
	newNode := func(i int, st *transport.Stack) *Node {
		cfg := DefaultNodeConfig()
		cfg.Addr = addr(i, st)
		cfg.Meta, cfg.MetaPort = b.IP(), metaPort
		cfg.Space = ring.NewSpace(4)
		n := NewNode(st, cfg)
		n.Start()
		return n
	}
	member, rejoiner := newNode(0, b), newNode(1, a)
	part := ring.NewSpace(4).PartitionOf("k")
	view := &controller.PartitionView{Partition: part, Epoch: 1, GroupIP: netsim.MustParseIP("239.0.0.1"),
		Replicas: []controller.NodeAddr{addr(0, b)}, Recovering: []controller.NodeAddr{addr(1, a)}}
	member.applyView(view, false)

	put := &PutRequest{Key: "k", Value: "v2", Size: 8, Client: 9, ClientSeq: 1}
	committed := kvstore.Timestamp{Primary: b.IP(), PrimarySeq: 2, Client: 9, ClientSeq: 1}
	var notice sim.Time
	meta := b.MustBindUDP(metaPort)
	s.Spawn("meta", func(p *sim.Proc) {
		for notice == 0 {
			d, ok := meta.Recv(p)
			if !ok {
				return
			}
			if _, ok := d.Data.(*controller.ConsistentNotice); ok {
				notice = p.Now()
				if obj, have := rejoiner.store.Peek("k"); !have || obj.Version != committed {
					t.Errorf("consistent at %v holding %+v, want version %v", notice, obj, committed)
				}
			}
		}
	})
	s.Spawn("prepare", func(p *sim.Proc) {
		// The member holds the put prepared, its handler waiting on the
		// primary's verdict.
		member.store.Put(p, &kvstore.Object{Key: "k", Value: "v1", Size: 8, Version: kvstore.Timestamp{PrimarySeq: 1}})
		member.registerPut(put, b.IP())
		member.store.AppendLog(p, kvstore.LogRecord{Tag: put.key(),
			Obj: kvstore.Object{Key: "k", Value: "v2", Size: 8}}, 0)
		rejoiner.recovering = true
		s.Spawn("recover", func(p *sim.Proc) {
			rejoiner.recover(p, &controller.RejoinInfo{Views: []*controller.PartitionView{view.Clone()},
				Handoffs: []controller.NodeAddr{{}}})
		})
	})
	const resolveAt = 50 * time.Millisecond
	s.At(resolveAt, func() {
		rec, _ := member.store.LogOf("k")
		delete(member.puts, put.key())
		member.finish(part, put.key(), rec.Attempt, &rec.Obj, committed, false)
	})
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if notice == 0 || notice < resolveAt {
		t.Fatalf("ConsistentNotice at %v, want after the put resolved at %v", notice, resolveAt)
	}
}

// TestPrimaryCommitPoint drives a primary's put handler to its commit
// point against a scripted voter and checks what it commits: a vote from
// a voter that already holds the put committed (a dedup Ack1) makes the
// primary commit at that version, not a fresh one the voter could not
// apply; a primary deposed while it collected the votes aborts; and a
// timestamp from anyone but the coordinator is no verdict for a voter.
func TestPrimaryCommitPoint(t *testing.T) {
	const dataPort, clientPort = 7000, 8000
	earlier := kvstore.Timestamp{PrimarySeq: 3, Client: 9, ClientSeq: 1}
	for _, c := range []struct {
		name    string
		vote    *Ack1
		deposed bool
		wantOK  bool
		wantVer uint64
	}{
		{"fresh vote", &Ack1{From: 1}, false, true, 1},
		{"dedup vote", &Ack1{From: 1, Committed: earlier}, false, true, earlier.PrimarySeq},
		{"deposed while voting", &Ack1{From: 1}, true, false, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, a, b := pair(t)
			defer s.Shutdown()
			cfg := DefaultNodeConfig()
			cfg.Addr = controller.NodeAddr{Index: 0, IP: b.IP(), MAC: b.Host().MAC(), DataPort: dataPort, CtrlPort: 7001}
			cfg.Space = ring.NewSpace(4)
			primary := NewNode(b, cfg)
			primary.Start()
			voter := controller.NodeAddr{Index: 1, IP: a.IP(), MAC: a.Host().MAC(), DataPort: dataPort}
			view := &controller.PartitionView{Partition: cfg.Space.PartitionOf("k"), Epoch: 1,
				GroupIP: netsim.MustParseIP("239.0.0.1"), Replicas: []controller.NodeAddr{cfg.Addr, voter}}
			primary.applyView(view, false)

			req := &PutRequest{Key: "k", Value: "v", Size: 8, Client: a.IP(), ClientPort: clientPort, ClientSeq: 1}
			sock := a.MustBindUDP(dataPort)
			var reply *PutReply
			ln := a.MustListen(clientPort)
			s.Spawn("client", func(p *sim.Proc) {
				if conn, ok := ln.Accept(p); ok {
					if m, ok := conn.Recv(p); ok {
						reply = m.Data.(*PutReply)
					}
				}
			})
			s.Spawn("put", func(p *sim.Proc) { primary.handlePut(p, req) })
			s.At(time.Millisecond, func() {
				if c.deposed {
					v := view.Clone()
					v.Epoch = 2
					v.Replicas = []controller.NodeAddr{voter, cfg.Addr}
					primary.applyView(v, false)
				}
				vote := *c.vote
				vote.Req = req.key()
				sock.SendTo(b.IP(), dataPort, &vote, ackSize)
				sock.SendTo(b.IP(), dataPort, &Ack2{Req: req.key(), From: 1}, ackSize)
			})
			if err := s.RunUntil(time.Second); err != nil {
				t.Fatal(err)
			}
			if reply == nil || reply.OK != c.wantOK || reply.Ver != c.wantVer {
				t.Fatalf("reply %+v, want ok=%v ver=%d", reply, c.wantOK, c.wantVer)
			}
		})
	}

	t.Run("dedup vote carries the commit", func(t *testing.T) {
		s, a, b := pair(t)
		defer s.Shutdown()
		cfg := DefaultNodeConfig()
		cfg.Addr = controller.NodeAddr{Index: 1, IP: a.IP(), MAC: a.Host().MAC(), DataPort: dataPort, CtrlPort: 7001}
		cfg.Space = ring.NewSpace(4)
		voter := NewNode(a, cfg)
		voter.Start()
		primary := controller.NodeAddr{Index: 0, IP: b.IP(), MAC: b.Host().MAC(), DataPort: dataPort}
		voter.applyView(&controller.PartitionView{Partition: cfg.Space.PartitionOf("k"), Epoch: 1,
			GroupIP: netsim.MustParseIP("239.0.0.1"), Replicas: []controller.NodeAddr{primary, cfg.Addr}}, false)
		voter.recordCommit(earlier)
		sock := b.MustBindUDP(dataPort)
		var vote *Ack1
		s.Spawn("primary", func(p *sim.Proc) {
			for vote == nil {
				d, ok := sock.Recv(p)
				if !ok {
					return
				}
				vote, _ = d.Data.(*Ack1)
			}
		})
		req := &PutRequest{Key: "k", Value: "v", Size: 8, Client: 9, ClientSeq: 1, Attempt: 1}
		s.Spawn("retry", func(p *sim.Proc) { voter.handlePut(p, req) })
		if err := s.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		if vote == nil || vote.Committed != earlier {
			t.Fatalf("dedup vote %+v, want Committed %v", vote, earlier)
		}
	})

	t.Run("verdict from a non-coordinator", func(t *testing.T) {
		s, a, _ := pair(t)
		defer s.Shutdown()
		n := NewNode(a, DefaultNodeConfig())
		coord, zombie := netsim.MustParseIP("10.0.0.2"), netsim.MustParseIP("10.0.0.9")
		req := &PutRequest{Key: "k", Client: 9, ClientSeq: 1}
		ps := n.registerPut(req, coord)
		n.deliverTs(TsMsg{Req: req.key(), Key: "k", Ts: earlier}, zombie)
		if ps.ts.Done() {
			t.Fatal("a deposed primary's timestamp became the verdict")
		}
		n.deliverTs(TsMsg{Req: req.key(), Key: "k", Ts: earlier}, coord)
		if !ps.ts.Done() {
			t.Fatal("the coordinator's timestamp was not taken")
		}
	})
}

// TestDedupMemoryIsAFIFORing: the put-dedup memory holds the last
// committedCap distinct puts, evicts the oldest first, and does not move
// a put recorded again.
func TestDedupMemoryIsAFIFORing(t *testing.T) {
	n := &Node{}
	record := func(seq uint64) { n.recordCommit(kvstore.Timestamp{Client: 9, ClientSeq: seq}) }
	has := func(seq uint64) bool { _, ok := n.committed.get(reqKey{Client: 9, Seq: seq}); return ok }
	for seq := uint64(0); seq < committedCap+10; seq++ {
		record(seq)
		if seq == 5 {
			record(0) // already held: keeps its place in the ring
		}
	}
	if n.committed.n != committedCap {
		t.Fatalf("%d puts remembered, want %d", n.committed.n, committedCap)
	}
	for seq := uint64(0); seq < committedCap+10; seq++ {
		if want := seq >= 10; has(seq) != want {
			t.Errorf("put %d remembered=%v, want %v", seq, has(seq), want)
		}
	}
}

// TestRecycledPutStateStartsClean: a released put state leaves Node.puts
// and, registered again for another put, carries nothing of the last one
// — no acks, no verdict, no wake signals, no batch slot, an empty quorum
// buffer that keeps its capacity.
func TestRecycledPutStateStartsClean(t *testing.T) {
	s, a, _ := pair(t)
	defer s.Shutdown()
	cfg := DefaultNodeConfig()
	cfg.Addr.IP = a.IP()
	n := NewNode(a, cfg)
	view := &controller.PartitionView{Replicas: []controller.NodeAddr{{Index: 0}, {Index: 1}, {Index: 2}},
		Recovering: []controller.NodeAddr{{Index: 3}}}

	req := &PutRequest{Key: "k", Client: 9, ClientSeq: 1}
	ps := n.registerPut(req, 7)
	for _, i := range []int{1, 2, 70} {
		ps.ack1.add(i)
		ps.ack2.add(i)
	}
	ps.sig.Push(struct{}{})
	ps.sig.Push(struct{}{})
	ps.ts.Set(TsMsg{Req: req.key()})
	if need, want := n.ackQuorum(view, ps); want != 3 || len(need) != 3 || need[2].Index != 3 {
		t.Fatalf("quorum %v of %d, want nodes 1, 2, 3 of 3", need, want)
	}
	ps.item = batchItem{req: req, obj: &ps.obj, ts: kvstore.Timestamp{PrimarySeq: 1}, ok: true}
	ps.obj = kvstore.Object{Key: "k", Value: "v", Size: 1}
	n.releasePut(ps)
	if _, live := n.puts[req.key()]; live {
		t.Fatal("the released state is still registered")
	}

	next := &PutRequest{Key: "j", Client: 9, ClientSeq: 2}
	again := n.registerPut(next, 8)
	if again != ps {
		t.Fatal("registerPut did not take the released state")
	}
	switch {
	case again.req != next || again.coord != 8 || again.gen != n.restartGen || n.puts[next.key()] != again:
		t.Errorf("registered as req %p coord %v gen %d", again.req, again.coord, again.gen)
	case again.ack1.low != 0 || again.ack1.high != nil || again.ack2.low != 0 || again.ack2.high != nil:
		t.Errorf("ack sets carried over: %+v %+v", again.ack1, again.ack2)
	case again.ts.Done() || again.sig.Len() != 0:
		t.Errorf("verdict set %v, %d wake signals left", again.ts.Done(), again.sig.Len())
	case again.item != (batchItem{}) || again.obj != (kvstore.Object{}):
		t.Errorf("batch slot %+v or prepared object %+v carried over", again.item, again.obj)
	case len(again.quorum) != 0 || cap(again.quorum) == 0:
		t.Errorf("quorum buffer len %d cap %d, want empty with its capacity", len(again.quorum), cap(again.quorum))
	}
}

// TestRecycledPutStateLeavesItsWALRecord: a secondary's handler that gave
// up waiting for its timestamp releases its put state, whose prepared
// object the next put's prepare overwrites; the late timestamp then
// commits the first put from its WAL record, which holds its own copy of
// the object.
func TestRecycledPutStateLeavesItsWALRecord(t *testing.T) {
	s, a, b := pair(t)
	defer s.Shutdown()
	cfg := DefaultNodeConfig()
	cfg.Addr = controller.NodeAddr{Index: 1, IP: b.IP(), MAC: b.Host().MAC(), DataPort: 7000, CtrlPort: 7001}
	cfg.Space = ring.NewSpace(4)
	n := NewNode(b, cfg)
	n.Start()
	primary := controller.NodeAddr{Index: 0, IP: a.IP(), MAC: a.Host().MAC(), DataPort: 7000}
	for part := 0; part < 4; part++ {
		n.applyView(&controller.PartitionView{Partition: part, Epoch: 1, GroupIP: netsim.MustParseIP("239.0.0.1") + netsim.IP(part),
			Replicas: []controller.NodeAddr{primary, cfg.Addr}}, false)
	}

	first := &PutRequest{Key: "k", Value: "v1", Size: 8, Client: 9, ClientSeq: 1}
	second := &PutRequest{Key: "j", Value: "v2", Size: 16, Client: 9, ClientSeq: 2}
	ack := cfg.AckTimeout
	var firstPS, secondPS *putState
	s.Spawn("first", func(p *sim.Proc) { n.handlePut(p, first) })
	s.At(ack, func() { firstPS = n.puts[first.key()] })
	s.At(3*ack, func() {
		if n.puts[first.key()] != nil || !n.store.HasLog("k") {
			t.Error("the first handler did not give up with its put prepared")
		}
		s.Spawn("second", func(p *sim.Proc) { n.handlePut(p, second) })
	})
	ts := kvstore.Timestamp{Primary: a.IP(), PrimarySeq: 4, Client: 9, ClientSeq: 1}
	s.At(3*ack+ack/2, func() {
		secondPS = n.puts[second.key()]
		if secondPS == nil || secondPS.obj.Key != "j" {
			t.Fatal("the second put is not prepared")
		}
		n.deliverTs(TsMsg{Req: first.key(), Key: "k", Ts: ts}, a.IP())
	})
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if firstPS == nil || secondPS != firstPS {
		t.Fatalf("the second put did not reuse the first's put state (%p, %p)", firstPS, secondPS)
	}
	want := kvstore.Object{Key: "k", Value: "v1", Size: 8, Version: ts}
	if got, ok := n.store.Peek("k"); !ok || got != want {
		t.Errorf("committed %+v (found %v), want %+v", got, ok, want)
	}
	if n.store.HasLog("k") || n.store.Locked("k") {
		t.Error("the late commit left its prepare open")
	}
	if _, ok := n.store.Peek("j"); ok {
		t.Error("the second put, never committed, is in the store")
	}
}

// TestStaleHandlerReleaseSparesTheRetry: a handler that outlived a
// Restart releases its put state without touching the registration a
// retry of the same put made in the new incarnation.
func TestStaleHandlerReleaseSparesTheRetry(t *testing.T) {
	s, a, _ := pair(t)
	defer s.Shutdown()
	cfg := DefaultNodeConfig()
	cfg.Addr = controller.NodeAddr{IP: a.IP(), DataPort: 7000, CtrlPort: 7001}
	n := NewNode(a, cfg)
	n.Start()
	stale := n.registerPut(&PutRequest{Key: "k", Client: 9, ClientSeq: 1}, 0)
	n.Restart()
	retry := n.registerPut(&PutRequest{Key: "k", Client: 9, ClientSeq: 1, Attempt: 1}, 0)
	if !n.stale(stale) || n.stale(retry) {
		t.Fatalf("stale=%v, retry stale=%v", n.stale(stale), n.stale(retry))
	}
	n.releasePut(stale)
	if n.puts[reqKey{Client: 9, Seq: 1}] != retry {
		t.Fatal("releasing the stale handler's state dropped the retry's registration")
	}
	if top(&n.freePuts) != stale {
		t.Fatal("the stale state was not recycled")
	}
}

// TestSteadyPutBookkeepingAllocatesNothing: with the free list and the
// dedup ring full, a put's registration, its quorum, its verdict routed by
// value from a batched commit, its dedup record and its release allocate
// nothing.
func TestSteadyPutBookkeepingAllocatesNothing(t *testing.T) {
	s, a, _ := pair(t)
	defer s.Shutdown()
	cfg := DefaultNodeConfig()
	cfg.Addr.IP = a.IP()
	n := NewNode(a, cfg)
	view := &controller.PartitionView{Replicas: []controller.NodeAddr{{Index: 0}, {Index: 1}, {Index: 2}}}
	const coord = 7
	stamp := func(seq uint64) kvstore.Timestamp {
		return kvstore.Timestamp{Primary: coord, PrimarySeq: seq, Client: 9, ClientSeq: seq}
	}
	for seq := uint64(1); seq <= committedCap; seq++ {
		n.recordCommit(stamp(seq))
	}
	req := &PutRequest{Key: "k", Client: 9}
	batch := &BatchTsMsg{Items: make([]TsMsg, 1)}
	round := func() {
		req.ClientSeq++
		ps := n.registerPut(req, coord)
		n.ackQuorum(view, ps)
		batch.Items[0] = TsMsg{Req: req.key(), Key: req.Key, Ts: stamp(committedCap + req.ClientSeq)}
		n.deliverTs(batch.Items[0], coord)
		if ps.ts.Value() != batch.Items[0] {
			t.Fatal("the batched verdict was not routed to its put")
		}
		n.recordCommit(ps.ts.Value().Ts)
		n.releasePut(ps)
	}
	round()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("a steady put's bookkeeping allocates %v objects, want 0", allocs)
	}
}

// TestCommitBatchOutlivesItsWakingJoiners: a commit batch is recycled only
// once its last joiner has left it. Each round's leader opens the next
// batch the moment its own batchCommit returns, while the joiners Set woke
// have not yet resumed; every joiner still returns at its batch's drain,
// with its own timestamp, and the free list does not grow with the rounds.
func TestCommitBatchOutlivesItsWakingJoiners(t *testing.T) {
	const joiners = 3
	s, a, _ := pair(t)
	defer s.Shutdown()
	cfg := DefaultNodeConfig()
	cfg.Addr = controller.NodeAddr{IP: a.IP(), DataPort: 7000, CtrlPort: 7001}
	cfg.PutBatchWindow = 100 * time.Microsecond
	n := NewNode(a, cfg)
	n.Start()
	view := &controller.PartitionView{GroupIP: netsim.MustParseIP("239.0.0.1"), Replicas: []controller.NodeAddr{cfg.Addr}}
	type result struct {
		round int
		seq   uint64
		ts    kvstore.Timestamp
		ok    bool
		at    sim.Time
	}
	var results []result
	var drained []sim.Time // each round's return of its leader
	var seq uint64
	commit := func(p *sim.Proc, round int) {
		seq++
		req := &PutRequest{Key: "k" + itoa(int(seq)), Value: "v", Size: 8, Client: 9, ClientSeq: seq}
		ps := n.registerPut(req, a.IP())
		ts, ok := n.batchCommit(p, view, req, ps, &kvstore.Object{Key: req.Key, Value: req.Value, Size: req.Size})
		results = append(results, result{round, req.ClientSeq, ts, ok, p.Now()})
		n.releasePut(ps)
	}
	var pooled []int // free batches after each round
	lead := func(rounds int) {
		s.Spawn("leader", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				round := len(drained)
				for j := 0; j < joiners; j++ {
					s.Spawn("joiner", func(p *sim.Proc) {
						p.Sleep(10 * time.Microsecond)
						commit(p, round)
					})
				}
				commit(p, round)
				drained = append(drained, p.Now())
				pooled = append(pooled, n.freeBatches.Len())
			}
			p.Sleep(time.Millisecond) // the last round's joiners leave
			s.Stop()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	lead(8)
	afterN := n.freeBatches.Len()
	lead(8)
	if len(results) != 16*(joiners+1) {
		t.Fatalf("%d puts returned from 16 rounds of %d", len(results), joiners+1)
	}
	for _, r := range results {
		if !r.ok || r.ts.Client != 9 || r.ts.ClientSeq != r.seq || r.at != drained[r.round] {
			t.Fatalf("put %d of round %d returned ok=%v with %v at %v; want its own timestamp at the drain, %v",
				r.seq, r.round, r.ok, r.ts, r.at, drained[r.round])
		}
	}
	if afterN == 0 || n.freeBatches.Len() != afterN {
		t.Fatalf("free batches: %d after 8 rounds, %d after 16; want the same, nonzero (per round: %v)", afterN, n.freeBatches.Len(), pooled)
	}
}

// TestBatchedCommitMatchesSingle: a secondary holding a prepared put ends
// in the same state whether the primary's verdicts reach it one per
// timestamp multicast or packed into one, and an item for a put it has
// not seen is buffered exactly like the lone verdict it stands for.
func TestBatchedCommitMatchesSingle(t *testing.T) {
	const dataPort = 7000
	type outcome struct {
		Obj            kvstore.Object
		Locked, Logged bool
		Live           int
		Dedup          kvstore.Timestamp
		Stats          NodeStats
		Early          TsMsg
		Ack2           bool
	}
	run := func(batched bool) (out outcome) {
		s, a, b := pair(t)
		defer s.Shutdown()
		cfg := DefaultNodeConfig()
		cfg.Addr = controller.NodeAddr{Index: 1, IP: b.IP(), MAC: b.Host().MAC(), DataPort: dataPort, CtrlPort: 7001}
		cfg.Space = ring.NewSpace(4)
		n := NewNode(b, cfg)
		n.Start()
		primary := controller.NodeAddr{Index: 0, IP: a.IP(), MAC: a.Host().MAC(), DataPort: dataPort}
		n.applyView(&controller.PartitionView{Partition: cfg.Space.PartitionOf("k"), Epoch: 1,
			GroupIP: netsim.MustParseIP("239.0.0.1"), Replicas: []controller.NodeAddr{primary, cfg.Addr}}, false)

		req := &PutRequest{Key: "k", Value: "v", Size: 8, Client: 9, ClientSeq: 1}
		commit := TsMsg{Req: req.key(), Key: "k", Ts: kvstore.Timestamp{Primary: a.IP(), PrimarySeq: 4, Client: 9, ClientSeq: 1}}
		early := TsMsg{Req: reqKey{Client: 9, Seq: 2}, Key: "k2",
			Ts: kvstore.Timestamp{Primary: a.IP(), PrimarySeq: 5, Client: 9, ClientSeq: 2}}
		sock := a.MustBindUDP(dataPort)
		s.Spawn("primary", func(p *sim.Proc) {
			for {
				d, ok := sock.Recv(p)
				if !ok {
					return
				}
				switch d.Data.(type) {
				case *Ack1:
					if batched {
						sock.SendTo(b.IP(), dataPort, &BatchTsMsg{Items: []TsMsg{commit, early}}, batchHeader+2*tsMsgSize)
					} else {
						sock.SendTo(b.IP(), dataPort, &BatchTsMsg{Items: []TsMsg{commit}}, tsMsgSize)
						sock.SendTo(b.IP(), dataPort, &BatchTsMsg{Items: []TsMsg{early}}, tsMsgSize)
					}
				case *Ack2:
					out.Ack2 = true
				}
			}
		})
		s.Spawn("put", func(p *sim.Proc) { n.handlePut(p, req) })
		if err := s.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		out.Obj, _ = n.store.Peek("k")
		out.Locked, out.Logged, out.Live = n.store.Locked("k"), n.store.HasLog("k"), len(n.puts)
		out.Dedup, _ = n.committed.get(req.key())
		out.Stats = n.stats
		if o := n.orphans[early.Req]; o != nil && o.hasTs {
			out.Early = o.ts
		}
		return out
	}
	single, batched := run(false), run(true)
	if !reflect.DeepEqual(single, batched) {
		t.Fatalf("single commit left %+v\nbatched commit left %+v", single, batched)
	}
	if !single.Ack2 || single.Obj.Value != "v" || single.Obj.Version.PrimarySeq != 4 || single.Dedup.PrimarySeq != 4 ||
		single.Locked || single.Logged || single.Live != 0 || single.Early.Key != "k2" {
		t.Fatalf("the secondary did not commit the put and buffer the early verdict: %+v", single)
	}
}

// TestNodeSetBeyondTheBitmap: an ack set keeps indexes below 64 in its
// bitmap, with no map, and those from 64 up in a map alike; a merge is
// the union; and a put registered after early acks of both phases holds
// exactly the buffered sets.
func TestNodeSetBeyondTheBitmap(t *testing.T) {
	members := func(s *nodeSet) (out []int) {
		for i := 0; i < 256; i++ {
			if s.has(i) {
				out = append(out, i)
			}
		}
		return out
	}
	var low nodeSet
	low.add(0)
	low.add(63)
	if low.high != nil || !slices.Equal(members(&low), []int{0, 63}) {
		t.Fatalf("indexes below 64: members %v, map %v", members(&low), low.high)
	}
	var x, y nodeSet
	for _, i := range []int{1, 64, 200} {
		x.add(i)
	}
	for _, i := range []int{1, 2, 65, 200} {
		y.add(i)
	}
	x.merge(&y)
	if got, want := members(&x), []int{1, 2, 64, 65, 200}; !slices.Equal(got, want) {
		t.Fatalf("union: %v, want %v", got, want)
	}

	s, a, _ := pair(t)
	defer s.Shutdown()
	cfg := DefaultNodeConfig()
	cfg.Addr.IP = a.IP()
	n := NewNode(a, cfg)
	k := reqKey{Client: 1, Seq: 9}
	for _, i := range []int{2, 70} {
		n.orphan(k).ack1.add(i)
	}
	for _, i := range []int{4, 99} {
		n.orphan(k).ack2.add(i)
	}
	ps := n.registerPut(&PutRequest{Client: 1, ClientSeq: 9}, 0)
	if !slices.Equal(members(&ps.ack1), []int{2, 70}) || !slices.Equal(members(&ps.ack2), []int{4, 99}) {
		t.Fatalf("registered put holds ack1 %v, ack2 %v; want [2 70], [4 99]", members(&ps.ack1), members(&ps.ack2))
	}
	if _, left := n.orphans[k]; left {
		t.Fatal("the merged buffer is still held")
	}
}
