package core

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestConnPoolPreservesOrderAcrossQueuedSends(t *testing.T) {
	f := newFixture(t, 2)
	a, b := f.hosts[0], f.hosts[1]
	var got []int
	f.serve(1, 8000, func(m transport.Message) { got = append(got, m.Data.(int)) })
	pool := newConnPool(a)
	f.s.At(0, func() {
		// Burst of sends before the dial even completes: the writer proc
		// must deliver them in order.
		for i := 0; i < 10; i++ {
			pool.Send(b.IP(), 8000, i, 1000)
		}
	})
	f.runTo(time.Second)
	if len(got) != 10 {
		t.Fatalf("received %d messages, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestConnPoolRedialsAfterPeerFailure(t *testing.T) {
	f := newFixture(t, 2)
	s, a, b := f.s, f.hosts[0], f.hosts[1]
	var got []string
	f.serve(1, 8000, func(m transport.Message) { got = append(got, m.Data.(string)) })
	pool := newConnPool(a)
	s.At(0, func() { pool.Send(b.IP(), 8000, "one", 100) })
	// Cut the peer: the cached writer dies.
	s.At(50*time.Millisecond, func() { b.Host().SetDown(true) })
	s.At(60*time.Millisecond, func() { pool.Send(b.IP(), 8000, "lost", 100) })
	// Peer returns: the next Send must establish a fresh connection.
	s.At(500*time.Millisecond, func() { b.Host().SetDown(false) })
	s.At(600*time.Millisecond, func() { pool.Send(b.IP(), 8000, "two", 100) })
	f.runTo(2 * time.Second)
	want := map[string]bool{"one": true, "two": true}
	for _, v := range got {
		delete(want, v)
	}
	if len(want) != 0 {
		t.Fatalf("messages missing after redial: got %v", got)
	}
}

// TestConnPoolCloseAllIsAddressOrdered: a restart closes the pooled
// connections in peer-address order, never the map's — each close wakes a
// writer whose FIN queues on the node's one link, so the order shows on
// the wire. Two identically driven pools tear down alike, ascending.
func TestConnPoolCloseAllIsAddressOrdered(t *testing.T) {
	ports := []uint16{8005, 8001, 8007, 8003, 8000, 8006, 8002, 8004}
	drive := func() []uint16 {
		f := newFixture(t, 2)
		s, a, b := f.s, f.hosts[0], f.hosts[1]
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
		f.runTo(time.Second)
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
		n := newFixture(t, 1).node(0, nil)
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
	n := newFixture(t, 1).node(0, nil)
	n.observeTs(kvstore.Timestamp{PrimarySeq: 7})
	if n.primarySeq != 7 {
		t.Fatalf("primarySeq = %d, want 7", n.primarySeq)
	}
	n.observeTs(kvstore.Timestamp{PrimarySeq: 3}) // older: no regression
	if n.primarySeq != 7 {
		t.Fatalf("primarySeq regressed to %d", n.primarySeq)
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
					f := newFixture(t, 1)
					n := f.node(0, nil)
					f.run(func(p *sim.Proc) {
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
	f := newFixture(t, 2)
	a, b := f.hosts[0], f.hosts[1]
	const metaPort = 9000
	toMeta := func(cfg *NodeConfig) { cfg.Meta, cfg.MetaPort = b.IP(), metaPort }
	member, rejoiner := f.start(1, toMeta), f.start(0, toMeta)
	part := member.cfg.Space.PartitionOf("k")
	view := f.view(part, 1)
	view.Recovering = []controller.NodeAddr{f.addr(0)}
	member.applyView(view, false)

	put := &PutRequest{Key: "k", Value: "v2", Size: 8, Client: 9, ClientSeq: 1}
	committed := kvstore.Timestamp{Primary: b.IP(), PrimarySeq: 2, Client: 9, ClientSeq: 1}
	var notice sim.Time
	meta := b.MustBindUDP(metaPort)
	f.s.Spawn("meta", func(p *sim.Proc) {
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
	const resolveAt = 50 * time.Millisecond
	f.s.Spawn("script", func(p *sim.Proc) {
		// The member holds the put prepared, its handler waiting on the
		// primary's verdict.
		member.store.Put(p, &kvstore.Object{Key: "k", Value: "v1", Size: 8, Version: kvstore.Timestamp{PrimarySeq: 1}})
		member.registerPut(put, b.IP())
		member.store.AppendLog(p, kvstore.LogRecord{Tag: put.key(),
			Obj: kvstore.Object{Key: "k", Value: "v2", Size: 8}}, 0)
		// The controller orders the rejoiner to rejoin and answers it.
		meta.SendTo(a.IP(), 7001, &controller.RejoinOrder{}, ctrlMsgSize)
		meta.SendTo(a.IP(), 7001, &controller.RejoinInfo{Views: []*controller.PartitionView{view.Clone()},
			Handoffs: []controller.NodeAddr{{}}}, ctrlMsgSize)
		// The put resolves.
		p.Sleep(resolveAt - p.Now())
		rec, _ := member.store.LogOf("k")
		delete(member.puts, put.key())
		member.finish(part, put.key(), rec.Attempt, &rec.Obj, committed, false)
	})
	f.runTo(time.Second)
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
		name      string
		committed kvstore.Timestamp // the vote's
		deposed   bool
		wantOK    bool
		wantVer   uint64
	}{
		{"fresh vote", kvstore.Timestamp{}, false, true, 1},
		{"dedup vote", earlier, false, true, earlier.PrimarySeq},
		{"deposed while voting", kvstore.Timestamp{}, true, false, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Node 1 is the primary, host 0 its scripted voter and client.
			f := newFixture(t, 2)
			a, b := f.hosts[0], f.hosts[1]
			primary := f.start(1, nil, 1, 0)
			part := primary.cfg.Space.PartitionOf("k")

			req := &PutRequest{Key: "k", Value: "v", Size: 8, Client: a.IP(), ClientPort: clientPort, ClientSeq: 1}
			var replies []*PutReply
			f.serve(0, clientPort, func(m transport.Message) { replies = append(replies, m.Data.(*PutReply)) })
			f.s.Spawn("put", func(p *sim.Proc) { primary.handlePut(p, req) })
			voter := a.MustBindUDP(dataPort)
			f.s.Spawn("script", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				if c.deposed {
					v := f.view(part, 0, 1)
					v.Epoch = 2
					primary.applyView(v, false)
				}
				voter.SendTo(b.IP(), dataPort, &Ack1{Req: req.key(), Committed: c.committed}, ackSize)
				voter.SendTo(b.IP(), dataPort, &Ack2{Req: req.key()}, ackSize)
			})
			f.runTo(time.Second)
			if len(replies) != 1 || replies[0].OK != c.wantOK || replies[0].Ver != c.wantVer {
				t.Fatalf("replies %+v, want one with ok=%v ver=%d", replies, c.wantOK, c.wantVer)
			}
		})
	}

	t.Run("dedup vote carries the commit", func(t *testing.T) {
		// Node 0 votes on a retry, host 1 its scripted primary.
		f := newFixture(t, 2)
		voter := f.start(0, nil, 1, 0)
		voter.recordCommit(earlier)
		votes := f.park(carrying[*Ack1])
		var vote *Ack1
		f.s.Spawn("script", func(p *sim.Proc) {
			pk := votes.next(p)
			vote = pk.pkt.Payload.(*Ack1)
			f.drop(pk)
		})
		req := &PutRequest{Key: "k", Value: "v", Size: 8, Client: 9, ClientSeq: 1, Attempt: 1}
		f.s.Spawn("retry", func(p *sim.Proc) { voter.handlePut(p, req) })
		f.runTo(time.Second)
		if vote == nil || vote.Committed != earlier {
			t.Fatalf("dedup vote %+v, want Committed %v", vote, earlier)
		}
	})

	t.Run("verdict from a non-coordinator", func(t *testing.T) {
		n := newFixture(t, 1).node(0, nil)
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
	n := &Node{incarnation: newIncarnation(false)}
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
	n := newFixture(t, 1).node(0, nil)
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
	case again.req != next || again.coord != 8 || again.life != n.incarnation || n.puts[next.key()] != again:
		t.Errorf("registered as req %p coord %v life %p", again.req, again.coord, again.life)
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
	// Node 1 is the secondary, host 0 its scripted primary.
	f := newFixture(t, 2)
	a, b := f.hosts[0], f.hosts[1]
	n := f.start(1, nil, 0, 1)

	first := &PutRequest{Key: "k", Value: "v1", Size: 8, Client: 9, ClientSeq: 1}
	second := &PutRequest{Key: "j", Value: "v2", Size: 16, Client: 9, ClientSeq: 2}
	ts := kvstore.Timestamp{Primary: a.IP(), PrimarySeq: 4, Client: 9, ClientSeq: 1}
	ack := n.cfg.AckTimeout
	var firstPS, secondPS *putState
	primary := a.MustBindUDP(7000)
	f.s.Spawn("first", func(p *sim.Proc) { n.handlePut(p, first) })
	f.s.Spawn("script", func(p *sim.Proc) {
		p.Sleep(ack)
		firstPS = n.puts[first.key()]
		p.Sleep(2 * ack)
		if n.puts[first.key()] != nil || !n.store.HasLog("k") {
			t.Error("the first handler did not give up with its put prepared")
		}
		f.s.Spawn("second", func(p *sim.Proc) { n.handlePut(p, second) })
		p.Sleep(ack / 2)
		if secondPS = n.puts[second.key()]; secondPS == nil || secondPS.obj.Key != "j" {
			t.Error("the second put is not prepared")
			return
		}
		primary.SendTo(b.IP(), 7000, &BatchTsMsg{Items: []TsMsg{{Req: first.key(), Key: "k", Ts: ts}}}, tsMsgSize)
	})
	f.runTo(time.Second)
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
	n := newFixture(t, 1).start(0, nil)
	stale := n.registerPut(&PutRequest{Key: "k", Client: 9, ClientSeq: 1}, 0)
	n.Restart()
	retry := n.registerPut(&PutRequest{Key: "k", Client: 9, ClientSeq: 1, Attempt: 1}, 0)
	if !n.ended(stale.life) || n.ended(retry.life) {
		t.Fatalf("stale life ended=%v, retry life ended=%v", n.ended(stale.life), n.ended(retry.life))
	}
	n.releasePut(stale)
	if n.puts[reqKey{Client: 9, Seq: 1}] != retry {
		t.Fatal("releasing the stale handler's state dropped the retry's registration")
	}
	if top(&n.freePuts) != stale {
		t.Fatal("the stale state was not recycled")
	}
}

// TestOnlyNamedFieldsOutliveALife: a Node field lives outside the
// incarnation, surviving Restart, only for a reason given here; a new
// field belongs in the incarnation or on this list.
func TestOnlyNamedFieldsOutliveALife(t *testing.T) {
	outlive := map[string]string{
		"incarnation": "the life itself, which Restart swaps",
		"cfg":         "configuration",
		"stack":       "the host's transport stack",
		"s":           "the simulator",
		"store":       "the storage engine, whose own crash model decides what survives",
		"pool":        "the reply streams, closed by Restart and redialled on demand",
		"data":        "a socket bound once in Start",
		"rdata":       "a socket bound once in Start",
		"mcast":       "a socket bound once in Start",
		"ctrl":        "a socket bound once in Start",
		"primarySeq":  "monotone across lives, so a restarted primary never reissues a version",
		"stats":       "counters over the node's whole run",
		"cpu":         "the node's processor",
		"freePuts":    "a free list: a state on it carries nothing of its life",
		"freeTasks":   "a free list: a task on it carries nothing of its life",
		"freeReads":   "a free list: a state on it carries nothing of its life",
		"freeBatches": "a free list: a batch on it carries nothing of its life",
		"ack1s":       "a free list of sent messages, handed back by their last holder in any life",
		"ack2s":       "a free list of sent messages, handed back by their last holder in any life",
		"putReplies":  "a free list of sent messages, handed back by their last holder in any life",
		"tsMsgs":      "a free list of sent messages, handed back by their last holder in any life",
		"names":       "proc names built once in Start",
	}
	typ := reflect.TypeOf(Node{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := outlive[name]; !ok {
			t.Errorf("Node.%s survives Restart for no stated reason: move it into incarnation or name its reason here", name)
		}
		delete(outlive, name)
	}
	for name := range outlive {
		t.Errorf("%s is listed as outliving a life but is no Node field", name)
	}
}

// TestPutAcrossARestartLeavesNoLock: a put handler still waiting on its
// CPU charge when its node crashes and restarts returns without locking
// the reborn store, so the next put of the same key commits at once
// instead of waiting out the lock's 2·AckTimeout.
func TestPutAcrossARestartLeavesNoLock(t *testing.T) {
	f := newFixture(t, 2)
	s, b := f.s, f.hosts[1]
	n := f.start(0, nil)
	cfg := n.cfg
	part := cfg.Space.PartitionOf("k")
	view := f.view(part, 0)
	n.views[part] = view
	var committed sim.Time
	f.serve(1, 8000, func(m transport.Message) {
		if m.Data.(*PutReply).OK && committed == 0 {
			committed = s.Now()
		}
	})
	put := func(seq uint64) {
		req := &PutRequest{Key: "k", Value: "v", Size: 8, Client: b.IP(), ClientPort: 8000, ClientSeq: seq}
		s.Spawn("put", func(p *sim.Proc) { n.handlePut(p, req) })
	}
	put(1)
	restartAt, nextAt := cfg.CPUPerOp/2, 2*cfg.CPUPerOp
	s.At(restartAt, func() {
		n.Crash()
		n.Restart()
		n.views[part] = view // what the rejoin installs
	})
	f.runTo(nextAt)
	if n.store.Locked("k") {
		t.Fatal("the put that straddled the restart locked the reborn store")
	}
	put(2)
	f.runTo(nextAt + 2*cfg.AckTimeout)
	if committed == 0 || committed > nextAt+cfg.AckTimeout/10 {
		t.Fatalf("the next put committed at %v, want within %v of its start at %v", committed, cfg.AckTimeout/10, nextAt)
	}
}

// TestEndedSecondaryAccusesNoOne: a secondary's handler still waiting for
// its timestamp when its node crashes and restarts returns without
// reporting the primary, whose silence its own node's crash explains.
func TestEndedSecondaryAccusesNoOne(t *testing.T) {
	f := newFixture(t, 2)
	n := f.start(1, nil, 0, 1)
	req := &PutRequest{Key: "k", Value: "v", Size: 8, Client: 9, ClientSeq: 1}
	f.s.Spawn("put", func(p *sim.Proc) { n.handlePut(p, req) })
	ack := n.cfg.AckTimeout
	f.s.Spawn("script", func(p *sim.Proc) {
		p.Sleep(ack / 2)
		n.Crash()
		n.Restart()
	})
	f.runTo(3 * ack)
	if !n.store.HasLog("k") || n.stats.Reports != 0 {
		t.Fatalf("put prepared %v, %d failure reports; want prepared and none", n.store.HasLog("k"), n.stats.Reports)
	}
}

// TestSteadyPutBookkeepingAllocatesNothing: with the free list and the
// dedup ring full, a put's registration, its quorum, its verdict routed by
// value from a batched commit, its dedup record and its release allocate
// nothing.
func TestSteadyPutBookkeepingAllocatesNothing(t *testing.T) {
	n := newFixture(t, 1).node(0, nil)
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
	f := newFixture(t, 1)
	n := f.start(0, func(cfg *NodeConfig) { cfg.PutBatchWindow = 100 * time.Microsecond })
	view := f.view(0, 0)
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
		req := &PutRequest{Key: "k" + strconv.Itoa(int(seq)), Value: "v", Size: 8, Client: 9, ClientSeq: seq}
		ps := n.registerPut(req, n.cfg.Addr.IP)
		ts, ok := n.batchCommit(p, view, req, ps, &kvstore.Object{Key: req.Key, Value: req.Value, Size: req.Size})
		results = append(results, result{round, req.ClientSeq, ts, ok, p.Now()})
		n.releasePut(ps)
	}
	var pooled []int // free batches after each round
	lead := func(rounds int) {
		f.run(func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				round := len(drained)
				for j := 0; j < joiners; j++ {
					f.s.Spawn("joiner", func(p *sim.Proc) {
						p.Sleep(10 * time.Microsecond)
						commit(p, round)
					})
				}
				commit(p, round)
				drained = append(drained, p.Now())
				pooled = append(pooled, n.freeBatches.Len())
			}
			p.Sleep(time.Millisecond) // the last round's joiners leave
		})
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

// TestCrashEndsTheOpenCommitBatch: a crash during a commit batch's linger
// ends the batch. Its joiners return ok=false at the crash, its leader
// ok=false when its linger ends, and nothing drains onto the dead node.
func TestCrashEndsTheOpenCommitBatch(t *testing.T) {
	f := newFixture(t, 1)
	s := f.s
	n := f.start(0, func(cfg *NodeConfig) { cfg.PutBatchWindow = 100 * time.Microsecond })
	view := f.view(0, 0)
	var rets []string
	for i := range 4 { // k0 leads, k1-k3 join
		s.Spawn("put", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			req := &PutRequest{Key: "k" + strconv.Itoa(i), Value: "v", Size: 8, Client: 9, ClientSeq: uint64(i + 1)}
			ps := n.registerPut(req, n.cfg.Addr.IP)
			_, ok := n.batchCommit(p, view, req, ps, &kvstore.Object{Key: req.Key, Value: req.Value, Size: req.Size})
			_, stored := n.store.Peek(req.Key)
			rets = append(rets, fmt.Sprintf("%s ok=%v stored=%v at %v", req.Key, ok, stored, p.Now()))
			n.releasePut(ps)
		})
	}
	s.At(50*time.Microsecond, n.Crash)
	s.At(time.Millisecond, s.Stop)
	f.run(nil)
	want := []string{"k1 ok=false stored=false at 50µs", "k2 ok=false stored=false at 50µs",
		"k3 ok=false stored=false at 50µs", "k0 ok=false stored=false at 100µs"}
	if !slices.Equal(rets, want) || n.stats.BatchCommits != 0 {
		t.Fatalf("returned %q after %d batch drains; want %q and none", rets, n.stats.BatchCommits, want)
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
		// Node 1 is the secondary, host 0 its scripted primary.
		f := newFixture(t, 2)
		a, b := f.hosts[0], f.hosts[1]
		n := f.start(1, nil, 0, 1)

		req := &PutRequest{Key: "k", Value: "v", Size: 8, Client: 9, ClientSeq: 1}
		commit := TsMsg{Req: req.key(), Key: "k", Ts: kvstore.Timestamp{Primary: a.IP(), PrimarySeq: 4, Client: 9, ClientSeq: 1}}
		early := TsMsg{Req: reqKey{Client: 9, Seq: 2}, Key: "k2",
			Ts: kvstore.Timestamp{Primary: a.IP(), PrimarySeq: 5, Client: 9, ClientSeq: 2}}
		sock := a.MustBindUDP(dataPort)
		votes, confirms := f.park(carrying[*Ack1]), f.park(carrying[*Ack2])
		f.s.Spawn("script", func(p *sim.Proc) {
			f.drop(votes.next(p))
			if batched {
				sock.SendTo(b.IP(), dataPort, &BatchTsMsg{Items: []TsMsg{commit, early}}, batchHeader+2*tsMsgSize)
			} else {
				sock.SendTo(b.IP(), dataPort, &BatchTsMsg{Items: []TsMsg{commit}}, tsMsgSize)
				sock.SendTo(b.IP(), dataPort, &BatchTsMsg{Items: []TsMsg{early}}, tsMsgSize)
			}
			f.drop(confirms.next(p))
			out.Ack2 = true
		})
		f.s.Spawn("put", func(p *sim.Proc) { n.handlePut(p, req) })
		f.runTo(time.Second)
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

	n := newFixture(t, 1).node(0, nil)
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
