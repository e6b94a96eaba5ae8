package core

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

// getFixture is a one-node cluster on a's stack serving key "k" as the
// primary of its partition, and a reader on b's reply port that hands
// every reply it receives to onReply.
func getFixture(t *testing.T, s *sim.Simulator, a, b *transport.Stack, onReply func(*GetReply)) (*Node, *GetRequest) {
	t.Helper()
	cfg := DefaultNodeConfig()
	cfg.Addr = controller.NodeAddr{IP: a.IP(), DataPort: 7000, CtrlPort: 7001}
	cfg.Space = ring.NewSpace(2)
	n := NewNode(a, cfg)
	n.names.get, n.names.rget = "get", "rget"
	n.views[cfg.Space.PartitionOf("k")] = &controller.PartitionView{Replicas: []controller.NodeAddr{cfg.Addr}}
	n.store.Apply(&kvstore.Object{Key: "k", Value: "v", Size: 100, Version: kvstore.Timestamp{PrimarySeq: 1}})
	ln := b.MustListen(8000)
	s.Spawn("reader", func(p *sim.Proc) {
		c, ok := ln.Accept(p)
		for ok {
			var m transport.Message
			if m, ok = c.Recv(p); ok {
				onReply(m.Data.(*GetReply))
			}
		}
	})
	return n, &GetRequest{Key: "k", ReqID: 7, Client: b.IP(), ClientPort: 8000}
}

// TestAnswerNeverRewritesAnInFlightReply: a request answered twice before
// its reader has read the first reply gets a second, distinct reply, and
// the first keeps its fields; once the reader frees the room, the next
// answer is written there again.
func TestAnswerNeverRewritesAnInFlightReply(t *testing.T) {
	s, a, b := pair(t)
	defer s.Shutdown()
	var got []GetReply // the fields each reply had when it was read
	var reps []*GetReply
	n, req := getFixture(t, s, a, b, func(rep *GetReply) {
		got = append(got, *rep)
		reps = append(reps, rep)
	})
	n.sendGetReply(req, kvstore.Object{Value: "v1", Size: 10, Version: kvstore.Timestamp{PrimarySeq: 1}}, true)
	n.sendGetReply(req, kvstore.Object{Value: "v2", Size: 20, Version: kvstore.Timestamp{PrimarySeq: 2}}, true)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []GetReply{
		{ReqID: 7, Found: true, Value: "v1", Size: 10, Ver: 1},
		{ReqID: 7, Found: true, Value: "v2", Size: 20, Ver: 2},
	}
	if len(reps) != 2 || reps[0] == reps[1] {
		t.Fatalf("replies %p, want two distinct ones", reps)
	}
	for i := range want {
		if got[i] != want[i] || *reps[i] != want[i] {
			t.Errorf("reply %d read as %+v, now %+v; want %+v", i, got[i], *reps[i], want[i])
		}
	}
	if reps[0] != &req.reply {
		t.Fatal("the first answer was not written into the request's room")
	}

	codec := SwitchCodec{}
	pkt := &netsim.Packet{Payload: req}
	req.FreeReply(reps[1]) // not from the room: the room stays taken
	if rep := codec.MakeReply(pkt, "v3", 30, 3).Payload.(*GetReply); rep == &req.reply || *reps[0] != want[0] {
		t.Fatal("a cache answer overwrote the unread reply in the room")
	}
	req.FreeReply(reps[0])
	if rep := codec.MakeReply(pkt, "v4", 40, 4).Payload.(*GetReply); rep != &req.reply ||
		*rep != (GetReply{ReqID: 7, Found: true, Value: "v4", Size: 40, Ver: 4}) {
		t.Fatalf("after the reader freed the room the answer went to %p (%+v), want the room", rep, *rep)
	}
}

// TestSteadyGetAllocatesNothing: a get served from memory — its handler
// spawned from a recycled task, its reply written into the request's
// room and streamed back, the room freed by the reader — allocates
// nothing, and a recycled task starts clean whatever kind of get it last
// carried.
func TestSteadyGetAllocatesNothing(t *testing.T) {
	s, a, b := pair(t)
	defer s.Shutdown()
	var req *GetRequest
	var n *Node
	replies := 0
	n, req = getFixture(t, s, a, b, func(rep *GetReply) {
		if rep != &req.reply || rep.Value != "v" {
			t.Errorf("reply %p %+v, want the room holding the stored value", rep, *rep)
		}
		req.FreeReply(rep)
		replies++
	})
	round := func() {
		n.spawn(n.names.get, req, false)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	n.spawn(n.names.rget, req, true)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if task := top(&n.freeTasks); task == nil || task.msg != nil || task.replicaRouted {
		t.Fatalf("the replica-routed get's task came back as %+v, want a clean one", task)
	}
	round()
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("a steady get allocates %v objects, want 0", allocs)
	}
	if want := 1003; replies != want || n.stats.Gets != int64(want) {
		t.Fatalf("%d replies for %d gets, want %d", replies, n.stats.Gets, want)
	}
}

// TestCoalescedReadStateIsRecycled: a coalescing read leader hands its
// read state back once it has answered itself and its waiter, with no
// waiter left in it, and the next leader reads through the same state.
// A leader whose node restarted while it read hands its state back too.
func TestCoalescedReadStateIsRecycled(t *testing.T) {
	s, a, b := pair(t)
	defer s.Shutdown()
	var leader, waiter *GetRequest
	replies := 0
	n, leader := getFixture(t, s, a, b, func(rep *GetReply) {
		leader.FreeReply(rep)
		waiter.FreeReply(rep)
		replies++
	})
	n.cfg.CoalesceGets = true
	waiter = &GetRequest{Key: leader.Key, ReqID: 8, Client: leader.Client, ClientPort: leader.ClientPort}
	var held []*readState // the state each round's leader reads through
	round := func(restart bool) {
		s.Spawn("leader", func(p *sim.Proc) { n.serveRead(p, leader) })
		s.Spawn("waiter", func(p *sim.Proc) {
			held = append(held, n.reads[leader.Key])
			n.serveRead(p, waiter)
			if restart {
				n.restartGen++ // what Restart does to a read in flight
				n.reads = make(map[string]*readState)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round(false)
	round(false)
	if replies != 4 || n.stats.GetsCoalesced != 2 {
		t.Fatalf("%d replies, %d coalesced gets; want 4, 2", replies, n.stats.GetsCoalesced)
	}
	if held[0] == nil || held[1] != held[0] || n.freeReads.Len() != 1 || top(&n.freeReads) != held[0] {
		t.Fatalf("leaders read through %v, %d free states; want one state, reused and back", held, n.freeReads.Len())
	}
	if rs := top(&n.freeReads); len(rs.waiters) != 0 || cap(rs.waiters) == 0 {
		t.Fatalf("recycled state holds %d waiters (cap %d), want none with its capacity", len(rs.waiters), cap(rs.waiters))
	}
	round(true)
	if rs := top(&n.freeReads); replies != 4 || n.freeReads.Len() != 1 || rs != held[0] || len(rs.waiters) != 0 {
		t.Fatalf("after a restart mid-read: %d replies, %d free states; want no new reply and the state back", replies, n.freeReads.Len())
	}
}
