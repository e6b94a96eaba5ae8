package core

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/controller"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

// star wires hosts 10.0.0.1… to one switch that forwards unicast by
// address and floods everything else.
func star(s *sim.Simulator, hosts int) []*transport.Stack {
	nw := netsim.NewNetwork(s)
	sw := nw.NewSwitch("sw", hosts, time.Microsecond)
	ports := map[netsim.IP]int{}
	macs := map[netsim.IP]netsim.MAC{}
	var stacks []*transport.Stack
	for i := 0; i < hosts; i++ {
		h := nw.NewHost("h"+itoa(i), netsim.IPv4(10, 0, 0, byte(i+1)))
		nw.Connect(h.Port(), sw.Port(i), netsim.Gbps(1, 0))
		ports[h.IP()], macs[h.IP()] = i, h.MAC()
		stacks = append(stacks, transport.NewStack(h))
	}
	sw.SetPipeline(netsim.PipelineFunc(func(sw *netsim.Switch, pkt *netsim.Packet, in int) {
		if port, ok := ports[pkt.DstIP]; ok {
			pkt.DstMAC = macs[pkt.DstIP]
			sw.Output(port, pkt)
			return
		}
		sw.Flood(pkt, in)
		sw.Network().RecyclePacket(pkt)
	}))
	return stacks
}

// trio wires a client and three storage nodes through a star, so the put
// and timestamp multicasts reach the nodes that joined the group. The nodes
// serve both partitions of the key space, node 0 their primary, and each
// partition's put group is its address on the client's multicast vring
// (no vnode bits). Heartbeats are an hour apart. put runs one put of key
// to completion and fails the test if it fails.
func trio(t *testing.T) (s *sim.Simulator, c *Client, nodes []*Node, put func(key string)) {
	t.Helper()
	s = sim.New(1)
	stacks := star(s, 4)

	const parts = 2
	groups := ring.MustVRing(netsim.PrefixOf(netsim.MustParseIP("239.1.0.0"), 24), parts, 0)
	var replicas []controller.NodeAddr
	for i, st := range stacks[1:] {
		replicas = append(replicas, controller.NodeAddr{Index: i, IP: st.IP(), MAC: st.Host().MAC(), DataPort: 7000, CtrlPort: 7001})
	}
	for i, st := range stacks[1:] {
		cfg := DefaultNodeConfig()
		cfg.Addr, cfg.Space, cfg.HeartbeatEvery = replicas[i], ring.NewSpace(parts), time.Hour
		n := NewNode(st, cfg)
		n.Start()
		for part := 0; part < parts; part++ {
			n.applyView(&controller.PartitionView{Partition: part, Epoch: 1, GroupIP: groups.SubgroupPrefix(part).Addr, Replicas: replicas}, false)
		}
		nodes = append(nodes, n)
	}
	ccfg := DefaultClientConfig()
	ccfg.Multicast, ccfg.R = groups, 3
	c = NewClient(stacks[0], ccfg)
	c.Start()

	var failure error
	start := sim.NewQueue[string](s)
	s.Spawn("client", func(p *sim.Proc) {
		for {
			key, ok := start.Pop(p)
			if !ok {
				return
			}
			if _, err := c.Put(p, key, "v", 1024); err != nil && failure == nil {
				failure = err
			}
			s.Stop()
		}
	})
	put = func(key string) {
		start.Push(key)
		if err := s.Run(); err != nil && failure == nil {
			failure = err
		}
		if failure != nil {
			t.Fatal(failure)
		}
	}
	return s, c, nodes, put
}

// TestAcksAndReplyReturnToTheirSender: after a put on three nodes, each
// secondary's Ack1 and Ack2 are back on that secondary's free list and
// the PutReply on the primary's, and the next put sends the same ones
// again. A message built by hand is never pooled, and releasing a
// message twice panics.
func TestAcksAndReplyReturnToTheirSender(t *testing.T) {
	s, _, nodes, put := trio(t)
	defer s.Shutdown()
	put("k")
	first := make([][3]any, len(nodes))
	for i, n := range nodes {
		wantAcks, wantReplies := 1, 0
		if i == 0 {
			wantAcks, wantReplies = 0, 1
		}
		if n.ack1s.Len() != wantAcks || n.ack2s.Len() != wantAcks || n.putReplies.Len() != wantReplies {
			t.Fatalf("node %d holds %d Ack1, %d Ack2, %d PutReply; want %d, %d, %d",
				i, n.ack1s.Len(), n.ack2s.Len(), n.putReplies.Len(), wantAcks, wantAcks, wantReplies)
		}
		first[i] = pooled(n)
	}
	put("j")
	for i, n := range nodes {
		if pooled(n) != first[i] {
			t.Fatalf("node %d did not send the messages it got back", i)
		}
	}

	sec := nodes[1]
	hand := &Ack2{Req: reqKey{Client: 9, Seq: 1}, From: 1}
	hand.release()
	if sec.ack2s.Len() != 1 {
		t.Fatal("a hand-built ack was pooled")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second release did not panic")
		}
		if sec.ack2s.Len() != 1 {
			t.Fatalf("the second release pooled the ack again: %d on the free list", sec.ack2s.Len())
		}
	}()
	top(&sec.ack2s).release()
}

// top returns the object f hands out next, and leaves it there.
func top[T any](f *sim.Free[T]) *T {
	x := f.Take()
	if x != nil {
		f.Put(x)
	}
	return x
}

// pooled names the next message on each of n's free lists.
func pooled(n *Node) [3]any {
	return [3]any{top(&n.ack1s), top(&n.ack2s), top(&n.putReplies)}
}

// TestLateAckCountsForItsOwnPut: an ack that reaches the primary after it
// released the put lands in that put's orphan buffer, and the secondary,
// reusing the returned ack for another put, leaves that buffer as it was:
// the primary kept the ack's fields, not the ack.
func TestLateAckCountsForItsOwnPut(t *testing.T) {
	s, a, b := pair(t)
	defer s.Shutdown()
	start := func(st *transport.Stack, index int) *Node {
		cfg := DefaultNodeConfig()
		cfg.Addr = controller.NodeAddr{Index: index, IP: st.IP(), MAC: st.Host().MAC(), DataPort: 7000, CtrlPort: 7001}
		n := NewNode(st, cfg)
		n.Start()
		return n
	}
	primary, secondary := start(b, 0), start(a, 1)
	late, next := reqKey{Client: 9, Seq: 1}, reqKey{Client: 9, Seq: 2}
	primary.releasePut(primary.registerPut(&PutRequest{Key: "k", Client: late.Client, ClientSeq: late.Seq}, b.IP()))

	secondary.sendAck1(primary.cfg.Addr, late, kvstore.Timestamp{})
	if err := s.RunUntil(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	o := primary.orphans[late]
	if o == nil || !o.ack1.has(1) || o.ack2.has(1) || secondary.ack1s.Len() != 1 {
		t.Fatalf("late ack: orphan %+v, %d acks back at the secondary; want ack1 from node 1, one ack back", o, secondary.ack1s.Len())
	}
	reused := top(&secondary.ack1s)
	before := *o
	secondary.sendAck1(primary.cfg.Addr, next, kvstore.Timestamp{})
	if err := s.RunUntil(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if secondary.ack1s.Len() != 1 || top(&secondary.ack1s) != reused {
		t.Fatal("the secondary did not reuse its returned ack")
	}
	if !reflect.DeepEqual(*primary.orphans[late], before) {
		t.Fatalf("the reused ack changed the late put's buffer: %+v, was %+v", *primary.orphans[late], before)
	}
	if o := primary.orphans[next]; o == nil || !o.ack1.has(1) {
		t.Fatalf("the reused ack did not count for its own put: %+v", o)
	}
}

// TestLatePutReplyIsReleasedOnce: a put reply no op waits for goes back to
// its sender from dispatch, and one an op waits for stays out until the
// op has read it; MultiPut hands back every reply it read.
func TestLatePutReplyIsReleasedOnce(t *testing.T) {
	s, c, nodes, put := trio(t)
	defer s.Shutdown()
	put("k") // the primary's reply comes back
	primary := nodes[0]
	late := takeCounted(&primary.putReplies)
	late.ReqID, late.OK = 99, true
	c.dispatch(late)
	if primary.putReplies.Len() != 1 || top(&primary.putReplies) != late {
		t.Fatal("dispatch did not hand back a reply no op waits for")
	}
	waited := takeCounted(&primary.putReplies)
	waited.ReqID, waited.OK = 100, true
	f := c.reply()
	c.pending[100] = f
	c.dispatch(waited)
	if primary.putReplies.Len() != 0 || f.Value() != any(waited) {
		t.Fatal("dispatch handed back a reply an op waits for")
	}

	// The primary answers from these three, so all three are back once
	// MultiPut has read every reply, however many it had out at once.
	stock := map[*PutReply]bool{}
	var taken []*PutReply
	for range 3 {
		m := takeCounted(&primary.putReplies)
		stock[m], taken = true, append(taken, m)
	}
	for _, m := range taken {
		m.release()
	}
	var errs []error
	s.Spawn("multiput", func(p *sim.Proc) {
		_, errs = c.MultiPut(p, []PutOp{{Key: "a", Value: "v", Size: 8}, {Key: "b", Value: "v", Size: 8}, {Key: "c", Value: "v", Size: 8}})
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if primary.putReplies.Len() != len(stock) {
		t.Fatalf("%d replies back at the primary after a 3-op MultiPut, want %d", primary.putReplies.Len(), len(stock))
	}
	for m := primary.putReplies.Take(); m != nil; m = primary.putReplies.Take() {
		if !stock[m] {
			t.Fatalf("reply %p back at the primary is not from its stock", m)
		}
	}
}

// TestSteadyPutAllocations: a put on three nodes, warmed past the dedup
// rings and the multicast receivers' finished-transfer rings, allocates
// nothing. Its request, its chunk descriptors and its timestamp multicast
// go back to their senders once their last holder lets go, and so do its
// acks, its reply and every piece of bookkeeping.
func TestSteadyPutAllocations(t *testing.T) {
	s, _, _, put := trio(t)
	defer s.Shutdown()
	for range 10_000 { // past committedCap and the receivers' 8192-transfer rings
		put("k")
	}
	if allocs := testing.AllocsPerRun(200, func() { put("k") }); allocs != 0 {
		t.Fatalf("a steady put allocates %v objects, want 0", allocs)
	}
}

// settle runs op in a proc of s, then two more virtual seconds, so every
// handler the op started has returned, and stops the run.
func settle(t *testing.T, s *sim.Simulator, op func(p *sim.Proc)) {
	t.Helper()
	s.Spawn("op", func(p *sim.Proc) {
		op(p)
		p.Sleep(2 * time.Second)
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedMessagesReturnOnce: a message with several readers goes back
// to its sender's free list exactly once, when its last holder lets go.
// With three replicas up, a put's request comes back to the client and
// its timestamp multicast to the primary, and the next put sends the same
// two again. With a member crashed, whose copy of the abort the fabric
// drops, the abort still comes back to the primary once. A release past
// the last holder panics.
func TestSharedMessagesReturnOnce(t *testing.T) {
	s, c, nodes, put := trio(t)
	defer s.Shutdown()
	primary := nodes[0]
	returned := func(when string) (*PutRequest, *BatchTsMsg) {
		t.Helper()
		if c.putReqs.Len() != 1 || primary.tsMsgs.Len() != 1 {
			t.Fatalf("%s: %d requests back at the client, %d timestamp multicasts at the primary; want one of each",
				when, c.putReqs.Len(), primary.tsMsgs.Len())
		}
		return top(&c.putReqs), top(&primary.tsMsgs)
	}
	put("k")
	req, ts := returned("after a put")
	put("j")
	if again, ts2 := returned("after a second put"); again != req || ts2 != ts {
		t.Fatal("the second put did not reuse the first one's request and timestamp multicast")
	}

	nodes[2].Crash()
	c.cfg.MaxRetries = 0
	settle(t, s, func(p *sim.Proc) {
		if _, err := c.Put(p, "k", "v", 1024); err == nil {
			t.Error("a put with a member down succeeded")
		}
	})
	if primary.tsMsgs.Len() != 1 || top(&primary.tsMsgs) != ts || !ts.Items[0].Abort {
		t.Fatalf("with a member down: %d timestamp multicasts at the primary, want the abort once", primary.tsMsgs.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a release past the last holder did not panic")
		}
		if primary.tsMsgs.Len() != 1 {
			t.Fatalf("the extra release pooled the message again: %d on the free list", primary.tsMsgs.Len())
		}
	}()
	ts.release()
}

// TestTimedOutAttemptsAreNeverRecycled: a put attempt whose multicast a
// crashed member leaves unfinished, and a get attempt nobody answers, time
// out; neither request goes back to the client's free list, since a copy
// of it may still be in flight. An answered get's request does.
func TestTimedOutAttemptsAreNeverRecycled(t *testing.T) {
	s, c, nodes, put := trio(t)
	defer s.Shutdown()
	put("k")
	c.cfg.MaxRetries = 0
	// Partition 0's reads go to node 0, partition 1's to node 1.
	c.cfg.Unicast = ring.MustVRing(netsim.PrefixOf(nodes[0].cfg.Addr.IP, 31), 2, 0)
	get := func(p *sim.Proc) error {
		_, err := c.Get(p, "k")
		return err
	}
	settle(t, s, func(p *sim.Proc) {
		if err := get(p); err != nil {
			t.Error(err)
		}
	})
	if c.getReqs.Len() != 1 || c.putReqs.Len() != 1 {
		t.Fatalf("answered put and get: %d put and %d get requests back, want one of each", c.putReqs.Len(), c.getReqs.Len())
	}

	nodes[2].Crash()
	settle(t, s, func(p *sim.Proc) {
		if _, err := c.Put(p, "k", "v", 1024); err == nil {
			t.Error("a put with a member down succeeded")
		}
	})
	if c.putReqs.Len() != 0 {
		t.Fatalf("the timed-out put attempt's request: %d on the free list, want none", c.putReqs.Len())
	}
	nodes[0].Crash()
	nodes[1].Crash()
	settle(t, s, func(p *sim.Proc) {
		if err := get(p); err == nil {
			t.Error("a get from a crashed node succeeded")
		}
	})
	if c.getReqs.Len() != 0 {
		t.Fatalf("the timed-out get attempt's request: %d on the free list, want none", c.getReqs.Len())
	}
}

// TestWireLayouts pins the sizes the put path's allocation budget rests
// on: the timestamp packs into 24 bytes, a verdict (a timestamp
// multicast's item, a put state's copy) into 64, a stored object into 64
// bytes, and a WAL record stays small enough to store inline.
func TestWireLayouts(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
		exact     bool
	}{
		{"kvstore.Timestamp", unsafe.Sizeof(kvstore.Timestamp{}), 24, true},
		{"TsMsg", unsafe.Sizeof(TsMsg{}), 64, true},
		{"kvstore.Object", unsafe.Sizeof(kvstore.Object{}), 64, true},
		{"kvstore.LogRecord", unsafe.Sizeof(kvstore.LogRecord{}), 128, false},
	} {
		if c.size > c.max || c.exact && c.size != c.max {
			t.Errorf("%s is %d B, want %d", c.name, c.size, c.max)
		}
	}
}
