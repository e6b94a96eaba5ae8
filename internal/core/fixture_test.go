package core

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

// fixture is the one network this package's tests run on: hosts
// 10.0.0.1 up, each on a 1 Gb/s link to one switch of 1 µs latency,
// driven by simulator seed 1 (the tests' timing constants assume all
// three). The switch sends unicast to its address and floods everything
// else, unless a rule parks the packet (park) for a script to forward,
// drop or duplicate. Node i runs on host i.
type fixture struct {
	t     *testing.T
	s     *sim.Simulator
	nw    *netsim.Network
	sw    *netsim.Switch
	hosts []*transport.Stack
	port  map[netsim.IP]int // a host's switch port
	rules []*parking

	ops   *sim.Queue[func(p *sim.Proc)] // run's, to its driver proc
	key   string                        // put's
	putOp func(p *sim.Proc)
	err   error
}

// fixtureParts is every fixture node's partition count; partition i's put
// group is fixtureGroups' i-th address.
const fixtureParts = 2

var fixtureGroups = ring.MustVRing(netsim.PrefixOf(netsim.MustParseIP("239.1.0.0"), 24), fixtureParts, 0)

func newFixture(t *testing.T, hosts int) *fixture {
	s := sim.New(1)
	t.Cleanup(s.Shutdown)
	f := &fixture{t: t, s: s, nw: netsim.NewNetwork(s), port: map[netsim.IP]int{}}
	f.sw = f.nw.NewSwitch("sw", hosts, time.Microsecond)
	for i := range hosts {
		h := f.nw.NewHost("h"+strconv.Itoa(i), netsim.IPv4(10, 0, 0, byte(i+1)))
		f.nw.Connect(h.Port(), f.sw.Port(i), netsim.Gbps(1, 0))
		f.port[h.IP()] = i
		f.hosts = append(f.hosts, transport.NewStack(h))
	}
	f.sw.SetPipeline(netsim.PipelineFunc(func(_ *netsim.Switch, pkt *netsim.Packet, in int) {
		for _, r := range f.rules {
			if r.match(pkt) {
				r.q.Push(parked{pkt, in})
				return
			}
		}
		f.forward(parked{pkt, in})
	}))
	return f
}

// parked is a packet a rule holds at the switch, and the port it came in
// on.
type parked struct {
	pkt *netsim.Packet
	in  int
}

// parking holds the packets one rule matched, in arrival order.
type parking struct {
	match func(*netsim.Packet) bool
	q     *sim.Queue[parked]
}

// park holds every packet match accepts at the switch from now on; the
// first rule a packet matches holds it.
func (f *fixture) park(match func(*netsim.Packet) bool) *parking {
	r := &parking{match: match, q: sim.NewQueue[parked](f.s)}
	f.rules = append(f.rules, r)
	return r
}

// carrying matches the packets whose payload is an M.
func carrying[M any](pkt *netsim.Packet) bool {
	_, ok := pkt.Payload.(M)
	return ok
}

// next waits for the next packet r holds.
func (r *parking) next(p *sim.Proc) parked {
	pk, _ := r.q.Pop(p)
	return pk
}

// forward sends pk on as the switch does by default.
func (f *fixture) forward(pk parked) {
	if i, ok := f.port[pk.pkt.DstIP]; ok {
		pk.pkt.DstMAC = f.hosts[i].Host().MAC()
		f.sw.Output(i, pk.pkt)
		return
	}
	f.sw.Flood(pk.pkt, pk.in)
	f.nw.RecyclePacket(pk.pkt)
}

// drop discards pk.
func (f *fixture) drop(pk parked) { f.sw.Drop(pk.pkt) }

// dup forwards pk and a pooled copy of it, which holds its payload too.
func (f *fixture) dup(pk parked) {
	f.forward(parked{f.nw.ClonePacket(pk.pkt), pk.in})
	f.forward(pk)
}

// run runs op in the fixture's driver proc, and the simulator until op
// returns; with no op, until no event is left.
func (f *fixture) run(op func(p *sim.Proc)) {
	if op != nil {
		if f.ops == nil {
			f.ops = sim.NewQueue[func(p *sim.Proc)](f.s)
			f.s.Spawn("driver", func(p *sim.Proc) {
				for op, ok := f.ops.Pop(p); ok; op, ok = f.ops.Pop(p) {
					op(p)
					f.s.Stop()
				}
			})
		}
		f.ops.Push(op)
	}
	if err := f.s.Run(); err != nil {
		f.t.Fatal(err)
	}
}

// runTo runs the simulator to virtual time t.
func (f *fixture) runTo(t sim.Time) {
	if err := f.s.RunUntil(t); err != nil {
		f.t.Fatal(err)
	}
}

// drain runs op, then two more virtual seconds, so that every handler op
// started has returned.
func (f *fixture) drain(op func(p *sim.Proc)) {
	f.run(func(p *sim.Proc) {
		op(p)
		p.Sleep(2 * time.Second)
	})
}

// addr is node i's address.
func (f *fixture) addr(i int) controller.NodeAddr {
	h := f.hosts[i]
	return controller.NodeAddr{Index: i, IP: h.IP(), MAC: h.Host().MAC(), DataPort: 7000, CtrlPort: 7001}
}

// node builds node i, not started, with edit applied to its default
// configuration (nil for none).
func (f *fixture) node(i int, edit func(*NodeConfig)) *Node {
	cfg := DefaultNodeConfig()
	cfg.Addr, cfg.Space = f.addr(i), ring.NewSpace(fixtureParts)
	if edit != nil {
		edit(&cfg)
	}
	return NewNode(f.hosts[i], cfg)
}

// start builds node i as node does, starts it, and installs for every
// partition the view with the given replicas, if any.
func (f *fixture) start(i int, edit func(*NodeConfig), replicas ...int) *Node {
	n := f.node(i, edit)
	n.Start()
	for part := 0; len(replicas) > 0 && part < fixtureParts; part++ {
		n.applyView(f.view(part, replicas...), false)
	}
	return n
}

// view is partition part's epoch-1 view with the given nodes as its
// replicas, the first its primary.
func (f *fixture) view(part int, replicas ...int) *controller.PartitionView {
	v := &controller.PartitionView{Partition: part, Epoch: 1, GroupIP: fixtureGroups.SubgroupPrefix(part).Addr}
	for _, i := range replicas {
		v.Replicas = append(v.Replicas, f.addr(i))
	}
	return v
}

// serve hands every message reaching host i's stream port to fn.
func (f *fixture) serve(i int, port uint16, fn func(m transport.Message)) {
	ln := f.hosts[i].MustListen(port)
	f.s.Spawn("server", func(p *sim.Proc) {
		for conn, ok := ln.Accept(p); ok; conn, ok = ln.Accept(p) {
			f.s.Spawn("reader", func(p *sim.Proc) {
				for m, ok := conn.Recv(p); ok; m, ok = conn.Recv(p) {
					fn(m)
				}
			})
		}
	})
}

// getServer builds node 0, not started, holding key k as the primary of
// its partition, and a reader on host 1's reply port that hands every
// reply it receives to onReply; req is a get of k from there.
func (f *fixture) getServer(onReply func(*GetReply)) (n *Node, req *GetRequest) {
	n = f.node(0, nil)
	n.names.get, n.names.rget = "get", "rget"
	part := n.cfg.Space.PartitionOf("k")
	n.views[part] = f.view(part, 0)
	n.store.Apply(&kvstore.Object{Key: "k", Value: "v", Size: 100, Version: kvstore.Timestamp{PrimarySeq: 1}})
	f.serve(1, 8000, func(m transport.Message) { onReply(m.Data.(*GetReply)) })
	return n, &GetRequest{Key: "k", ReqID: 7, Client: f.hosts[1].IP(), ClientPort: 8000}
}

// cluster starts a node on every host but host 0, each a replica of
// every partition and host 1 the primary, heartbeats an hour apart, and
// on host 0 a client that multicasts a put to its partition's group.
func (f *fixture) cluster() (*Client, []*Node) {
	var replicas []int
	for i := 1; i < len(f.hosts); i++ {
		replicas = append(replicas, i)
	}
	var nodes []*Node
	for _, i := range replicas {
		nodes = append(nodes, f.start(i, func(cfg *NodeConfig) { cfg.HeartbeatEvery = time.Hour }, replicas...))
	}
	cfg := DefaultClientConfig()
	cfg.Multicast, cfg.R = fixtureGroups, len(replicas)
	c := NewClient(f.hosts[0], cfg)
	c.Start()
	f.putOp = func(p *sim.Proc) { _, f.err = c.Put(p, f.key, "v", 1024) }
	return c, nodes
}

// put runs one 1 KB put of key on the cluster and fails the test if it
// fails.
func (f *fixture) put(key string) {
	f.key = key
	f.run(f.putOp)
	if f.err != nil {
		f.t.Fatal(f.err)
	}
}

// TestParkedPacketSteps pins what a script does to parked packets: none
// arrives until the script acts, forwarded ones arrive in the order they
// were sent, a dropped one never arrives, a duplicated one arrives twice,
// and every copy lets go of the payload it carries, so each message goes
// back to its sender once.
func TestParkedPacketSteps(t *testing.T) {
	f := newFixture(t, 2)
	a, b := f.hosts[0], f.hosts[1]
	tx, rx := a.MustBindUDP(7000), b.MustBindUDP(7000)
	var got []uint64
	f.s.Spawn("reader", func(p *sim.Proc) {
		for d, ok := rx.Recv(p); ok; d, ok = rx.Recv(p) {
			m := d.Data.(*BatchTsMsg)
			got = append(got, m.Items[0].Ts.PrimarySeq)
			m.release()
		}
	})
	var sent sim.Free[BatchTsMsg]
	held := f.park(carrying[*BatchTsMsg])
	f.run(func(p *sim.Proc) {
		for seq := range uint64(4) {
			m := takeCounted(&sent)
			m.Items = append(m.Items[:0], TsMsg{Ts: kvstore.Timestamp{PrimarySeq: seq}})
			tx.SendTo(b.IP(), 7000, m, tsMsgSize)
			m.release()
		}
		if p.Sleep(time.Millisecond); len(got) != 0 {
			t.Errorf("parked packets delivered: %v", got)
		}
		f.forward(held.next(p))
		f.drop(held.next(p))
		f.dup(held.next(p))
		f.forward(held.next(p))
		p.Sleep(time.Millisecond)
	})
	if want := []uint64{0, 2, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
	if sent.Len() != 4 {
		t.Errorf("%d of 4 messages back at their sender", sent.Len())
	}
}
