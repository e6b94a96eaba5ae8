package noob

import (
	"repro/internal/kvstore"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Consistency selects the storage protocol (§6: the NOOB prototype
// implements both).
type Consistency int

const (
	// PrimaryOnly: the primary serves everything and pushes replicas in
	// one round; no consistency protocol (Fig. 2, solid arrows).
	PrimaryOnly Consistency = iota
	// TwoPC: textbook two-phase commit; data travels in the prepare
	// round (Fig. 2, dashed arrows).
	TwoPC
	// QuorumRW is the majority-based design of Paxos/Raft-style systems
	// the paper contrasts in §3.3: writes wait for a majority, and reads
	// must also consult a majority (returning the newest version) because
	// rejoining nodes may hold stale data — "unnecessary high overhead
	// during get operations".
	QuorumRW
)

// Majority returns the quorum size for r replicas.
func Majority(r int) int { return r/2 + 1 }

// Replication selects how the primary disseminates copies.
type Replication int

const (
	// Unicast: R-1 concurrent streams from the primary (the default
	// NOOB behaviour the paper critiques).
	Unicast Replication = iota
	// Chain: chain replication [43]: each node forwards to the next.
	Chain
)

// NodeConfig parameterizes a NOOB storage node.
type NodeConfig struct {
	Self        Addr
	Nodes       []Addr // full membership, ring order
	Placement   ring.Placement
	Space       ring.Space
	Consistency Consistency
	Replication Replication
	// QuorumK, when non-zero, makes puts return after K replicas
	// (including the primary) hold the object; stragglers finish in the
	// background (§6.3).
	QuorumK int
	Disk    kvstore.DiskConfig
	// CPUPerOp is the per-request processing cost on the node's serial
	// CPU.
	CPUPerOp sim.Time
}

// NodeStats counts protocol activity.
type NodeStats struct {
	Puts       int64
	Gets       int64
	Forwards   int64 // requests this node proxied to the right owner
	Replicated int64 // replica copies pushed
}

// Node is a NOOB storage node: full membership, end-host replication.
type Node struct {
	cfg   NodeConfig
	stack *transport.Stack
	s     *sim.Simulator
	store *kvstore.Store
	pool  *rpcPool
	cpu   *sim.Resource
	seq   uint64
	stats NodeStats
}

// NewNode builds a NOOB node on a host stack.
func NewNode(stack *transport.Stack, cfg NodeConfig) *Node {
	store := kvstore.New(stack.Sim(), cfg.Disk)
	store.SetNIC(stack.Host().Port())
	return &Node{
		cfg:   cfg,
		stack: stack,
		s:     stack.Sim(),
		store: store,
		pool:  newRPCPool(stack),
		cpu:   sim.NewResource(stack.Sim()),
	}
}

// Store exposes the local engine.
func (n *Node) Store() *kvstore.Store { return n.store }

// Stats returns protocol counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Start begins serving requests.
func (n *Node) Start() {
	ln := n.stack.MustListen(n.cfg.Self.Port)
	serveRPC(n.stack, ln, n.handle)
}

// replicasOf returns the replica set of key's partition, primary first.
func (n *Node) replicasOf(key string) []Addr {
	part := n.cfg.Space.PartitionOf(key)
	idxs := n.cfg.Placement.Replicas(part)
	out := make([]Addr, len(idxs))
	for i, idx := range idxs {
		out[i] = n.cfg.Nodes[idx]
	}
	return out
}

// handle dispatches one inbound request.
func (n *Node) handle(p *sim.Proc, body any) (any, int) {
	n.cpu.Use(p, n.cfg.CPUPerOp)
	switch m := body.(type) {
	case *PutReq:
		return n.handlePut(p, m)
	case *GetReq:
		return n.handleGet(p, m)
	case *Prepare:
		n.store.Lock(p, m.Key, putID(m.Ver), 0)
		obj := kvstore.Object{Key: m.Key, Value: m.Value, Size: m.Size, Version: m.Ver}
		n.store.AppendLog(p, kvstore.LogRecord{Obj: obj, Tag: putID(m.Ver)}, 0)
		return &Ack{OK: true, From: n.cfg.Self.Index}, ackSize
	case *Commit:
		if rec, ok := n.store.LogOf(m.Key); ok && rec.Obj.Version == m.Ver {
			n.store.Apply(&rec.Obj)
			n.store.Release(m.Key, putID(m.Ver))
			n.stats.Puts++
		}
		return &Ack{OK: true, From: n.cfg.Self.Index}, ackSize
	case *Abort:
		if rec, ok := n.store.LogOf(m.Key); ok && rec.Obj.Version == m.Ver {
			n.store.Release(m.Key, putID(m.Ver))
		}
		return &Ack{OK: true, From: n.cfg.Self.Index}, ackSize
	case *LocalGet:
		obj, ok := n.store.Get(p, m.Key)
		if !ok {
			return &LocalGetResp{}, respOverhead
		}
		return &LocalGetResp{Found: true, Value: obj.Value, Size: obj.Size, Ver: obj.Version},
			obj.Size + respOverhead
	case *Replicate:
		n.store.Put(p, &kvstore.Object{Key: m.Key, Value: m.Value, Size: m.Size, Version: m.Ver})
		n.stats.Puts++
		if len(m.Chain) > 0 {
			// Chain replication: forward before acking upstream so the
			// tail write is covered by the ack chain.
			next := m.Chain[0]
			rest := m.Chain[1:]
			fwd := &Replicate{Key: m.Key, Value: m.Value, Size: m.Size, Ver: m.Ver, Chain: rest}
			if _, ok := n.pool.Call(p, next, fwd, m.Size+reqOverhead); !ok {
				return &Ack{OK: false, From: n.cfg.Self.Index}, ackSize
			}
		}
		return &Ack{OK: true, From: n.cfg.Self.Index}, ackSize
	}
	return &PutResp{OK: false, Err: "unknown request"}, respOverhead
}

// putID names a 2PC put by its version: the primary stamps every put
// with a fresh (its address, sequence number) pair.
func putID(ver kvstore.Timestamp) kvstore.PutID {
	return kvstore.PutID{Client: ver.Primary, Seq: ver.PrimarySeq}
}

// handlePut serves a write. A node that is not the key's primary proxies
// the request onward (the ROG extra hop); the primary replicates per the
// configured mode.
func (n *Node) handlePut(p *sim.Proc, m *PutReq) (any, int) {
	replicas := n.replicasOf(m.Key)
	primary := replicas[0]
	if primary.Index != n.cfg.Self.Index {
		n.stats.Forwards++
		resp, ok := n.pool.Call(p, primary, m, m.Size+reqOverhead)
		if !ok {
			return &PutResp{OK: false, Err: "primary unreachable"}, respOverhead
		}
		return resp, respOverhead
	}
	return n.primaryPut(p, m, replicas)
}

// primaryPut runs the configured replication + consistency protocol.
func (n *Node) primaryPut(p *sim.Proc, m *PutReq, replicas []Addr) (any, int) {
	n.seq++
	ver := kvstore.Timestamp{Primary: n.cfg.Self.IP, PrimarySeq: n.seq}
	secondaries := replicas[1:]

	switch n.cfg.Consistency {
	case TwoPC:
		return n.put2PC(p, m, ver, secondaries)
	case QuorumRW:
		// Majority write: primary counts toward the quorum; stragglers
		// complete in the background.
		saved := n.cfg.QuorumK
		n.cfg.QuorumK = Majority(len(secondaries) + 1)
		resp, size := n.putPrimaryOnly(p, m, ver, secondaries)
		n.cfg.QuorumK = saved
		return resp, size
	default:
		return n.putPrimaryOnly(p, m, ver, secondaries)
	}
}

// putPrimaryOnly writes locally then pushes copies (Fig. 2 solid path):
// concurrent unicast streams, a chain, or an any-k quorum of them.
func (n *Node) putPrimaryOnly(p *sim.Proc, m *PutReq, ver kvstore.Timestamp, secondaries []Addr) (any, int) {
	n.store.Put(p, &kvstore.Object{Key: m.Key, Value: m.Value, Size: m.Size, Version: ver})
	n.stats.Puts++

	if len(secondaries) == 0 {
		return &PutResp{OK: true}, respOverhead
	}

	if n.cfg.Replication == Chain {
		// Head of chain is the first secondary; ack returns when the
		// whole chain wrote.
		msg := &Replicate{Key: m.Key, Value: m.Value, Size: m.Size, Ver: ver, Chain: secondaries[1:]}
		n.stats.Replicated += int64(len(secondaries))
		if _, ok := n.pool.Call(p, secondaries[0], msg, m.Size+reqOverhead); !ok {
			return &PutResp{OK: false, Err: "chain failed"}, respOverhead
		}
		return &PutResp{OK: true}, respOverhead
	}

	// Concurrent unicast replication: the primary sends every copy
	// itself — the network-non-optimal pattern the paper measures.
	need := len(secondaries)
	if n.cfg.QuorumK > 0 {
		need = n.cfg.QuorumK - 1 // primary counts toward the quorum
		if need < 0 {
			need = 0
		}
		if need > len(secondaries) {
			need = len(secondaries)
		}
	}
	acks := sim.NewQueue[bool](n.s)
	for _, sec := range secondaries {
		sec := sec
		n.stats.Replicated++
		n.s.Spawn("replicate", func(p *sim.Proc) {
			msg := &Replicate{Key: m.Key, Value: m.Value, Size: m.Size, Ver: ver}
			resp, ok := n.pool.Call(p, sec, msg, m.Size+reqOverhead)
			ack, isAck := resp.(*Ack)
			acks.Push(ok && isAck && ack.OK)
		})
	}
	got := 0
	for got < need {
		ok2, alive := acks.Pop(p)
		if !alive {
			break
		}
		if ok2 {
			got++
		} else {
			return &PutResp{OK: false, Err: "replica failed"}, respOverhead
		}
	}
	return &PutResp{OK: true}, respOverhead
}

// put2PC runs textbook 2PC: prepare (with data) to every secondary, then
// commit; the primary participates locally in both rounds.
func (n *Node) put2PC(p *sim.Proc, m *PutReq, ver kvstore.Timestamp, secondaries []Addr) (any, int) {
	// Local prepare.
	id := putID(ver)
	n.store.Lock(p, m.Key, id, 0)
	obj := kvstore.Object{Key: m.Key, Value: m.Value, Size: m.Size, Version: ver}
	n.store.AppendLog(p, kvstore.LogRecord{Obj: obj, Tag: id}, 0)

	round := func(mk func() any, size int, quorum int) bool {
		if len(secondaries) == 0 {
			return true
		}
		acks := sim.NewQueue[bool](n.s)
		for _, sec := range secondaries {
			sec := sec
			n.s.Spawn("2pc", func(p *sim.Proc) {
				resp, ok := n.pool.Call(p, sec, mk(), size)
				ack, isAck := resp.(*Ack)
				acks.Push(ok && isAck && ack.OK)
			})
		}
		got := 0
		for got < quorum {
			v, alive := acks.Pop(p)
			if !alive || !v {
				return false
			}
			got++
		}
		return true
	}
	need := len(secondaries)
	if n.cfg.QuorumK > 0 {
		need = n.cfg.QuorumK - 1
		if need < 0 {
			need = 0
		}
		if need > len(secondaries) {
			need = len(secondaries)
		}
	}
	if !round(func() any { return &Prepare{Key: m.Key, Value: m.Value, Size: m.Size, Ver: ver} }, m.Size+reqOverhead, need) {
		n.store.Release(m.Key, id)
		round(func() any { return &Abort{Key: m.Key, Ver: ver} }, ackSize, 0)
		return &PutResp{OK: false, Err: "prepare failed"}, respOverhead
	}
	// Local commit.
	n.store.Apply(&obj)
	n.store.Release(m.Key, id)
	n.stats.Puts++
	if !round(func() any { return &Commit{Key: m.Key, Ver: ver} }, ackSize, need) {
		return &PutResp{OK: false, Err: "commit failed"}, respOverhead
	}
	return &PutResp{OK: true}, respOverhead
}

// handleGet serves a read, proxying to the primary when this node holds
// no replica of the key (the random-node hop of ROG).
func (n *Node) handleGet(p *sim.Proc, m *GetReq) (any, int) {
	replicas := n.replicasOf(m.Key)
	mine := false
	for _, r := range replicas {
		if r.Index == n.cfg.Self.Index {
			mine = true
			break
		}
	}
	if !mine {
		n.stats.Forwards++
		resp, ok := n.pool.Call(p, replicas[0], m, reqOverhead)
		if !ok {
			return &GetResp{}, respOverhead
		}
		if g, isGet := resp.(*GetResp); isGet {
			return g, g.Size + respOverhead
		}
		return &GetResp{}, respOverhead
	}
	n.stats.Gets++
	if n.cfg.Consistency == QuorumRW {
		return n.quorumGet(p, m)
	}
	obj, ok := n.store.Get(p, m.Key)
	if !ok {
		return &GetResp{}, respOverhead
	}
	return &GetResp{Found: true, Value: obj.Value, Size: obj.Size}, obj.Size + respOverhead
}

// quorumGet coordinates a majority read: this replica's copy plus enough
// peers to reach a majority, returning the newest version seen (§3.3 —
// the read-side price of the quorum design).
func (n *Node) quorumGet(p *sim.Proc, m *GetReq) (any, int) {
	replicas := n.replicasOf(m.Key)
	need := Majority(len(replicas)) - 1 // peers beyond the local read
	best := &LocalGetResp{}
	if obj, ok := n.store.Get(p, m.Key); ok {
		best = &LocalGetResp{Found: true, Value: obj.Value, Size: obj.Size, Ver: obj.Version}
	}
	if need > 0 {
		acks := sim.NewQueue[*LocalGetResp](n.s)
		asked := 0
		for _, r := range replicas {
			if r.Index == n.cfg.Self.Index || asked >= need {
				continue
			}
			asked++
			peer := r
			n.s.Spawn("qread", func(p *sim.Proc) {
				resp, ok := n.pool.Call(p, peer, &LocalGet{Key: m.Key}, reqOverhead)
				if lg, isLG := resp.(*LocalGetResp); ok && isLG {
					acks.Push(lg)
				} else {
					acks.Push(nil)
				}
			})
		}
		for i := 0; i < asked; i++ {
			lg, alive := acks.Pop(p)
			if !alive {
				break
			}
			if lg == nil {
				return &GetResp{}, respOverhead // quorum unreachable
			}
			if lg.Found && (!best.Found || best.Ver.Less(lg.Ver)) {
				best = lg
			}
		}
	}
	if !best.Found {
		return &GetResp{}, respOverhead
	}
	return &GetResp{Found: true, Value: best.Value, Size: best.Size}, best.Size + respOverhead
}
