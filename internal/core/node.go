package core

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/controller"
	"repro/internal/harmonia"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// NodeConfig parameterizes one NICEKV storage node.
type NodeConfig struct {
	Addr           controller.NodeAddr
	Meta           netsim.IP // metadata service address
	MetaPort       uint16
	Space          ring.Space // key -> partition
	HeartbeatEvery sim.Time
	// AckTimeout is one protocol-phase wait; a peer missing two in a row
	// is reported to the metadata service (§4.4 failure detection).
	AckTimeout sim.Time
	Disk       kvstore.DiskConfig
	// QuorumK, when non-zero, makes the primary commit after any K
	// participants (itself included) finish each phase, mirroring the
	// any-k multicast transport (§5, §6.3).
	QuorumK int
	// CPUPerOp is the per-request processing cost charged on the node's
	// (serial) CPU; it is what makes a hot node a bottleneck.
	CPUPerOp sim.Time
	// Cache, when non-nil, is the in-switch hot-key cache this node's
	// traffic traverses; every commit invalidates its copy there before
	// the client can be acknowledged.
	Cache SwitchCache
	// Harmonia, when non-nil, is the in-switch dirty-set stage this
	// node's traffic traverses; every commit and abort is reported to it
	// before the acknowledgment it unblocks can be generated. It also
	// turns on replica-side read serving: a get landing on
	// harmonia.ReplicaPort (rewritten there by the dirty-set stage) is
	// answered from the local store, gated on the key having no in-flight
	// write here; reads on the normal data port are primary-routed by
	// definition (get.go).
	Harmonia HarmoniaHook
	// Storage, when non-nil, backs the node's store with the durable
	// sharded engine (internal/storage): crash drops unfsynced WAL state
	// and recovery really replays the log instead of resurrecting memory.
	Storage *storage.Config
	// CoalesceGets shares one store read among concurrent gets of the
	// same key on this node (thundering-herd suppression, DESIGN.md §16):
	// gets that pass the consistency gates while another get's store read
	// is in flight ride that read and are answered from its result. Off
	// by default — the serving path is bit-identical without it.
	CoalesceGets bool
	// PutBatchWindow, when > 0, arms the per-partition put accumulator:
	// a primary reaching its commit point lingers this long so
	// co-arriving commits for the same partition are drained together —
	// one timestamp-assignment pass, one fsync, one batched timestamp
	// multicast. 0 = off (bit-identical default path).
	PutBatchWindow sim.Time
	// PutBatchMax caps the ops drained per accumulated commit batch.
	PutBatchMax int
}

// DefaultNodeConfig fills the timing knobs.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		HeartbeatEvery: 500 * time.Millisecond,
		AckTimeout:     250 * time.Millisecond,
		Disk:           kvstore.SSD(),
		CPUPerOp:       25 * time.Microsecond,
		PutBatchMax:    64,
	}
}

// NodeStats counts protocol activity on one node.
type NodeStats struct {
	Puts        int64 // puts participated in (committed)
	PutsPrimary int64 // puts coordinated as primary
	Aborts      int64
	Gets        int64
	GetForwards int64 // handoff misses forwarded to the primary
	Reports     int64 // peer-failure reports sent
	Resolutions int64 // locked objects resolved after promotion
	DupPuts     int64 // retried puts answered from the dedup record
	GetsHeld    int64 // gets not answered: no consistent copy reachable
	// Read-distribution counters (harmonia mode): where this node's
	// answered gets were served from relative to partition leadership.
	GetsServedLocal     int64 // answered while primary of the key's partition
	GetsServedAsReplica int64 // answered as a non-primary replica
	GetsHeldConflict    int64 // replica-side holds: key had an in-flight write here
	GetsHeldNotPrimary  int64 // primary-routed gets held: this node is not (yet) primary
	// RecoveryFetchFails counts sync rounds that left at least one view
	// member unanswered (the fetch is retried until every member replies).
	RecoveryFetchFails int64
	// Batching counters (DESIGN.md §16).
	GetsCoalesced int64 // gets answered by riding another get's store read
	BatchCommits  int64 // accumulator batches drained as primary
	BatchedPuts   int64 // puts committed through those batches
}

// nodeSet is a set of node indexes: a bitmap below 64, and a map, made on
// first use, above (no deployment has more than 15 nodes).
type nodeSet struct {
	low  uint64
	high map[int]bool
}

func (s *nodeSet) add(i int) {
	if uint(i) < 64 {
		s.low |= 1 << i
		return
	}
	if s.high == nil {
		s.high = make(map[int]bool)
	}
	s.high[i] = true
}

func (s *nodeSet) has(i int) bool {
	if uint(i) < 64 {
		return s.low&(1<<i) != 0
	}
	return s.high[i]
}

// merge adds every member of o to s.
func (s *nodeSet) merge(o *nodeSet) {
	s.low |= o.low
	for i := range o.high {
		s.add(i)
	}
}

// putState tracks one in-flight put at a participant. States are
// recycled through the node's free list (registerPut, releasePut): the
// put's handler owns one from registration to release, and everything
// else reaches it only through Node.puts.
type putState struct {
	req  *PutRequest
	ack1 nodeSet
	ack2 nodeSet
	sig  *sim.Queue[struct{}]
	ts   *sim.Future[TsMsg]
	// quorum is ackQuorum's participant buffer, item the put's slot in a
	// commit batch (batch.go), and obj the object phase one prepares
	// (preparePut); the store and the WAL keep copies of it.
	quorum []controller.NodeAddr
	item   batchItem
	obj    kvstore.Object
	// coord is the primary this node acknowledges the put to; only its
	// timestamp messages are verdicts on the put. A deposed primary not
	// yet told may still commit its own attempt of the same operation, at
	// a version the current primary's commit does not match.
	coord netsim.IP
	// life is the incarnation the put registered in. A handler that
	// blocked across a crash/restart finds it ended and abandons: its lock
	// and put state died with it, so touching the store would corrupt the
	// reborn node (e.g. unlocking a lock a post-restart put now holds).
	life *incarnation
}

// orphanState buffers protocol messages that raced ahead of the local
// put handler (acks can outrun the primary's own disk write).
type orphanState struct {
	ack1   nodeSet
	ack2   nodeSet
	ts     TsMsg
	hasTs  bool
	tsFrom netsim.IP // the sender of ts
}

// orphanCap bounds the early-message buffers a node remembers: a buffer
// is needed for one disk write at most, and the ones aborted operations
// leave behind are forgotten oldest first.
const orphanCap = 4096

// orphanRef queues one buffer for forgetting; o tells a buffer since
// merged into its put, or replaced by a retry's, from the live one.
type orphanRef struct {
	k reqKey
	o *orphanState
}

// Node is one NICEKV storage node. Its fields outlive a crash; what one
// life of the node knows is its incarnation.
type Node struct {
	*incarnation

	cfg   NodeConfig
	stack *transport.Stack
	s     *sim.Simulator
	store *kvstore.Store
	pool  *connPool

	data  *transport.UDPSocket
	rdata *transport.UDPSocket // replica-routed reads (harmonia mode only)
	mcast *transport.MulticastReceiver
	ctrl  *transport.UDPSocket

	primarySeq uint64
	stats      NodeStats
	cpu        *sim.Resource // per-node serial processing

	freePuts    sim.Free[putState]  // released put states
	freeTasks   sim.Free[task]      // idle handler spawns
	freeReads   sim.Free[readState] // read states their leaders are done with
	freeBatches sim.Free[sim.Gather[putBatch]]

	// The messages this node sends, handed back by the last of their
	// holders (counted).
	ack1s      sim.Free[Ack1]
	ack2s      sim.Free[Ack2]
	putReplies sim.Free[PutReply]
	tsMsgs     sim.Free[BatchTsMsg]

	// names holds the per-op procs' names, built once in Start.
	names struct{ put, get, fwdget, rget, bget, cachefetch string }
}

// incarnation is one life of a node, from its start or a Restart to the
// next Restart: everything a fail-stop crash loses. Restart installs a
// fresh one, and a proc that started in an earlier life finds it ended
// (Node.ended) and touches nothing of the new one.
type incarnation struct {
	views      map[int]*controller.PartitionView
	handoffFor map[int]bool // partitions this node stands in for
	joined     map[netsim.IP]bool

	puts    map[reqKey]*putState
	orphans map[reqKey]*orphanState
	// orphanAge is a ring of the last orphanCap buffers created; once
	// full, the oldest sits at orphanHead.
	orphanAge  []orphanRef
	orphanHead int
	recovering bool
	rejoined   bool         // RejoinInfo received in this life
	resolving  map[int]bool // partitions with a resolution in flight
	syncing    map[int]bool // promoted any-k primary still range-syncing

	// staleHandoff marks handoff-directory keys installed by a dedup
	// re-commit (TsMsg.Dup): the version may predate this node's stand-in
	// tenure, so a directory hit on such a key is forwarded to the
	// primary instead of served (get.go). Cleared when a genuine commit
	// supersedes the entry or the handoff stint ends. A stint also ends
	// with the crash: the directory missed every write while this node
	// was down, and serving it in a later stint would resurrect stale
	// versions.
	staleHandoff map[int]map[string]bool

	// reads tracks in-flight coalescable store reads by key
	// (CoalesceGets): the first get to reach the store becomes the read
	// leader, later arrivals park here and are answered from its result.
	reads map[string]*readState

	// batches holds the per-partition open commit batch (PutBatchWindow):
	// puts reaching the commit point while a batch leader lingers join it
	// instead of committing alone.
	batches map[int]*sim.Gather[putBatch]

	// committed remembers the versions of recently committed puts by
	// client quadruplet, so a retry of an already-committed put converges
	// on the original version instead of re-running 2PC (which could roll
	// a newer value back). Bounded FIFO; an evicted entry only costs the
	// retry a fresh — still convergent — protocol round. committedLog is
	// a ring of committed's keys in arrival order; once full, the oldest
	// sits at committedHead. It dies with the life: a durable store may
	// have lost a commit it records (a crash before the fsync), which a
	// retry must not be acked on.
	committed     dedupTable
	committedLog  []reqKey
	committedHead int
}

func newIncarnation(recovering bool) *incarnation {
	return &incarnation{
		views:        make(map[int]*controller.PartitionView),
		handoffFor:   make(map[int]bool),
		joined:       make(map[netsim.IP]bool),
		puts:         make(map[reqKey]*putState),
		orphans:      make(map[reqKey]*orphanState),
		recovering:   recovering,
		resolving:    make(map[int]bool),
		syncing:      make(map[int]bool),
		staleHandoff: make(map[int]map[string]bool),
		reads:        make(map[string]*readState),
		batches:      make(map[int]*sim.Gather[putBatch]),
	}
}

// ended reports whether life, the incarnation a proc started in, is over:
// the node restarted since, and the proc must leave the new life alone.
func (n *Node) ended(life *incarnation) bool { return n.incarnation != life }

// committedCap bounds the put-dedup memory.
const committedCap = 4096

// NewNode builds a node on a host's transport stack.
func NewNode(stack *transport.Stack, cfg NodeConfig) *Node {
	store := kvstore.New(stack.Sim(), cfg.Disk)
	if cfg.Storage != nil {
		store = kvstore.NewDurable(stack.Sim(), cfg.Disk, *cfg.Storage)
	}
	store.SetNIC(stack.Host().Port())
	return &Node{
		incarnation: newIncarnation(false),
		cfg:         cfg,
		stack:       stack,
		s:           stack.Sim(),
		store:       store,
		pool:        newConnPool(stack),
		cpu:         sim.NewResource(stack.Sim()),
	}
}

// recordCommit remembers a committed put for retry deduplication.
func (n *Node) recordCommit(ts kvstore.Timestamp) {
	k := tsKey(ts)
	if _, ok := n.committed.get(k); !ok {
		if len(n.committedLog) < committedCap {
			n.committedLog = append(n.committedLog, k)
		} else {
			n.committed.del(n.committedLog[n.committedHead])
			n.committedLog[n.committedHead] = k
			n.committedHead = (n.committedHead + 1) % committedCap
		}
	}
	n.committed.put(ts)
}

// Store exposes the local engine (tests and experiments inspect it).
func (n *Node) Store() *kvstore.Store { return n.store }

// Stats returns protocol counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Start binds the node's endpoints and spawns its service processes.
func (n *Node) Start() {
	n.data = n.stack.MustBindUDP(n.cfg.Addr.DataPort)
	n.mcast = n.stack.MustBindMulticast(n.cfg.Addr.DataPort)
	n.ctrl = n.stack.MustBindUDP(n.cfg.Addr.CtrlPort)
	ln := n.stack.MustListen(n.cfg.Addr.DataPort)
	n.names.put, n.names.get, n.names.fwdget = n.name("put"), n.name("get"), n.name("fwdget")
	n.names.rget, n.names.bget, n.names.cachefetch = n.name("rget"), n.name("bget"), n.name("cachefetch")

	n.s.Spawn(n.name("hb"), n.heartbeatLoop)
	n.s.Spawn(n.name("ctrl"), n.ctrlLoop)
	n.s.Spawn(n.name("data"), n.dataLoop)
	n.s.Spawn(n.name("mcast"), n.mcastLoop)
	if n.cfg.Harmonia != nil {
		n.rdata = n.stack.MustBindUDP(harmonia.ReplicaPort)
		n.s.Spawn(n.name("rdata"), n.replicaDataLoop)
	}
	n.s.Spawn(n.name("accept"), func(p *sim.Proc) {
		for {
			conn, ok := ln.Accept(p)
			if !ok {
				return
			}
			n.s.Spawn(n.name("peer"), func(p *sim.Proc) { n.serveConn(p, conn) })
		}
	})
}

// name builds a proc name for a rare spawn; the per-op ones are n.names.
func (n *Node) name(role string) string {
	return "node" + strconv.Itoa(n.cfg.Addr.Index) + "-" + role
}

// heartbeatLoop reports liveness and load to the metadata service.
func (n *Node) heartbeatLoop(p *sim.Proc) {
	for {
		p.Sleep(n.cfg.HeartbeatEvery)
		st := n.store.Stats()
		hs := n.stack.Host().Stats()
		ep := make(map[int]uint64, len(n.views))
		for part, v := range n.views {
			ep[part] = v.Epoch
		}
		n.ctrl.SendTo(n.cfg.Meta, n.cfg.MetaPort, &controller.Heartbeat{
			Node: n.cfg.Addr.Index,
			Load: controller.LoadStats{
				Puts: st.Puts, Gets: st.Gets,
				BytesIn: hs.BytesRecv, BytesOut: hs.BytesSent,
			},
			Epochs: ep,
		}, ctrlMsgSize)
	}
}

// ctrlLoop applies membership updates from the metadata service.
func (n *Node) ctrlLoop(p *sim.Proc) {
	for {
		d, ok := n.ctrl.Recv(p)
		if !ok {
			return
		}
		switch m := d.Data.(type) {
		case *controller.PartitionUpdate:
			n.applyView(m.View, false)
		case *controller.HandoffAssign:
			n.applyView(m.View, true)
		case *controller.RejoinInfo:
			info := m
			n.rejoined = true
			n.s.Spawn(n.name("recover"), func(p *sim.Proc) { n.recover(p, info) })
		case *controller.RejoinOrder:
			// The controller saw our heartbeat while it thinks we are down
			// (a missed RejoinRequest, or a failure verdict that raced our
			// restart): start the rejoin procedure over.
			n.Restart()
		case *controller.ExpandAssign:
			view := m.View
			n.s.Spawn(n.name("expand"), func(p *sim.Proc) { n.expand(p, view) })
		case *controller.CacheFetchRequest:
			n.spawn(n.names.cachefetch, m, false)
		}
	}
}

// applyView installs a new partition view, adjusting multicast
// subscriptions and detecting promotion to primary.
func (n *Node) applyView(v *controller.PartitionView, asHandoff bool) {
	old := n.views[v.Partition]
	// Views order by (writer generation, epoch): a promoted standby's
	// views (higher Gen) supersede the old primary's regardless of
	// epoch, and a fenced zombie's announcements (lower Gen) are
	// rejected no matter how far its private epochs ran ahead.
	if old != nil && (v.Gen < old.Gen || (v.Gen == old.Gen && old.Epoch >= v.Epoch)) {
		return
	}
	if len(v.Replicas) == 0 {
		// Primary-less view: nothing can be served or committed under it.
		// The controller never announces one (a collapsed partition is
		// reseated through the first rejoiner), so this is a stale or
		// corrupt message — ignoring it beats dereferencing a primary
		// that does not exist.
		return
	}
	me := n.cfg.Addr.Index
	participating := false
	for _, r := range v.PutParticipants() {
		if r.Index == me {
			participating = true
		}
	}
	if !participating {
		// We were dropped from this partition (failure of self as seen by
		// the controller, or handoff release through a fresh view).
		delete(n.views, v.Partition)
		n.dropHandoff(v.Partition)
		n.leaveGroup(v.GroupIP)
		return
	}
	n.views[v.Partition] = v
	adopted := false
	if asHandoff {
		n.handoffFor[v.Partition] = true
	} else if n.handoffFor[v.Partition] {
		// Promoted from stand-in to proper member: fold the handoff
		// directory into the main namespace — its objects are committed,
		// versioned writes — or subsequent commits would land in the
		// wrong namespace and reads would miss them.
		n.adoptHandoff(v.Partition)
		adopted = true
	}
	if (old == nil || adopted) && !asHandoff && v.Epoch > 1 &&
		!n.recovering && !n.syncing[v.Partition] {
		// This node was placed into the replica set without the §4.4
		// recovery or expansion protocol — cascading failures make the
		// controller re-purpose a handoff stand-in as a plain member. Its
		// store may miss anything committed before now, so sync the range
		// from the surviving members; gets stay held until it lands
		// (get.go). Bootstrap views (epoch 1) start empty everywhere and
		// need no sync; a recovering node syncs in recover() instead.
		part := v.Partition
		n.syncing[part] = true
		life := n.incarnation
		n.s.Spawn(n.name("membersync"), func(p *sim.Proc) {
			defer func() { n.syncing[part] = false }()
			n.syncPartition(p, part, func() bool { return n.ended(life) }, old)
		})
	}
	n.joinGroup(v.GroupIP)

	wasPrimary := old != nil && old.Primary().Index == me
	isPrimary := v.Primary().Index == me
	if isPrimary && !wasPrimary && old != nil {
		// Promoted mid-flight: resolve objects the old primary left
		// locked (§4.4 "failures during put").
		n.maybeResolve(v.Partition, old)
	}
}

// maybeResolve runs lock resolution for a partition this node leads,
// debounced to one run at a time. old, when non-nil, is the superseded
// view at the moment of promotion, whose dropped members the
// post-promotion range sync chases (syncPartition).
func (n *Node) maybeResolve(part int, old *controller.PartitionView) {
	v := n.views[part]
	if v == nil || v.Primary().Index != n.cfg.Addr.Index || n.resolving[part] {
		return
	}
	n.resolving[part] = true
	life := n.incarnation
	syncAfter := n.cfg.QuorumK > 0 && !n.syncing[part]
	if syncAfter {
		// Any-k promotion: this node may never have seen commits the old
		// primary acknowledged, so gets must be held from the instant of
		// promotion — resolution can stall for seconds on unreachable
		// peers, and a get served meanwhile would return a stale version.
		// Puts can flow again once resolution clears; gets stay held until
		// the range sync below lands (get.go).
		n.syncing[part] = true
	}
	n.s.Spawn(n.name("resolve"), func(p *sim.Proc) {
		defer func() { n.resolving[part] = false }()
		n.resolveLocks(p, v, life)
		if !syncAfter {
			return
		}
		if n.ended(life) {
			n.syncing[part] = false
			return
		}
		// The sync aborts on demotion or another restart.
		n.s.Spawn(n.name("sync"), func(p *sim.Proc) {
			defer func() { n.syncing[part] = false }()
			n.syncPartition(p, part, func() bool {
				if n.ended(life) {
					return true
				}
				nv := n.views[part]
				return nv == nil || nv.Primary().Index != n.cfg.Addr.Index
			}, old)
		})
	})
}

func (n *Node) joinGroup(g netsim.IP) {
	if !n.joined[g] {
		n.joined[g] = true
		n.stack.Host().JoinMulticast(g)
	}
}

func (n *Node) leaveGroup(g netsim.IP) {
	// Only leave if no remaining view uses this group.
	for _, v := range n.views {
		if v.GroupIP == g {
			return
		}
	}
	if n.joined[g] {
		delete(n.joined, g)
		n.stack.Host().LeaveMulticast(g)
	}
}

// dropHandoff ends a handoff stint for a partition, deleting its
// directory entries: leftovers would be served as fresh data if this
// node is ever assigned the same partition's handoff again.
func (n *Node) dropHandoff(part int) {
	n.handoffFor[part] = false
	delete(n.staleHandoff, part)
	for _, obj := range n.store.HandoffObjects() {
		if n.cfg.Space.PartitionOf(obj.Key) == part {
			n.store.DeleteHandoff(obj.Key)
		}
	}
}

// markStaleHandoff flags a handoff-directory key as non-servable (its
// install came from a dedup re-commit); clearStaleHandoff lifts the flag
// when a genuine commit supersedes the entry.
func (n *Node) markStaleHandoff(part int, key string) {
	m := n.staleHandoff[part]
	if m == nil {
		m = make(map[string]bool)
		n.staleHandoff[part] = m
	}
	m[key] = true
}

func (n *Node) clearStaleHandoff(part int, key string) {
	if m := n.staleHandoff[part]; m != nil {
		delete(m, key)
	}
}

// adoptHandoff moves a partition's handoff objects into the main
// namespace (versioned — stale copies are rejected) when this node turns
// from stand-in into proper member.
func (n *Node) adoptHandoff(part int) {
	n.handoffFor[part] = false
	delete(n.staleHandoff, part)
	for _, obj := range n.store.HandoffObjects() {
		if n.cfg.Space.PartitionOf(obj.Key) == part {
			n.observeTs(obj.Version)
			n.store.Apply(&obj)
			n.store.DeleteHandoff(obj.Key)
		}
	}
}

// replicaDataLoop serves reads the dirty-set stage rewrote to this node
// as a non-primary replica. The dedicated port is the routing-class
// signal: only packets the switch vouched for (key clean at traversal
// time) arrive here, so they may be answered from a non-primary — still
// gated on the key having no in-flight write locally.
func (n *Node) replicaDataLoop(p *sim.Proc) {
	for {
		d, ok := n.rdata.Recv(p)
		if !ok {
			return
		}
		if m, ok := d.Data.(*GetRequest); ok {
			n.spawn(n.names.rget, m, true)
		}
	}
}

// dataLoop dispatches datagrams: get requests, protocol acks, timestamp
// multicasts, forwarded gets, and resolution orders.
func (n *Node) dataLoop(p *sim.Proc) {
	for {
		d, ok := n.data.Recv(p)
		if !ok {
			return
		}
		switch m := d.Data.(type) {
		case *GetRequest:
			n.spawn(n.names.get, m, false)
		case *ForwardedGet:
			n.spawn(n.names.fwdget, m, false)
		case *Ack1:
			k, from, committed := m.Req, m.From, m.Committed
			m.release()
			if !committed.IsZero() {
				// A verdict to this node as the put's coordinator.
				n.deliverTs(TsMsg{Req: k, Ts: committed}, n.cfg.Addr.IP)
			}
			if ps := n.puts[k]; ps != nil {
				ps.ack1.add(from)
				ps.sig.Push(struct{}{})
			} else {
				n.orphan(k).ack1.add(from)
			}
		case *Ack2:
			k, from := m.Req, m.From
			m.release()
			if ps := n.puts[k]; ps != nil {
				ps.ack2.add(from)
				ps.sig.Push(struct{}{})
			} else {
				n.orphan(k).ack2.add(from)
			}
		case *BatchTsMsg:
			// A timestamp multicast is its items: each routes, by value, to
			// its own put state (or the late-timestamp path), and nothing
			// reads the message after that.
			for i := range m.Items {
				n.deliverTs(m.Items[i], d.From)
			}
			m.release()
		case *BatchGetRequest:
			n.spawn(n.names.bget, m, false)
		case *ResolveOrder:
			n.applyOrder(m)
		case *ResolveRequest:
			n.maybeResolve(m.Partition, nil)
		}
	}
}

// deliverTs routes a timestamp message from node from to its in-flight
// put state, or to the late-timestamp path when the handler is gone (or
// the abort names a different delivery attempt than the live one). A
// live handler heeds only its coordinator (putState.coord). Whoever keeps
// m keeps a copy.
func (n *Node) deliverTs(m TsMsg, from netsim.IP) {
	ps := n.puts[m.Req]
	if ps == nil || (m.Abort && int(m.Attempt) != ps.req.Attempt) {
		// An abort from a previous delivery attempt of the same
		// operation must not reach the live attempt — its Ack1 may
		// already count toward a commit. It may still name a
		// leftover prepared record, which lateTs attempt-matches.
		n.lateTs(m, from)
	} else if from == ps.coord && !ps.ts.Done() {
		ps.ts.Set(m)
	}
}

// orphan returns (allocating) the early-message buffer for req.
func (n *Node) orphan(k reqKey) *orphanState {
	o := n.orphans[k]
	if o == nil {
		o = &orphanState{}
		n.orphans[k] = o
		if len(n.orphanAge) < orphanCap {
			n.orphanAge = append(n.orphanAge, orphanRef{k, o})
			return o
		}
		if old := n.orphanAge[n.orphanHead]; n.orphans[old.k] == old.o {
			delete(n.orphans, old.k)
		}
		n.orphanAge[n.orphanHead] = orphanRef{k, o}
		n.orphanHead = (n.orphanHead + 1) % orphanCap
	}
	return o
}

// registerPut installs put state, taken from the free list, for a put
// coordinated by coord, merging any messages that arrived early.
func (n *Node) registerPut(req *PutRequest, coord netsim.IP) *putState {
	ps := n.freePuts.Take()
	if ps == nil {
		ps = &putState{sig: sim.NewQueue[struct{}](n.s), ts: sim.NewFuture[TsMsg](n.s)}
	}
	ps.req, ps.coord, ps.life = req, coord, n.incarnation
	k := req.key()
	if o, ok := n.orphans[k]; ok {
		delete(n.orphans, k)
		ps.ack1.merge(&o.ack1)
		ps.ack2.merge(&o.ack2)
		if o.hasTs && o.tsFrom == coord && (!o.ts.Abort || int(o.ts.Attempt) == req.Attempt) {
			ps.ts.Set(o.ts)
		}
	}
	n.puts[k] = ps
	return ps
}

// releasePut ends a put handler's ownership of ps: it leaves Node.puts
// unless Restart replaced the map and a retry registered there, and goes
// on the free list with its wait queue and verdict future reset
// (leftover ack signals are dropped). The handler calls it on return, not
// in a defer: Simulator.Shutdown unwinds a parked handler by panicking
// out of its wait, with its waiter still on ps, and such a state is
// dropped with the simulator instead.
func (n *Node) releasePut(ps *putState) {
	if k := ps.req.key(); n.puts[k] == ps {
		delete(n.puts, k)
	}
	ps.sig.Reset()
	ps.ts.Reset()
	ps.req, ps.coord, ps.life = nil, 0, nil
	ps.ack1, ps.ack2 = nodeSet{}, nodeSet{}
	ps.quorum = ps.quorum[:0]
	ps.item = batchItem{}
	ps.obj = kvstore.Object{}
	n.freePuts.Put(ps)
}

// mcastLoop receives put transfers and spawns a handler per put. A
// batched prepare exists only on the wire: it is exploded here into
// independent per-op handlers, so locking, dedup, aborts and resolution
// never see the batch.
func (n *Node) mcastLoop(p *sim.Proc) {
	for {
		tr, ok := n.mcast.Recv(p)
		if !ok {
			return
		}
		switch m := tr.Data.(type) {
		case *PutRequest:
			n.spawn(n.names.put, m, false)
		case *BatchPutRequest:
			for _, req := range m.Ops {
				n.spawn(n.names.put, req, false)
			}
		}
	}
}

// task hands one message to its handler proc: a put, a get (plain,
// replica-routed, forwarded or batched) or a cache fetch. Tasks are
// pooled per Node, and run, the spawned function, is bound once when a
// task is made (as Proc.wakeFn is), so spawning a handler allocates
// nothing.
type task struct {
	n             *Node
	msg           any
	replicaRouted bool // a *GetRequest that arrived on the replica port
	run           func(p *sim.Proc)
}

// spawn starts a handler proc named name for msg.
func (n *Node) spawn(name string, msg any, replicaRouted bool) {
	t := n.freeTasks.Take()
	if t == nil {
		t = &task{n: n}
		t.run = t.exec
	}
	t.msg, t.replicaRouted = msg, replicaRouted
	n.s.Spawn(name, t.run)
}

// exec is a task's proc body: it frees the task, then handles the
// message.
func (t *task) exec(p *sim.Proc) {
	n, msg, replicaRouted := t.n, t.msg, t.replicaRouted
	t.msg, t.replicaRouted = nil, false
	n.freeTasks.Put(t)
	switch m := msg.(type) {
	case *PutRequest:
		n.handlePut(p, m)
		m.release() // the hold of the delivery this handler served
	case *GetRequest:
		n.handleGet(p, m, false, replicaRouted)
	case *ForwardedGet:
		n.handleGet(p, &m.Req, true, false)
	case *BatchGetRequest:
		for _, r := range m.Reqs {
			n.handleGet(p, r, false, false)
		}
	case *controller.CacheFetchRequest:
		n.handleCacheFetch(p, m)
	}
}

// reportFailure accuses a peer to the metadata service.
func (n *Node) reportFailure(suspect int) {
	n.stats.Reports++
	n.ctrl.SendTo(n.cfg.Meta, n.cfg.MetaPort, &controller.FailureReport{
		Reporter: n.cfg.Addr.Index,
		Suspect:  suspect,
	}, ctrlMsgSize)
}

// Crash cuts the node off the network, emulating a transient fail-stop
// failure. With a legacy store, persistent state (objects, WAL)
// survives and in-memory state (locks, in-flight puts) is lost at
// Restart. With a durable engine, the storage crash happens here, at
// the failure instant: the memory tier and every unfsynced WAL record
// are dropped deterministically, and recovery later rebuilds the store
// from snapshot + log replay. Every commit batch still open to joiners
// ends too, in partition order: its joiners return, its leader drains
// nothing.
func (n *Node) Crash() {
	n.stack.Host().SetDown(true)
	n.store.CrashStorage()
	parts := make([]int, 0, len(n.batches))
	for part := range n.batches {
		parts = append(parts, part)
	}
	sort.Ints(parts)
	for _, part := range parts {
		n.batches[part].Wake()
	}
	clear(n.batches)
}

// Recovering reports whether the node is still get-invisible
// (mid-rejoin); tests assert a takeover never strands a rejoiner here.
func (n *Node) Recovering() bool { return n.recovering }

// View returns the node's installed view of partition part (nil when it
// holds none); tests assert a fenced zombie controller never moves it.
func (n *Node) View(part int) *controller.PartitionView { return n.views[part] }

// Restart brings a crashed node back: it starts a new incarnation and
// rejoins through the two-phase §4.4 procedure, fetching missed objects
// from its handoff before becoming get-visible.
func (n *Node) Restart() {
	n.stack.Host().SetDown(false)
	n.store.ResetLocks()
	n.pool.CloseAll()
	// Leave all groups until the controller re-adds us.
	for g := range n.joined {
		n.stack.Host().LeaveMulticast(g)
	}
	// The handoff directory ends with the stint (staleHandoff); the
	// recovering owner does not need it either — recovery syncs from the
	// surviving members.
	n.store.ClearHandoff()
	life := newIncarnation(true)
	n.incarnation = life
	n.ctrl.SendTo(n.cfg.Meta, n.cfg.MetaPort, &controller.RejoinRequest{Node: n.cfg.Addr.Index}, ctrlMsgSize)
	// The request is a datagram and the network may be lossy; retry until
	// the controller's RejoinInfo arrives (a repeated request only gets
	// its RejoinInfo again).
	n.s.Spawn(n.name("rejoin-retry"), func(p *sim.Proc) {
		for {
			p.Sleep(2 * n.cfg.HeartbeatEvery)
			if n.ended(life) || n.rejoined {
				return
			}
			n.ctrl.SendTo(n.cfg.Meta, n.cfg.MetaPort, &controller.RejoinRequest{Node: n.cfg.Addr.Index}, ctrlMsgSize)
		}
	})
}
