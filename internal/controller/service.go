package controller

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/harmonia"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/switchcache"
	"repro/internal/transport"
)

// Rule priorities, highest wins.
const (
	prioARP     = 90 // punt ARP to the controller
	prioLB      = 60 // per-division load-balancing rules
	prioMapping = 50 // vring mapping and group-direct rules
	prioPhys    = 10 // physical host forwarding
)

// Config parameterizes the metadata service.
type Config struct {
	// Placement is the home layout: N nodes, replication level R.
	Placement ring.Placement
	// Unicast and Multicast are the two client-visible virtual rings.
	Unicast, Multicast ring.VRing
	// GroupBase is the multicast group address pool: partition p uses
	// GroupBase+p.
	GroupBase netsim.IP
	// HeartbeatEvery is the node heartbeat period (detector granularity).
	HeartbeatEvery sim.Time
	// LoadBalance enables per-source-division get steering (§4.5).
	LoadBalance bool
	// ClientSpace is the client source-address space carved into
	// divisions when LoadBalance is set.
	ClientSpace netsim.Prefix
	// CtrlPort is the metadata service's UDP port.
	CtrlPort uint16
	// StandbyIP/StandbyPort name the hot-standby metadata replica
	// (§4.1); zero disables replication.
	StandbyIP   netsim.IP
	StandbyPort uint16
	// DynamicLB enables the workload-informed division rebalancer (the
	// §8 future-work extension); requires LoadBalance.
	DynamicLB bool
	// Store is the coordination-state backend (nil = a private
	// MemStore, for a controller with no standby). The cluster builder
	// shares one ChainStore between the active controller and its
	// standby: the standby restores from it, and writer generations stay
	// monotonic across the takeover — that monotonicity is the
	// split-brain fence.
	Store StateStore
	// Cache and Harmonia are the in-switch stages on the core datapath
	// this service manages once EnableStages is called (nil = not
	// deployed); CacheManager tunes the cache's hot-key detector. Like
	// Store they are shared with the standby, whose promoted service
	// adopts them at takeover.
	Cache        *switchcache.Cache
	CacheManager CacheManagerConfig
	Harmonia     *harmonia.DirtySet
}

// DefaultConfig fills the timing knobs the paper implies.
func DefaultConfig() Config {
	return Config{
		HeartbeatEvery: 500 * time.Millisecond,
		CtrlPort:       9000,
		StandbyPort:    9090,
		CacheManager:   DefaultCacheManagerConfig(),
	}
}

const (
	// MissedHeartbeats is how many periods of silence declare a node
	// failed (the paper uses three).
	MissedHeartbeats = 3
	// RebalanceEvery is the flow-stats polling period of the dynamic
	// load-balancing rebalancer.
	RebalanceEvery = 2 * time.Second
	// RebalanceMinOps is the minimum per-partition request count in one
	// period before the rebalancer acts.
	RebalanceMinOps = 50
)

type nodeStatus int

const (
	nodeUp nodeStatus = iota
	nodeDown
	nodeRecovering
)

type nodeState struct {
	addr   NodeAddr
	status nodeStatus
	lastHB sim.Time
	load   LoadStats
}

// Stats counts control-plane work for the scalability experiments.
type Stats struct {
	NodeMsgs     int64 // membership messages sent to storage nodes
	Failures     int64
	Rejoins      int64
	Recoveries   int64
	PeerReports  int64
	HBReceived   int64
	Rebalances   int64 // dynamic-LB assignment changes
	StatsPolls   int64 // flow-stats requests issued by the rebalancer
	FencedWrites int64 // state writes rejected because a newer controller generation owns the store
	RulesPerPart int   // snapshot: forwarding entries for one partition
}

// Service is the metadata service: membership module + SDN controller.
type Service struct {
	cfg    Config
	s      *sim.Simulator
	stack  *transport.Stack
	fabric *Fabric
	ctrl   *transport.UDPSocket
	nodes  []*nodeState
	views  []*PartitionView
	stats  Stats
	trace  func(format string, args ...any) // optional event log

	// store is the coordination-state backend; gen is this instance's
	// writer generation (acquired at Start). All state writes and
	// switch mutations carry gen so a fenced zombie is rejected both at
	// the store and at the datapaths.
	store StateStore
	gen   uint64
	// restoredCache is the replicated switch-cache state a takeover read
	// from the store; enableCache reconciles the switch table against it.
	restoredCache []CacheState

	// lastHolder remembers, per collapsed partition, the final replica
	// that was removed when the view emptied. Only that node's return
	// reseats the partition: as the last primary standing it held every
	// acknowledged write, while any other rejoiner's resurrected store
	// may predate acks the deposed holder issued — reseating one of
	// those would serve (and version against) lost state. Local soft
	// state: a standby takeover forgets it, leaving the collapsed
	// partition to the operator, which is the conservative outcome.
	lastHolder map[int]NodeAddr

	// learning-switch state (§5 mapping service)
	known   map[netsim.IP]netsim.MAC // discovered hosts; their ports are the fabric's to answer
	pending map[netsim.IP][]pendingPkt
	arped   map[netsim.IP]sim.Time

	// dynamic load-balancing state (nil when disabled)
	lb map[int]*lbState

	// hot-key cache detector and in-switch dirty-set stage (nil until
	// EnableStages adopts the ones the configuration names)
	cacheMgr *CacheManager
	harmonia *harmonia.DirtySet
}

type pendingPkt struct {
	dp     *openflow.Datapath
	pkt    *netsim.Packet
	inPort int
}

// New builds the service on the metadata host's transport stack. nodes
// lists every storage node in ring order (index i = ring position i).
func New(stack *transport.Stack, fabric *Fabric, cfg Config, nodes []NodeAddr) *Service {
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	svc := &Service{
		cfg:        cfg,
		s:          stack.Sim(),
		stack:      stack,
		fabric:     fabric,
		store:      cfg.Store,
		known:      make(map[netsim.IP]netsim.MAC),
		pending:    make(map[netsim.IP][]pendingPkt),
		arped:      make(map[netsim.IP]sim.Time),
		lastHolder: make(map[int]NodeAddr),
	}
	for _, a := range nodes {
		svc.nodes = append(svc.nodes, &nodeState{addr: a, status: nodeUp})
	}
	svc.views = make([]*PartitionView, cfg.Placement.N)
	for p := 0; p < cfg.Placement.N; p++ {
		v := &PartitionView{Partition: p, Epoch: 1, GroupIP: cfg.GroupBase.Add(uint32(p))}
		for _, idx := range cfg.Placement.Replicas(p) {
			v.Replicas = append(v.Replicas, nodes[idx])
		}
		svc.views[p] = v
	}
	return svc
}

// SetTrace installs an event logger (experiments print the Fig. 11
// timeline from it).
func (svc *Service) SetTrace(fn func(format string, args ...any)) { svc.trace = fn }

func (svc *Service) tracef(format string, args ...any) {
	if svc.trace != nil {
		svc.trace(format, args...)
	}
}

// Stats returns control-plane counters.
func (svc *Service) Stats() Stats {
	st := svc.stats
	st.RulesPerPart = svc.rulesPerPartition()
	return st
}

// View returns the current view of partition p (the controller's copy;
// callers must not mutate it).
func (svc *Service) View(p int) *PartitionView { return svc.views[p] }

// Gen returns this instance's writer generation (0 before Start).
func (svc *Service) Gen() uint64 { return svc.gen }

// RegisterHost teaches the controller a host's location eagerly (the
// harness does this for infrastructure hosts; clients may instead be
// learned through ARP, see learning.go).
func (svc *Service) RegisterHost(ip netsim.IP, mac netsim.MAC) {
	svc.known[ip] = mac
	svc.installPhysRules(ip, mac)
}

// Start installs the initial rules and spawns the membership procs.
func (svc *Service) Start() {
	svc.gen = svc.store.Acquire()
	for _, v := range svc.views {
		v.Gen = svc.gen
	}
	svc.ctrl = svc.stack.MustBindUDP(svc.cfg.CtrlPort)
	for _, dp := range svc.fabric.Datapaths() {
		dp.SetController(svc)
		dp.RaiseWriterFence(svc.gen)
		// All ARP traffic goes to the controller: it is both the ARP
		// requester (host discovery) and the consumer of replies.
		arpMatch := openflow.NewMatch()
		arpMatch.Proto = netsim.ProtoARP
		dp.AddFlow(openflow.FlowEntry{
			Priority: prioARP,
			Match:    arpMatch,
			Actions:  []openflow.Action{openflow.ToController{}},
			Cookie:   "arp-punt",
		})
	}
	svc.RegisterHost(svc.stack.IP(), svc.stack.Host().MAC())
	for _, n := range svc.nodes {
		svc.RegisterHost(n.addr.IP, n.addr.MAC)
		n.lastHB = svc.s.Now()
	}
	for p := range svc.views {
		svc.installPartition(p)
		svc.announce(svc.views[p])
	}
	svc.startStandbyPing()
	svc.startDynamicLB()
	svc.s.Spawn("metadata-listener", svc.listen)
	svc.s.Spawn("metadata-detector", svc.detect)
}

// EnableStages takes over the in-switch stages the configuration names:
// the miss sampler is pointed at a fresh hot-key detector, and every
// partition's replica set is installed in the dirty set under this
// instance's writer generation. Call after Start, on the active service
// once the deployment's hosts are registered and on a promoted standby
// at takeover.
func (svc *Service) EnableStages() {
	if svc.cfg.Cache != nil {
		svc.enableCache()
	}
	if svc.cfg.Harmonia != nil {
		svc.enableHarmonia()
	}
}

// CacheManager returns the hot-key detector (nil without a cache stage).
func (svc *Service) CacheManager() *CacheManager { return svc.cacheMgr }

// listen handles node-to-controller messages.
func (svc *Service) listen(p *sim.Proc) {
	for {
		d, ok := svc.ctrl.Recv(p)
		if !ok {
			return
		}
		switch m := d.Data.(type) {
		case *Heartbeat:
			svc.stats.HBReceived++
			n := svc.nodes[m.Node]
			n.lastHB = svc.s.Now()
			n.load = m.Load
			switch n.status {
			case nodeDown:
				// A zombie: alive but marked failed (its RejoinRequest was
				// lost, or a failure verdict raced its restart). Its switch
				// rules are gone so it serves nothing; order it back through
				// the rejoin procedure rather than leaving it stranded.
				svc.sendToNode(n.addr, &RejoinOrder{}, ctrlMsgSize)
			case nodeUp:
				svc.resyncViews(m.Node, m.Epochs)
			}
		case *FailureReport:
			svc.stats.PeerReports++
			suspect := svc.nodes[m.Suspect]
			// Sanity-check the accusation against heartbeat freshness: a
			// node that reported in this period is alive; the reporter
			// likely raced a membership change.
			if suspect.status == nodeUp && svc.s.Now()-suspect.lastHB > svc.cfg.HeartbeatEvery {
				svc.tracef("%v: peer %d reported %d failed", svc.s.Now(), m.Reporter, m.Suspect)
				svc.fail(m.Suspect)
			}
		case *RejoinRequest:
			svc.handleRejoin(m.Node)
		case *ConsistentNotice:
			svc.handleConsistent(m.Node)
		case *CacheFetchReply:
			if svc.cacheMgr != nil {
				svc.cacheMgr.onFetchReply(m)
			}
		}
	}
}

// detect is the heartbeat watchdog: three missed heartbeats fail a node.
func (svc *Service) detect(p *sim.Proc) {
	limit := svc.cfg.HeartbeatEvery * MissedHeartbeats
	for {
		p.Sleep(svc.cfg.HeartbeatEvery)
		if svc.stack.Host().Down() {
			// A crashed metadata host computes nothing; when it returns
			// it must not act on heartbeats it could never have received.
			for _, n := range svc.nodes {
				n.lastHB = svc.s.Now()
			}
			continue
		}
		now := svc.s.Now()
		for _, n := range svc.nodes {
			if n.status == nodeUp && now-n.lastHB > limit {
				svc.tracef("%v: node %d missed %d heartbeats", now, n.addr.Index, MissedHeartbeats)
				svc.fail(n.addr.Index)
			}
		}
	}
}

// sendToNode pushes a control message to a storage node. Messages that
// carry a PartitionView go through sendView instead.
func (svc *Service) sendToNode(a NodeAddr, msg any, size int) {
	svc.stats.NodeMsgs++
	svc.ctrl.SendTo(a.IP, a.CtrlPort, msg, size)
}

// sendView delivers a view-bearing message to node a only after every
// datapath this generation may write has applied the mods and stage
// commands submitted so far (Datapath.Barrier). No node acts on a view
// the switches have not applied: a rejoiner starts its range sync inside
// the put multicast group, and a promoted primary learns of its
// promotion only once the fabric routes to it.
func (svc *Service) sendView(a NodeAddr, msg any, size int) {
	var dps []*openflow.Datapath
	for _, dp := range svc.fabric.Datapaths() {
		if dp.WriterAllowed(svc.gen) {
			dps = append(dps, dp)
		}
	}
	remaining := len(dps)
	if remaining == 0 {
		svc.sendToNode(a, msg, size)
		return
	}
	for _, dp := range dps {
		dp.Barrier(func() {
			if remaining--; remaining == 0 {
				svc.sendToNode(a, msg, size)
			}
		})
	}
}

// fail runs the §4.4 failure-hiding procedure for node idx.
func (svc *Service) fail(idx int) {
	n := svc.nodes[idx]
	if n.status == nodeDown {
		return
	}
	n.status = nodeDown
	svc.stats.Failures++
	for _, v := range svc.views {
		if len(v.Replicas) == 0 {
			continue // fully collapsed partition: operator territory
		}
		changed := false
		wasPrimary := v.Replicas[0].Index == idx
		// Remove the failed node wherever it appears.
		for i := 0; i < len(v.Replicas); i++ {
			if v.Replicas[i].Index == idx {
				v.Replicas = append(v.Replicas[:i], v.Replicas[i+1:]...)
				changed = true
				i--
			}
		}
		if v.IsRecovering(idx) {
			v.Recovering = removeAddr(v.Recovering, idx)
			changed = true
		}
		if !changed {
			continue
		}
		// Select a handoff node to restore the replica set (§4.4). With
		// R=1 the handoff is also the only — hence primary — replica.
		if h := svc.pickHandoff(v); h != nil {
			v.Replicas = append(v.Replicas, *h)
			v.Handoff = h
			svc.tracef("%v: partition %d handoff -> node %d", svc.s.Now(), v.Partition, h.Index)
		}
		if len(v.Replicas) == 0 {
			svc.lastHolder[v.Partition] = n.addr
			svc.tracef("%v: partition %d lost its last replica", svc.s.Now(), v.Partition)
			continue // nothing to install or announce until the holder returns
		}
		if wasPrimary {
			svc.tracef("%v: partition %d primary failed; promoting node %d",
				svc.s.Now(), v.Partition, v.Replicas[0].Index)
		}
		// The node gets the view too: if the verdict was false (a lossy
		// path, not a crash), that stops it acting as a member of v.
		svc.commitView(v, n.addr)
	}
	// Replicate the status change even when no view mentioned the node
	// (announce covers the common case but not a no-view demotion).
	svc.store.WriteStatuses(svc.gen, svc.statusVector())
}

// statusVector is the membership status of every node, index-aligned,
// in the form the state store replicates.
func (svc *Service) statusVector() []int {
	out := make([]int, len(svc.nodes))
	for i, n := range svc.nodes {
		out[i] = int(n.status)
	}
	return out
}

// removeAddr filters node idx out of a list, returning nil when the
// list empties so `== nil` health checks keep working.
func removeAddr(list []NodeAddr, idx int) []NodeAddr {
	var out []NodeAddr
	for _, a := range list {
		if a.Index != idx {
			out = append(out, a)
		}
	}
	return out
}

// pickHandoff returns the lowest-indexed up node outside the replica
// set, or nil when none exists.
func (svc *Service) pickHandoff(v *PartitionView) *NodeAddr {
	for _, n := range svc.nodes {
		if n.status != nodeUp {
			continue
		}
		if v.HasReplica(n.addr.Index) {
			continue
		}
		if v.IsRecovering(n.addr.Index) {
			continue
		}
		a := n.addr
		return &a
	}
	return nil
}

// commitView publishes a membership change to v under a new epoch: flow
// mods first, then the store write, then the announcements (announce).
func (svc *Service) commitView(v *PartitionView, dropped ...NodeAddr) {
	v.Epoch++
	svc.installPartition(v.Partition)
	svc.announce(v, dropped...)
}

// announce distributes a changed view to its participants and to the
// nodes the change dropped (O(R) messages regardless of cluster size)
// after writing it through to the state store. A store rejection means
// a newer controller generation has taken over: this instance is a
// fenced zombie and must not propagate the view at all.
func (svc *Service) announce(v *PartitionView, dropped ...NodeAddr) {
	v.Gen = svc.gen
	if !svc.store.WriteView(svc.gen, v) {
		svc.stats.FencedWrites++
		return
	}
	svc.store.WriteStatuses(svc.gen, svc.statusVector())
	for _, r := range append(v.PutParticipants(), dropped...) {
		svc.pushView(r, v)
	}
}

// pushView sends node a the current view v: as a HandoffAssign when a is
// v's stand-in, else as a PartitionUpdate — which, to a node v no longer
// lists, is the order to drop the partition.
func (svc *Service) pushView(a NodeAddr, v *PartitionView) {
	if v.Handoff != nil && v.Handoff.Index == a.Index {
		svc.sendView(a, &HandoffAssign{View: v.Clone()}, sizeOfView(v))
		return
	}
	svc.sendView(a, &PartitionUpdate{View: v.Clone()}, sizeOfView(v))
}

// resyncViews repairs a node whose membership state went stale — a
// PartitionUpdate lost on a faulty control path otherwise leaves the node
// serving under an obsolete replica set (or holding a view it was dropped
// from) forever. Every view whose authoritative epoch exceeds what the
// node reported is pushed again.
func (svc *Service) resyncViews(idx int, epochs map[int]uint64) {
	if epochs == nil {
		return // legacy heartbeat without view state
	}
	n := svc.nodes[idx]
	for _, v := range svc.views {
		reported := epochs[v.Partition]
		if reported >= v.Epoch {
			continue
		}
		// A node holding a stale view of a partition it no longer serves
		// gets the fresh view too: it makes the node drop out cleanly.
		if reported > 0 || v.HasReplica(idx) || v.IsRecovering(idx) {
			svc.pushView(n.addr, v)
		}
	}
}

// handleRejoin makes a recovered node put-visible (phase one of §4.4
// node recovery) and tells it where to fetch what it missed. It is
// idempotent: a node retrying a lost RejoinRequest (status already
// Recovering) gets its RejoinInfo rebuilt and resent without a second
// round of epoch bumps.
func (svc *Service) handleRejoin(idx int) {
	n := svc.nodes[idx]
	switch n.status {
	case nodeUp:
		// Not a duplicate: a node that asks to rejoin while marked up
		// restarted (and lost its runtime state) inside the detection
		// window, or a promoted standby inherited a status vector that
		// missed the Recovering transition. Silently ignoring the
		// request would strand the node put-visible with its gets held
		// forever — and anything committed while it was dark would
		// never be replayed. Demote it like a detected failure, then
		// run the normal two-phase rejoin below.
		svc.tracef("%v: node %d rejoin request while marked up; demoting first", svc.s.Now(), idx)
		svc.fail(idx)
	case nodeRecovering:
		n.lastHB = svc.s.Now()
		var views []*PartitionView
		for _, part := range svc.homePartitions(idx) {
			if v := svc.views[part]; v.IsRecovering(idx) {
				views = append(views, v)
			}
		}
		svc.sendRejoinInfo(n.addr, views)
		return
	}
	n.status = nodeRecovering
	n.lastHB = svc.s.Now()
	svc.stats.Rejoins++
	svc.tracef("%v: node %d rejoining (put-visible)", svc.s.Now(), idx)

	var views []*PartitionView
	for _, part := range svc.homePartitions(idx) {
		v := svc.views[part]
		if v.HasReplica(idx) || v.IsRecovering(idx) {
			continue // never left (failed before any view update?)
		}
		if len(v.Replicas) == 0 {
			// The partition collapsed — every member failed before a
			// handoff could stand in. Only the recorded last holder may
			// reseat it: it alone is known to hold every acknowledged
			// write. A different rejoiner (deposed earlier, store behind)
			// skips the partition — reseating it would ack fresh puts at
			// stale versions while the real holder is merely unreachable.
			lh, ok := svc.lastHolder[v.Partition]
			if !ok || lh.Index != idx {
				continue
			}
			delete(svc.lastHolder, v.Partition)
			v.Replicas = append(v.Replicas, n.addr)
			svc.tracef("%v: partition %d reseated on returning holder %d",
				svc.s.Now(), v.Partition, idx)
		} else {
			// Appending (not replacing) lets several nodes be mid-rejoin on
			// one partition when failures overlap; each completes on its own
			// ConsistentNotice.
			v.Recovering = append(v.Recovering, n.addr)
		}
		svc.commitView(v)
		views = append(views, v)
	}
	svc.sendRejoinInfo(n.addr, views)
	// The Recovering transition may have touched no view ("never left"
	// rejoins); replicate the status vector anyway so a takeover during
	// this window still knows the node is mid-rejoin.
	svc.store.WriteStatuses(svc.gen, svc.statusVector())
}

// sendRejoinInfo tells rejoiner a the views it recovers in and who holds
// the handoff data of each.
func (svc *Service) sendRejoinInfo(a NodeAddr, views []*PartitionView) {
	info := &RejoinInfo{}
	for _, v := range views {
		var h NodeAddr
		if v.Handoff != nil {
			h = *v.Handoff
		}
		info.Views = append(info.Views, v.Clone())
		info.Handoffs = append(info.Handoffs, h)
	}
	svc.sendView(a, info, ctrlMsgSize+len(info.Views)*32)
}

// handleConsistent completes phase two of either recovery or ring
// expansion: everywhere the node is marked Recovering it becomes a full
// (get-visible) replica, and any handoff standing in for it is released.
func (svc *Service) handleConsistent(idx int) {
	n := svc.nodes[idx]
	if n.status == nodeRecovering {
		n.status = nodeUp
		n.lastHB = svc.s.Now()
		svc.stats.Recoveries++
	}
	svc.tracef("%v: node %d consistent (get-visible)", svc.s.Now(), idx)

	for _, v := range svc.views {
		if !v.IsRecovering(idx) {
			continue
		}
		v.Recovering = removeAddr(v.Recovering, idx)
		// The stand-in keeps covering the partition until the last
		// rejoiner completes; releasing it on the first completion would
		// shrink the serving set while other members are still syncing.
		// The released stand-in gets the view that omits it: its order to
		// drop the handoff data and the multicast group.
		var released []NodeAddr
		if v.Handoff != nil && len(v.Recovering) == 0 {
			released = append(released, *v.Handoff)
			v.Replicas = removeAddr(v.Replicas, v.Handoff.Index)
			v.Handoff = nil
		}
		v.Replicas = append(v.Replicas, n.addr)
		svc.commitView(v, released...)
	}
	// Status-only completions (no view still listed the node) must
	// reach the store too, or a takeover would re-run a finished
	// recovery.
	svc.store.WriteStatuses(svc.gen, svc.statusVector())
}

// AddReplica permanently grows partition part's replica set with node
// idx (§4.4 ring re-configuration, §4.5 "when an administrator adds a
// new node to a replica set"): the node becomes put-visible at once,
// fetches the partition's keys from the primary, and turns get-visible
// on its ConsistentNotice — at which point the load-balancing divisions
// are recomputed over the larger set.
func (svc *Service) AddReplica(part, idx int) error {
	n := svc.nodes[idx]
	if n.status != nodeUp {
		return fmt.Errorf("controller: node %d is not up", idx)
	}
	v := svc.views[part]
	if v.HasReplica(idx) || v.IsRecovering(idx) {
		return fmt.Errorf("controller: node %d already serves partition %d", idx, part)
	}
	if len(v.Replicas) == 0 {
		return fmt.Errorf("controller: partition %d has no primary to expand from", part)
	}
	a := n.addr
	v.Recovering = append(v.Recovering, a)
	svc.commitView(v)
	svc.sendView(a, &ExpandAssign{View: v.Clone()}, sizeOfView(v))
	svc.tracef("%v: node %d joining partition %d (put-visible)", svc.s.Now(), idx, part)
	return nil
}

// homePartitions returns the partitions node idx serves in the home
// placement.
func (svc *Service) homePartitions(idx int) []int {
	prim, sec := svc.cfg.Placement.PartitionsOf(idx)
	return append(prim, sec...)
}

// installPartition (re)installs every rule belonging to partition p:
// unicast mapping (with optional LB divisions), multicast mapping, the
// group-direct rule, and the group itself.
func (svc *Service) installPartition(p int) {
	v := svc.views[p]
	if len(v.Replicas) == 0 {
		// Fully collapsed partition (every member failed before a handoff
		// could be found): there is no primary to route to. Drop the
		// partition's mapping state so traffic punts to packet-in (and is
		// dropped there) instead of chasing a dead address.
		for _, dp := range svc.fabric.MappingDatapaths() {
			if !dp.WriterAllowed(svc.gen) {
				continue
			}
			dp.RemoveCookie(fmt.Sprintf("uni-p%d.", p))
			dp.RemoveCookie(fmt.Sprintf("mc-p%d.", p))
		}
		return
	}
	uniPfx := svc.cfg.Unicast.SubgroupPrefix(p)
	mcPfx := svc.cfg.Multicast.SubgroupPrefix(p)

	// Multicast groups first (the mapping rules reference them): every
	// switch with a storage node at or below it (a client-side edge has
	// none, so it sends group traffic on toward the nodes) gets the
	// loop-free replication plan the fabric computes for the current
	// member set. Plan entry k uses group id 64p+k; the fallback (AnyPort)
	// entry is what vring mapping rules jump to.
	memberIPs := make([]netsim.IP, 0, len(v.Replicas)+1)
	for _, r := range v.PutParticipants() {
		memberIPs = append(memberIPs, r.IP)
	}
	nodeIPs := make([]netsim.IP, len(svc.nodes))
	for i, n := range svc.nodes {
		nodeIPs[i] = n.addr.IP
	}
	fallbackGid := make(map[*openflow.Datapath]openflow.GroupID)
	for _, dp := range svc.fabric.Holding(nodeIPs) {
		if !dp.WriterAllowed(svc.gen) {
			continue // fenced: a promoted controller owns this switch now
		}
		dp.RemoveCookie(fmt.Sprintf("gd-p%d.", p))
		for k, pe := range svc.fabric.MulticastPlan(dp, memberIPs) {
			if len(pe.Ports) == 0 {
				continue
			}
			gid := openflow.GroupID(p*64 + k)
			buckets := make([]openflow.Bucket, 0, len(pe.Ports))
			for _, port := range pe.Ports {
				buckets = append(buckets, openflow.Bucket{
					Actions: []openflow.Action{openflow.Output{Port: port}},
				})
			}
			dp.SetGroup(openflow.Group{ID: gid, Buckets: buckets})
			m := openflow.MatchDst(netsim.HostPrefix(v.GroupIP))
			m.InPort = pe.InPort
			prio := prioMapping
			if pe.InPort != openflow.AnyPort {
				prio += 2 // ingress-specific entries shadow the fallback
			}
			dp.AddFlow(openflow.FlowEntry{
				Priority: prio,
				Match:    m,
				Actions:  []openflow.Action{openflow.OutputGroup{Group: gid}},
				Cookie:   fmt.Sprintf("gd-p%d.k%d", p, k),
			})
			if pe.InPort == openflow.AnyPort {
				fallbackGid[dp] = gid
			}
		}
	}

	for _, dp := range svc.fabric.MappingDatapaths() {
		if !dp.WriterAllowed(svc.gen) {
			continue
		}
		dp.RemoveCookie(fmt.Sprintf("uni-p%d.", p))
		dp.RemoveCookie(fmt.Sprintf("mc-p%d.", p))

		// Unicast: default route to the primary.
		primary := v.Primary()
		if port, ok := svc.fabric.PortToward(dp, primary.IP); ok {
			dp.AddFlow(openflow.FlowEntry{
				Priority: prioMapping,
				Match:    openflow.MatchDst(uniPfx),
				Actions: []openflow.Action{
					openflow.SetDstIP{IP: primary.IP},
					openflow.SetDstMAC{MAC: primary.MAC},
					openflow.Output{Port: port},
				},
				Cookie: fmt.Sprintf("uni-p%d.", p),
			})
		}
		// Load balancing: one higher-priority rule per client division.
		// Static mode uses R divisions bound 1:1 to replicas (§4.5); the
		// dynamic extension refines the space and maps divisions per the
		// rebalancer's assignment.
		if svc.cfg.LoadBalance && len(v.Replicas) > 1 {
			ndiv := svc.ndivFor(len(v.Replicas))
			assign := svc.divisionAssignment(p, ndiv, len(v.Replicas))
			for d, div := range svc.divisionsN(ndiv) {
				r := v.Replicas[assign[d]]
				port, ok := svc.fabric.PortToward(dp, r.IP)
				if !ok {
					continue
				}
				m := openflow.MatchDst(uniPfx)
				m.SrcIP = div
				dp.AddFlow(openflow.FlowEntry{
					Priority: prioLB,
					Match:    m,
					Actions: []openflow.Action{
						openflow.SetDstIP{IP: r.IP},
						openflow.SetDstMAC{MAC: r.MAC},
						openflow.Output{Port: port},
					},
					Cookie: fmt.Sprintf("uni-p%d.d%d", p, d),
				})
			}
		}

		// Multicast mapping: rewrite to the group address, then fan out
		// through the local fallback group, or — when this datapath holds
		// no groups (client-edge OVS), so every member lies the same way —
		// send toward the primary.
		actions := []openflow.Action{openflow.SetDstIP{IP: v.GroupIP}}
		if gid, ok := fallbackGid[dp]; ok {
			actions = append(actions, openflow.OutputGroup{Group: gid})
		} else if port, ok := svc.fabric.PortToward(dp, primary.IP); ok {
			actions = append(actions, openflow.Output{Port: port})
		}
		dp.AddFlow(openflow.FlowEntry{
			Priority: prioMapping,
			Match:    openflow.MatchDst(mcPfx),
			Actions:  actions,
			Cookie:   fmt.Sprintf("mc-p%d.", p),
		})
	}

	// Harmonia: every view change re-installs the read-serving replica
	// set at the dirty-set stage, flushing its resident entries for the
	// partition so membership churn can never route a read to a replica
	// missing an acknowledged write.
	svc.installHarmonia(p)
}

// installPhysRules adds plain L3 forwarding for one physical host on
// every datapath.
func (svc *Service) installPhysRules(ip netsim.IP, mac netsim.MAC) {
	cookie := "phys-" + ip.String()
	for _, dp := range svc.fabric.Datapaths() {
		if !dp.WriterAllowed(svc.gen) {
			continue
		}
		port, ok := svc.fabric.PortToward(dp, ip)
		if !ok {
			continue
		}
		dp.RemoveFlows(func(e *openflow.FlowEntry) bool { return e.Cookie == cookie })
		dp.AddFlow(openflow.FlowEntry{
			Priority: prioPhys,
			Match:    openflow.MatchDst(netsim.HostPrefix(ip)),
			Actions: []openflow.Action{
				openflow.SetDstMAC{MAC: mac},
				openflow.Output{Port: port},
			},
			Cookie: cookie,
		})
	}
}

// rulesPerPartition reports the forwarding entries one partition costs on
// the mapping datapath: the §4.6 switch-scalability quantity (2 without
// load balancing, R+1 with).
func (svc *Service) rulesPerPartition() int {
	dps := svc.fabric.MappingDatapaths()
	if len(dps) == 0 || len(svc.views) == 0 {
		return 0
	}
	count := 0
	for _, e := range dps[0].Table().Entries() {
		if strings.HasPrefix(e.Cookie, "uni-p0.") || strings.HasPrefix(e.Cookie, "mc-p0.") {
			count++
		}
	}
	return count
}

// PermanentRemove executes the administrator's node-removal procedure
// (§4.4 ring re-configuration): the handoff (if any) stays as a durable
// replica and all affected nodes are informed.
func (svc *Service) PermanentRemove(idx int) {
	svc.fail(idx) // hiding + handoff
	for _, v := range svc.views {
		if v.Handoff != nil {
			v.Handoff = nil // promotion to permanent member
			svc.announce(v)
		}
	}
	svc.tracef("%v: node %d permanently removed", svc.s.Now(), idx)
}
