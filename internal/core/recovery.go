package core

import (
	"sort"
	"time"

	"repro/internal/controller"
	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/transport"
)

// recoveryRPCTimeout bounds each recovery-protocol round trip.
const recoveryRPCTimeout = 2 * time.Second

// syncExtraAttempts bounds how often a range sync chases a peer outside
// the current view (a member of the superseded view) before giving up on
// it. A live peer answers on the first try; a crashed one costs a dial
// timeout per attempt, so the bound keeps post-crash promotions from
// stalling reads for long.
const syncExtraAttempts = 2

// serveConn answers peer requests on an inbound stream: handoff fetches
// during node recovery and lock/version queries during new-primary
// resolution.
func (n *Node) serveConn(p *sim.Proc, conn *transport.Conn) {
	defer conn.Close()
	for {
		m, ok := conn.Recv(p)
		if !ok {
			return
		}
		switch req := m.Data.(type) {
		case *FetchRangeReq:
			n.settle(p, req.Partition)
			var objs []kvstore.Object
			size := replyOverhead
			for _, key := range n.store.Keys() {
				if n.cfg.Space.PartitionOf(key) != req.Partition {
					continue
				}
				if obj, ok := n.store.Peek(key); ok {
					objs = append(objs, obj)
					size += obj.Size
				}
			}
			// Handoff-directory objects are committed, versioned writes of
			// the same partition; a peer syncing from this node must see
			// them even if this node has not folded them into the main
			// namespace yet (the fetcher's merge rejects stale copies).
			for _, obj := range n.store.HandoffObjects() {
				if n.cfg.Space.PartitionOf(obj.Key) == req.Partition {
					objs = append(objs, obj)
					size += obj.Size
				}
			}
			pend := n.openPuts(req.Partition)
			size += 32 * len(pend)
			if err := conn.Send(p, &FetchRangeReply{Objects: objs, Pending: pend}, size); err != nil {
				return
			}
		case *FetchHandoffReq:
			var objs []kvstore.Object
			size := replyOverhead
			for _, obj := range n.store.HandoffObjects() {
				if n.cfg.Space.PartitionOf(obj.Key) == req.Partition {
					objs = append(objs, obj)
					size += obj.Size
				}
			}
			if err := conn.Send(p, &FetchHandoffReply{Objects: objs}, size); err != nil {
				return
			}
		case *LockQuery:
			var locked []LockInfo
			for _, rec := range n.store.PendingLog() {
				if n.cfg.Space.PartitionOf(rec.Obj.Key) != req.Partition {
					continue
				}
				locked = append(locked, LockInfo{Key: rec.Obj.Key, ReqTag: rec.Tag, Obj: rec.Obj})
			}
			rep := &LockQueryReply{From: n.cfg.Addr.Index, Locked: locked, MaxSeq: n.primarySeq}
			if err := conn.Send(p, rep, replyOverhead+32*len(locked)); err != nil {
				return
			}
		case *VersionQuery:
			vers := make(map[string]kvstore.Timestamp, len(req.Keys))
			for _, k := range req.Keys {
				if obj, ok := n.store.Peek(k); ok {
					vers[k] = obj.Version
				}
			}
			rep := &VersionReply{From: n.cfg.Addr.Index, Vers: vers}
			if err := conn.Send(p, rep, replyOverhead+48*len(vers)); err != nil {
				return
			}
		}
	}
}

// openPuts lists the puts whose prepares are open in this node's WAL for
// partition part.
func (n *Node) openPuts(part int) []PendingPut {
	var out []PendingPut
	for _, rec := range n.store.PendingLog() {
		if n.cfg.Space.PartitionOf(rec.Obj.Key) == part {
			out = append(out, PendingPut{Key: rec.Obj.Key, Req: rec.Tag})
		}
	}
	return out
}

// settle holds a range fetch until every put open here for part when it
// arrived has resolved: committed, aborted, or superseded on its key by
// a newer put's prepare. Each WAL change wakes it. A put whose handler is
// gone — it gave up on a silent primary, or died in a crash — resolves
// only through new-primary resolution, so settle asks for it, and asks
// again each quiet 4·AckTimeout (the request or the verdict is a datagram
// and may be lost). A node outside the partition's view takes part in no
// resolution, so it answers at once.
func (n *Node) settle(p *sim.Proc, part int) {
	open := n.openPuts(part)
	for gen := n.restartGen; len(open) > 0 && gen == n.restartGen && n.views[part] != nil; {
		for _, pp := range open {
			if n.puts[pp.Req] == nil {
				n.requestResolution(part)
				break
			}
		}
		n.store.WaitLog(p, 4*n.cfg.AckTimeout)
		still := open[:0]
		for _, pp := range open {
			if rec, ok := n.store.LogOf(pp.Key); ok && rec.Tag == pp.Req {
				still = append(still, pp)
			}
		}
		open = still
	}
}

// requestResolution asks whoever leads part now to resolve the puts left
// open there (new-primary resolution, resolveLocks).
func (n *Node) requestResolution(part int) {
	if cur := n.views[part]; cur != nil && cur.Primary().Index != n.cfg.Addr.Index {
		pr := cur.Primary()
		n.data.SendTo(pr.IP, pr.DataPort, &ResolveRequest{Partition: part}, ackSize)
	} else {
		n.maybeResolve(part, nil) // a no-op unless this node leads part
	}
}

// rpc performs one request/reply exchange on a fresh stream.
func (n *Node) rpc(p *sim.Proc, to controller.NodeAddr, req any, reqSize int) (any, bool) {
	conn, err := n.stack.Dial(p, to.IP, to.DataPort)
	if err != nil {
		return nil, false
	}
	defer conn.Close()
	if err := conn.Send(p, req, reqSize); err != nil {
		return nil, false
	}
	m, ok := conn.RecvTimeout(p, recoveryRPCTimeout)
	if !ok {
		return nil, false
	}
	return m.Data, true
}

// fetchObjects performs one fetch exchange against a peer and merges the
// returned objects into the local store (versioned — stale copies are
// rejected). It reports whether the peer answered, and for range fetches
// also which puts the peer still held in flight (see FetchRangeReply).
func (n *Node) fetchObjects(p *sim.Proc, from controller.NodeAddr, req any) ([]PendingPut, bool) {
	raw, ok := n.rpc(p, from, req, getReqSize)
	if !ok {
		return nil, false
	}
	var objs []kvstore.Object
	var pend []PendingPut
	switch rep := raw.(type) {
	case *FetchRangeReply:
		objs = rep.Objects
		pend = rep.Pending
	case *FetchHandoffReply:
		objs = rep.Objects
	default:
		return nil, false
	}
	// The store installs copies: the responder's objects stay its own.
	for i := range objs {
		n.observeTs(objs[i].Version)
		n.store.Put(p, &objs[i])
	}
	return pend, true
}

// syncPartition fetches the partition's committed range from every
// current view member, retrying unreachable ones until each has answered
// once. Legacy object stores survive restarts outright; durable stores
// keep every *acked* write (fsynced before the ack) and recover it by
// log replay before this sync runs. Either way the union of the
// members' ranges contains every acknowledged put: full replication
// commits on every live member, and under any-k the chaos generator
// keeps at most one member out at a time (a second concurrent outage
// could hide the only reachable copy, which no amount of syncing
// recovers). stop aborts the wait — demotion, or another crash of this
// node.
//
// old, when non-nil, is the superseded view. A member it names that the
// current view dropped can be the sole holder of an acknowledged write:
// a false failure verdict (lossy heartbeats, not a crash) deposes a live
// node without any data transfer, and under any-k — or once a released
// stand-in dropped its directory — the surviving members alone miss its
// writes. A dropped-but-live peer still answers range fetches from its
// retained store, so it is chased best-effort (syncExtraAttempts,
// bounded — it may be genuinely dead) before the sync declares
// completion.
func (n *Node) syncPartition(p *sim.Proc, part int, stop func() bool, old *controller.PartitionView) {
	var extra []controller.NodeAddr
	if old != nil {
		extra = n.othersOf(old)
	}
	synced := make(map[int]bool)
	attempts := make(map[int]int)
	// reported marks members whose first answer listed open puts
	// (FetchRangeReply.Pending). Their prepares may predate this node's
	// multicast-group membership, so only a re-fetch carries their
	// commits; the member holds it until they resolve (settle). Later
	// prepares reach this node directly: the view that started the sync
	// was sent behind a switch barrier, so it is in the group.
	reported := make(map[int]bool)
	for {
		if stop() {
			return
		}
		v := n.views[part]
		if v == nil {
			return
		}
		// retry marks a peer that did not answer (worth a pause before the
		// next round); again, a member to re-fetch at once.
		retry, again := false, false
		for _, peer := range n.othersOf(v) {
			if synced[peer.Index] {
				continue
			}
			if pend, ok := n.fetchObjects(p, peer, &FetchRangeReq{Partition: part}); !ok {
				retry = true
			} else if len(pend) > 0 && !reported[peer.Index] {
				reported[peer.Index] = true
				again = true
			} else {
				synced[peer.Index] = true
			}
			if stop() {
				return
			}
		}
		for _, peer := range extra {
			if synced[peer.Index] || attempts[peer.Index] >= syncExtraAttempts {
				continue
			}
			if v.HasReplica(peer.Index) || v.IsRecovering(peer.Index) {
				continue // rejoined the view: the member loop owns it now
			}
			attempts[peer.Index]++
			if _, ok := n.fetchObjects(p, peer, &FetchRangeReq{Partition: part}); ok {
				// Best-effort by design: an extra's in-flight puts are the
				// new primary's to resolve (resolveLocks), not this sync's.
				synced[peer.Index] = true
			} else if attempts[peer.Index] < syncExtraAttempts {
				retry = true
			}
			if stop() {
				return
			}
		}
		if retry {
			n.stats.RecoveryFetchFails++
			p.Sleep(2 * n.cfg.HeartbeatEvery)
		} else if !again {
			return
		}
	}
}

// recover executes phase two of rejoin (§4.4 node recovery): the node is
// already put-visible; it fetches everything it missed, then reports
// itself consistent. The handoff directory is the paper's mechanism, but
// it is silently incomplete when no handoff node was available or when
// the handoff node itself was down for part of the window — so the
// member-range sync is the correctness anchor, and the node stays
// get-invisible (handleGet holds) until it finishes.
func (n *Node) recover(p *sim.Proc, info *controller.RejoinInfo) {
	gen := n.restartGen
	stop := func() bool { return gen != n.restartGen }
	// A durable store first rebuilds itself from its own media — snapshot
	// load plus WAL replay, charged as disk reads — before fetching what
	// it missed from peers. The engine rebuilds before it sleeps in those
	// reads, so a commit landing meanwhile is version-checked against the
	// recovered state and appended after the replayed records.
	// No-op in legacy mode, where the store resurrects.
	n.store.RecoverStorage(p)
	if stop() {
		return // crashed again mid-replay; the new incarnation starts over
	}
	for i, v := range info.Views {
		n.applyView(v, false)
		part := v.Partition
		if h := info.Handoffs[i]; h.IP != 0 {
			for attempt := 0; attempt < 5 && !stop(); attempt++ {
				if _, ok := n.fetchObjects(p, h, &FetchHandoffReq{Partition: part}); ok {
					break
				}
				p.Sleep(2 * n.cfg.HeartbeatEvery)
			}
		}
		n.syncPartition(p, part, stop, nil)
		if stop() {
			return // crashed again mid-recovery; the new incarnation restarts rejoin
		}
	}
	// Peer-fetched objects entered the engine through the volatile WAL
	// tail; force them down before rejoining the serve set, or a second
	// crash re-loses state the membership now counts on this node
	// holding. Free in legacy mode.
	n.store.Sync(p)
	if stop() {
		return
	}
	n.recovering = false
	n.notifyConsistent(p)
}

// notifyConsistent reports the node consistent, retrying while its own
// views still show it put-visible-only: the notice is a datagram and may
// be lost on a faulty path, and a node stuck Recovering never becomes
// get-visible. The controller treats a duplicate notice as a no-op.
func (n *Node) notifyConsistent(p *sim.Proc) {
	for attempt := 0; attempt < 5; attempt++ {
		n.ctrl.SendTo(n.cfg.Meta, n.cfg.MetaPort, &controller.ConsistentNotice{Node: n.cfg.Addr.Index}, ctrlMsgSize)
		p.Sleep(2 * n.cfg.HeartbeatEvery)
		still := false
		for _, v := range n.views {
			if v.IsRecovering(n.cfg.Addr.Index) {
				still = true
				break
			}
		}
		if !still {
			return
		}
	}
}

// expand executes a permanent replica-set join (§4.4 ring
// re-configuration): the node is already put-visible; it fetches the
// whole key range from the surviving members and reports itself
// consistent. Gets for the partition are held (get.go) until the sync
// lands — the node is in the view the moment it applies it, and an
// empty member answering "not found" is a lie.
func (n *Node) expand(p *sim.Proc, view *controller.PartitionView) {
	part := view.Partition
	n.syncing[part] = true
	n.applyView(view, false)
	gen := n.restartGen
	n.syncPartition(p, part, func() bool { return gen != n.restartGen }, nil)
	n.syncing[part] = false
	if gen != n.restartGen {
		return
	}
	// As in recover: the fetched range is volatile until fsynced.
	n.store.Sync(p)
	if gen != n.restartGen {
		return
	}
	n.notifyConsistent(p)
}

// resolveLocks is the new primary's §4.4 procedure after promotion: find
// every object still locked anywhere in the partition; commit the ones
// the old primary committed anywhere (their committed version carries the
// put's client quadruplet), abort the rest.
// gen is the restart generation at promotion: the procedure spans many
// RTTs, and a resolver that blocked across a crash/restart of its own
// node must not touch the reborn store.
func (n *Node) resolveLocks(p *sim.Proc, v *controller.PartitionView, gen int) {
	part := v.Partition
	locked := make(map[string]reqKey)
	for _, rec := range n.store.PendingLog() {
		if n.cfg.Space.PartitionOf(rec.Obj.Key) == part {
			locked[rec.Obj.Key] = rec.Tag
		}
	}
	peers := n.othersOf(v)
	for _, peer := range peers {
		raw, ok := n.rpc(p, peer, &LockQuery{Partition: part}, getReqSize)
		if gen != n.restartGen {
			return
		}
		if !ok {
			continue
		}
		if rep, ok := raw.(*LockQueryReply); ok {
			// Sync the logical clock with every reachable peer: under any-k
			// puts a promoted laggard may never have witnessed the old
			// primary's latest commits, and issuing a colliding PrimarySeq
			// would let replicas order the same version pair differently.
			if rep.MaxSeq > n.primarySeq {
				n.primarySeq = rep.MaxSeq
			}
			for _, li := range rep.Locked {
				if _, seen := locked[li.Key]; !seen {
					locked[li.Key] = li.ReqTag
				}
			}
		}
	}
	if len(locked) == 0 {
		return
	}

	keys := make([]string, 0, len(locked))
	for k := range locked {
		keys = append(keys, k)
	}
	// Sorted: keys feeds the VersionQuery wire messages and the
	// commit/abort order below, and the simulation demands deterministic
	// enumeration where Go's map iteration gives none.
	sort.Strings(keys)
	// Round two: who committed what?
	committed := make(map[string]kvstore.Timestamp)
	consider := func(k string, ts kvstore.Timestamp) {
		if req := locked[k]; ts.Client == req.Client && ts.ClientSeq == req.Seq {
			committed[k] = ts
		}
	}
	for _, k := range keys {
		if obj, ok := n.store.Peek(k); ok {
			consider(k, obj.Version)
		}
	}
	for _, peer := range peers {
		raw, ok := n.rpc(p, peer, &VersionQuery{Keys: keys}, getReqSize+16*len(keys))
		if gen != n.restartGen {
			return
		}
		if !ok {
			continue
		}
		if rep, ok := raw.(*VersionReply); ok {
			for k, ts := range rep.Vers {
				consider(k, ts)
			}
		}
	}

	for _, k := range keys {
		n.stats.Resolutions++
		order := &ResolveOrder{Key: k, Req: locked[k], Ts: committed[k]}
		n.applyOrder(order)
		for _, peer := range peers {
			n.data.SendTo(peer.IP, peer.DataPort, order, ackSize)
		}
	}
}

// applyOrder carries out a resolution verdict locally. The order names a
// put; when the WAL record under its key is gone or belongs to a newer
// put there is nothing of that put left here to resolve. Otherwise prefer
// waking the still-blocked handler (it finishes its own prepare, and
// finishing here too would race it); with no live handler, finish
// straight from the WAL record.
func (n *Node) applyOrder(m *ResolveOrder) {
	rec, ok := n.store.LogOf(m.Key)
	if !ok || rec.Tag != m.Req {
		return
	}
	if ps := n.puts[m.Req]; ps != nil {
		// Even if the handler's future is already set (the real TsMsg raced
		// this order), it is the handler that finishes.
		if !ps.ts.Done() {
			ps.ts.Set(TsMsg{Req: m.Req, Key: m.Key, Ts: m.Ts, Abort: m.Ts.IsZero()})
		}
		return
	}
	n.finish(n.cfg.Space.PartitionOf(m.Key), m.Req, rec.Attempt, &rec.Obj, m.Ts, false)
}
