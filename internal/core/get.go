package core

import (
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// handleGet serves a client read. The switch already chose this replica
// (primary by default, or per the source-division load-balancing rules),
// so the node answers from local state. A handoff node missing the object
// forwards the request to the primary, which replies to the client
// directly (§4.4). replicaRouted marks reads that arrived on the
// dedicated replica port — the dirty-set stage vouched the key was clean
// when it rewrote them here, so they may be served from a non-primary.
func (n *Node) handleGet(p *sim.Proc, req *GetRequest, forwarded, replicaRouted bool) {
	n.stats.Gets++
	n.cpu.Use(p, n.cfg.CPUPerOp)
	if n.recovering {
		// Put-visible only (§4.4): the store may still miss writes
		// acknowledged while this node was down, so neither a hit nor a
		// miss can be trusted. Stay silent; the client retries elsewhere.
		n.stats.GetsHeld++
		return
	}
	part := n.cfg.Space.PartitionOf(req.Key)

	if n.handoffFor[part] {
		// A directory hit is authoritative only for genuine post-failure
		// writes; an entry installed by a dedup re-commit may predate the
		// stand-in tenure (and a newer pre-failure version may exist), so
		// it falls through to the forward path like a miss.
		if obj, ok := n.store.GetHandoff(p, req.Key); ok && !n.staleHandoff[part][req.Key] {
			n.sendGetReply(req, obj, true)
			return
		}
		v := n.views[part]
		if !forwarded && v != nil && v.Primary().Index != n.cfg.Addr.Index {
			pr := v.Primary()
			n.stats.GetForwards++
			fwd := &ForwardedGet{Req: *req}
			fwd.Req.reply, fwd.Req.occupied = GetReply{}, false // the copy's room starts free
			n.data.SendTo(pr.IP, pr.DataPort, fwd, getReqSize)
			return
		}
		// Handoff-led partition (no live proper primary to forward to):
		// serve a main-store hit if this node also holds the key as a
		// member, but never claim not-found — the handoff directory covers
		// only writes issued since the failure, so silence (the client
		// retries once membership settles) beats a lie.
		if obj, ok := n.store.Get(p, req.Key); ok {
			n.sendGetReply(req, obj, true)
			return
		}
		n.stats.GetsHeld++
		return
	}
	n.replyFromStore(p, req, replicaRouted)
}

// replyFromStore answers a get from the main namespace.
func (n *Node) replyFromStore(p *sim.Proc, req *GetRequest, replicaRouted bool) {
	part := n.cfg.Space.PartitionOf(req.Key)
	if n.views[part] == nil {
		// Not (or no longer) a member of this partition — stale client
		// routing after a view change. The store stopped receiving the
		// partition's writes, so any answer could be stale or a false
		// miss. Stay silent; the client retries a current member.
		n.stats.GetsHeld++
		return
	}
	if n.resolving[part] && n.store.HasLog(req.Key) {
		// The key's fate is being decided by lock resolution: answering now
		// could serve a version about to be superseded by a commit the old
		// primary already acknowledged. Stay silent; the client's retry
		// lands after resolution.
		n.stats.GetsHeld++
		return
	}
	if n.syncing[part] {
		// Freshly promoted any-k primary: the old primary may have
		// acknowledged commits this node never saw. Answer only after the
		// member-range sync finishes.
		n.stats.GetsHeld++
		return
	}
	isPrimary := n.views[part].Primary().Index == n.cfg.Addr.Index
	if (n.cfg.Harmonia != nil || n.cfg.QuorumK > 0) && !replicaRouted && !isPrimary {
		// Primary-routed read at a node that does not believe itself
		// primary. A view reaches a node only after the switches applied
		// it, so the fabric routes reads to a freshly promoted primary
		// before the promotion reaches it — and under any-k (unlike full
		// replication) the promotee can be a laggard that never saw acked
		// writes, leaving no local lock or log to gate on. Stay silent; the
		// client's retry lands after the view settles.
		n.stats.GetsHeld++
		n.stats.GetsHeldNotPrimary++
		return
	}
	if n.cfg.Harmonia != nil && replicaRouted && (n.store.HasLog(req.Key) || n.store.Locked(req.Key)) {
		// Replica-side conflict gate: the dirty-set stage routed this read
		// here believing the key clean, but a write is in flight locally
		// (prepared or locked) — under any-k this node may be a laggard the
		// commit quorum did not wait for. Serving now could return a value
		// about to be superseded by an already-acknowledged commit. Stay
		// silent; the client's retry re-hashes or lands after the apply.
		n.stats.GetsHeld++
		n.stats.GetsHeldConflict++
		return
	}
	if n.cfg.Harmonia != nil {
		if isPrimary {
			n.stats.GetsServedLocal++
		} else {
			n.stats.GetsServedAsReplica++
		}
	}
	n.serveRead(p, req)
}

// readState is one in-flight coalescable store read (CoalesceGets):
// gets arriving while the leader's charged read is on the disk enqueue
// here and are answered from its result. Once the leader has taken it
// out of Node.reads, or Restart has replaced the map, the leader is its
// only owner, and it recycles the state through Node.freeReads.
type readState struct {
	waiters []*GetRequest
}

// serveRead performs the store read for a get that passed every
// consistency gate, and replies. With CoalesceGets, concurrent reads of
// the same key share one charged store read: the first becomes the
// leader, later arrivals piggyback and are answered by the leader's
// reply fan-out.
func (n *Node) serveRead(p *sim.Proc, req *GetRequest) {
	if !n.cfg.CoalesceGets {
		obj, ok := n.store.Get(p, req.Key)
		n.sendGetReply(req, obj, ok)
		return
	}
	if rs := n.reads[req.Key]; rs != nil {
		n.stats.GetsCoalesced++
		rs.waiters = append(rs.waiters, req)
		return
	}
	rs := n.freeReads.Take()
	if rs == nil {
		rs = new(readState)
	}
	n.reads[req.Key] = rs
	gen := n.restartGen
	obj, ok := n.store.Get(p, req.Key)
	if n.reads[req.Key] == rs {
		delete(n.reads, req.Key)
	}
	if gen != n.restartGen {
		// Crashed while the read was on the disk: this incarnation must not
		// answer for the reborn node. The waiters go unanswered too — their
		// clients retry, same as any handler that blocked across a crash.
		n.freeRead(rs)
		return
	}
	// Commits may have landed while the read slept on the disk. Refresh
	// from memory (free) so the shared answer carries the newest version
	// committed before this instant: every coalesced get's invocation
	// precedes the reply, so one linearization point serves them all.
	if cur, have := n.store.Peek(req.Key); have {
		obj, ok = cur, true
	}
	n.sendGetReply(req, obj, ok)
	for _, w := range rs.waiters {
		n.sendGetReply(w, obj, ok)
	}
	n.freeRead(rs)
}

// freeRead recycles a read state its leader is done with.
func (n *Node) freeRead(rs *readState) {
	clear(rs.waiters)
	rs.waiters = rs.waiters[:0]
	n.freeReads.Put(rs)
}

// sendGetReply answers one get from a completed store read, in the room
// the request carries; a hit carries the committed version.
func (n *Node) sendGetReply(req *GetRequest, obj kvstore.Object, ok bool) {
	rep := req.answer()
	*rep = GetReply{ReqID: req.ReqID, Found: ok}
	size := replyOverhead
	if ok {
		rep.Value = obj.Value
		rep.Size = obj.Size
		rep.Ver = obj.Version.PrimarySeq
		size += obj.Size
	}
	n.pool.Send(req.Client, req.ClientPort, rep, size)
}
