package core

import (
	"repro/internal/controller"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// handlePut runs one replica's side of the NICE-2PC put (Fig. 3). The
// object arrived complete via the multicast transport; phase one locks,
// logs and writes it, phase two applies the primary's timestamp.
func (n *Node) handlePut(p *sim.Proc, req *PutRequest) {
	part := n.cfg.Space.PartitionOf(req.Key)
	v := n.views[part]
	if v == nil {
		return // stale multicast subscription; not serving this partition
	}
	me := n.cfg.Addr.Index
	isPrimary := v.Primary().Index == me

	k := req.key()
	if _, inFlight := n.puts[k]; inFlight {
		// Duplicate of an attempt this node is still processing; its reply
		// (same request ID) will satisfy the client's retry.
		return
	}
	if ts, ok := n.committed.get(k); ok {
		n.duplicatePut(p, v, req, ts, isPrimary)
		return
	}
	if rec, ok := n.store.LogOf(req.Key); ok && rec.Tag == k {
		// The same put is already prepared here but never committed (a
		// laggard after a partial commit): re-ack phase one; the commit
		// arrives via the primary's re-sent timestamp or resolution.
		if !isPrimary {
			n.sendAck1(v.Primary(), k, kvstore.Timestamp{})
		}
		return
	}

	ps := n.registerPut(req, v.Primary().IP)
	n.preparePut(p, v, req, ps, isPrimary, part)
	n.releasePut(ps)
}

// preparePut runs phase one for the put registered as ps and hands the
// prepared object to the commit phase of this node's role.
func (n *Node) preparePut(p *sim.Proc, v *controller.PartitionView, req *PutRequest, ps *putState, isPrimary bool, part int) {
	k := req.key()
	n.cpu.Use(p, n.cfg.CPUPerOp)
	if n.stale(ps) {
		return
	}

	// Phase one: lock, +L, W.
	if !n.store.Lock(p, req.Key, k, 2*n.cfg.AckTimeout) {
		n.stats.Aborts++
		if isPrimary && !n.stale(ps) {
			n.replyPut(req, false, "lock timeout", 0)
		}
		return
	}
	if n.stale(ps) {
		return // the granted lock died with the crash; don't touch the store
	}
	// The prepared object lives in the put state; the WAL record holds its
	// own copy, which outlives the put state if the handler gives up.
	ps.obj = kvstore.Object{Key: req.Key, Value: req.Value, Size: req.Size}
	obj := &ps.obj
	rec := kvstore.LogRecord{Obj: ps.obj, Tag: k, Attempt: req.Attempt}
	// One forced write is +L and W (DESIGN.md §6). With a batch window,
	// co-arriving prepares on this replica share it, mirroring the
	// primary's batched commit (§16).
	n.store.AppendLog(p, rec, n.cfg.PutBatchWindow)
	if n.stale(ps) {
		// Crashed while forcing the WAL record: withdraw it unless a newer
		// put already replaced it with its own (this handler's lock died
		// with the crash).
		n.store.Release(req.Key, k)
		return
	}

	if isPrimary {
		n.primaryCommit(p, v, req, ps, obj)
	} else {
		n.secondaryCommit(p, v, req, ps, obj, part)
	}
}

// duplicatePut answers a retry of a put this node already committed: the
// primary re-multicasts the original timestamp (converging any replica
// that missed the commit — the retry's own multicast redelivered the
// object, so a replica that lost the first transfer now holds it
// prepared) and re-acks the client with the original version; a
// secondary re-acks both phases so a primary still collecting acks can
// finish. No state is re-applied, so a retried put can never
// double-apply or roll a newer value back.
//
// The primary must NOT ack the client before the replica set confirms:
// the first attempt may have committed on the primary alone, and an ack
// racing the secondaries' convergence would let a load-balanced get read
// a secondary that does not hold the acked version yet.
func (n *Node) duplicatePut(p *sim.Proc, v *controller.PartitionView, req *PutRequest, ts kvstore.Timestamp, isPrimary bool) {
	n.stats.DupPuts++
	n.cpu.Use(p, n.cfg.CPUPerOp)
	k := req.key()
	if n.cfg.Harmonia != nil {
		// The retry's own multicast re-marked the key dirty at the switch;
		// this member already holds the commit, so report it applied — once
		// every replica dedups the retry the mark retires again.
		n.cfg.Harmonia.MemberApplied(req.Key, k, n.cfg.Addr.IP)
	}
	if !isPrimary {
		n.sendAck1(v.Primary(), k, ts)
		n.sendAck2(v.Primary(), k)
		return
	}
	ps := n.registerPut(req, n.cfg.Addr.IP)
	n.sendTs(v, TsMsg{Req: k, Key: req.Key, Ts: ts, Dup: true})
	need, want := n.ackQuorum(v, ps)
	acked := n.waitAcks(p, ps, &ps.ack2, need, want)
	if !n.stale(ps) {
		if acked {
			n.replyPut(req, true, "", ts.PrimarySeq)
		} else {
			// The client retries; replicas keep converging via the WAL/dedup
			// paths until the whole set confirms.
			n.replyPut(req, false, "replica unresponsive in commit phase", 0)
		}
	}
	n.releasePut(ps)
}

// othersOf lists the put participants excluding this node, in a fresh
// slice.
func (n *Node) othersOf(v *controller.PartitionView) []controller.NodeAddr {
	return n.appendOthers(make([]controller.NodeAddr, 0, len(v.Replicas)+len(v.Recovering)), v)
}

// appendOthers appends the put participants of v other than this node to
// dst, replicas first (PutParticipants' order).
func (n *Node) appendOthers(dst []controller.NodeAddr, v *controller.PartitionView) []controller.NodeAddr {
	for _, r := range v.Replicas {
		if r.Index != n.cfg.Addr.Index {
			dst = append(dst, r)
		}
	}
	for _, r := range v.Recovering {
		if r.Index != n.cfg.Addr.Index {
			dst = append(dst, r)
		}
	}
	return dst
}

// ackQuorum returns the nodes whose acks may count toward the commit
// quorum and how many of them the primary must hear from. Under full
// replication that is every other participant, handoff stand-in
// included. Under any-k the stand-in is excluded: it still receives
// every write (its directory must cover the outage), but its ack cannot
// substitute for a proper member's — the controller may later drop the
// stand-in from the view with no data transfer, so a quorum that leaned
// on it would leave an acked version held only by nodes that can all
// leave the member set at once. The nodes are listed in ps's buffer.
func (n *Node) ackQuorum(v *controller.PartitionView, ps *putState) ([]controller.NodeAddr, int) {
	ps.quorum = n.appendOthers(ps.quorum[:0], v)
	if n.cfg.QuorumK <= 0 {
		return ps.quorum, len(ps.quorum)
	}
	proper := ps.quorum[:0]
	for _, r := range ps.quorum {
		if v.Handoff != nil && r.Index == v.Handoff.Index {
			continue
		}
		proper = append(proper, r)
	}
	want := n.cfg.QuorumK - 1
	if len(v.Recovering) > 0 {
		// A rejoiner's range sync counts on every put prepared once it is
		// in the multicast group reaching it (syncPartition): every proper
		// member votes while one is mid-rejoin.
		want = len(proper)
	}
	if want > len(proper) {
		want = len(proper)
	}
	if want < 0 {
		want = 0
	}
	return proper, want
}

// waitAcks waits until at least want of the nodes in need appear in got,
// tolerating one quiet phase; after a second timeout the missing peers
// are reported to the metadata service (§4.4) and false is returned.
func (n *Node) waitAcks(p *sim.Proc, ps *putState, got *nodeSet, need []controller.NodeAddr, want int) bool {
	timeouts := 0
	for {
		present := 0
		for _, r := range need {
			if got.has(r.Index) {
				present++
			}
		}
		if present >= want {
			return true
		}
		if _, ok := ps.sig.PopTimeout(p, n.cfg.AckTimeout); ok {
			continue
		}
		timeouts++
		if timeouts >= 2 {
			for _, r := range need {
				if !got.has(r.Index) {
					n.reportFailure(r.Index)
				}
			}
			return false
		}
	}
}

// primaryCommit coordinates the put: collect first-phase acks, commit
// with a fresh timestamp (or a verdict's, below), multicast it, collect
// second-phase acks, and answer the client.
func (n *Node) primaryCommit(p *sim.Proc, v *controller.PartitionView, req *PutRequest, ps *putState, obj *kvstore.Object) {
	part := v.Partition
	// A freshly promoted primary must not issue timestamps until lock
	// resolution has synchronized its logical clock with its peers (the
	// old primary may have committed versions this node never witnessed).
	n.waitResolved(p, part)
	if n.stale(ps) {
		return
	}
	need, want := n.ackQuorum(v, ps)

	acked := n.waitAcks(p, ps, &ps.ack1, need, want)
	if n.stale(ps) {
		return
	}
	// The put may have been decided while this node collected the votes —
	// by its own lock resolution (resolveLocks: committed under an earlier
	// primary's timestamp, or abandoned), or by a voter that had already
	// committed it (a dedup Ack1) — and that verdict stands.
	decided := ps.ts.Done()
	var verdict TsMsg
	if decided {
		verdict = ps.ts.Value()
	}
	cur := n.views[part]
	if !decided && (!acked || cur == nil || cur.Primary().Index != n.cfg.Addr.Index) ||
		decided && verdict.Abort {
		// Abort: a replica stayed silent, resolution abandoned the put, or
		// this node was deposed while it collected the votes (the new
		// primary may have resolved the put already; committing would split
		// the verdict and the version sequence). Release everyone still
		// waiting, clean up, fail the op.
		n.sendTs(v, TsMsg{Req: req.key(), Key: req.Key, Abort: true, Attempt: int32(req.Attempt)})
		n.finish(part, req.key(), req.Attempt, obj, kvstore.Timestamp{}, false)
		n.replyPut(req, false, "replica unresponsive", 0)
		return
	}

	var ts kvstore.Timestamp
	if n.cfg.PutBatchWindow > 0 && !decided {
		// Accumulated commit point (batch.go): timestamp assignment, the
		// local apply, the fsync and the timestamp multicast happen inside
		// the partition's batch drain; this handler resumes holding its
		// committed timestamp and collects its own second-phase acks.
		var ok bool
		if ts, ok = n.batchCommit(p, v, req, ps, obj); !ok {
			return
		}
	} else {
		// Everyone converges on a verdict's version, never on a fresh one
		// its holders could not apply; like a dedup re-commit's, it may
		// predate this node's tenure (TsMsg.Dup).
		dup := decided
		if dup {
			ts = verdict.Ts
		} else {
			n.primarySeq++
			ts = kvstore.Timestamp{
				Primary:    n.cfg.Addr.IP,
				PrimarySeq: n.primarySeq,
				Client:     req.Client,
				ClientSeq:  req.ClientSeq,
			}
		}
		n.finish(part, req.key(), req.Attempt, obj, ts, dup)
		n.stats.PutsPrimary++

		// Durable engines fsync the commit record before anything
		// downstream learns of the commit (the timestamp multicast and,
		// transitively, the client ack): an acknowledged put must survive
		// this node's crash. Free in legacy mode.
		n.store.Sync(p)
		if n.stale(ps) {
			return
		}

		// Commit phase: multicast the timestamp to the replica set.
		n.sendTs(v, TsMsg{Req: req.key(), Key: req.Key, Ts: ts, Attempt: int32(req.Attempt), Dup: dup})
	}

	if !n.waitAcks(p, ps, &ps.ack2, need, want) {
		if n.stale(ps) {
			return
		}
		// Committed locally and possibly remotely; the client will retry
		// against the repaired replica set, and the dedup record above
		// guarantees the retry converges on this commit's version instead
		// of re-running the protocol.
		n.replyPut(req, false, "replica unresponsive in commit phase", 0)
		return
	}
	n.replyPut(req, true, "", ts.PrimarySeq)
}

// waitResolved blocks until no lock resolution is in flight for part.
// The poll period is coarse — resolution is already a multi-RTT affair —
// and deterministic.
func (n *Node) waitResolved(p *sim.Proc, part int) {
	for n.resolving[part] {
		p.Sleep(n.cfg.AckTimeout / 4)
	}
}

// stale reports whether the node crashed and restarted since ps was
// registered (see putState.gen).
func (n *Node) stale(ps *putState) bool { return ps.gen != n.restartGen }

// secondaryCommit acknowledges phase one, waits for the timestamp, and
// completes the commit. A primary quiet for two phases is reported and
// the object is left locked and logged for new-primary resolution.
func (n *Node) secondaryCommit(p *sim.Proc, v *controller.PartitionView, req *PutRequest, ps *putState, obj *kvstore.Object, part int) {
	primary := v.Primary()
	n.sendAck1(primary, req.key(), kvstore.Timestamp{})

	tsm, ok := ps.ts.WaitTimeout(p, n.cfg.AckTimeout)
	if !ok {
		tsm, ok = ps.ts.WaitTimeout(p, n.cfg.AckTimeout)
	}
	if n.stale(ps) {
		return
	}
	if !ok {
		n.reportFailure(primary.Index)
		// The object stays locked and logged. Once the membership change
		// settles, ask whoever leads the partition then to resolve it.
		key := req.Key
		n.s.After(4*n.cfg.AckTimeout, func() {
			if n.store.HasLog(key) {
				n.requestResolution(part)
			}
		})
		return
	}
	if tsm.Abort {
		n.finish(part, req.key(), req.Attempt, obj, kvstore.Timestamp{}, false)
		return
	}
	n.finish(part, req.key(), req.Attempt, obj, tsm.Ts, tsm.Dup)
	// Fsync before Ack2: the primary counts this replica's copy toward
	// the commit quorum, so the copy must survive a crash here. Free in
	// legacy mode.
	n.store.Sync(p)
	if n.stale(ps) {
		return
	}
	n.sendAck2(primary, req.key())
}

// finish ends put k's prepare of obj on this node — the one place a
// prepare is closed (the -L and unlock of Fig. 3): a non-zero ts first
// commits the object under it (dup as in applyLocal), the zero timestamp
// abandons it; attempt names the delivery attempt an abort abandons. The
// release is owner-checked, so finishing a put whose lock a newer put
// took over after a restart leaves that lock alone. The statement order
// is load-bearing: applyLocal's write-through and Release's waiter wake
// both schedule events.
func (n *Node) finish(part int, k reqKey, attempt int, obj *kvstore.Object, ts kvstore.Timestamp, dup bool) {
	if ts.IsZero() {
		n.store.Release(obj.Key, k)
		n.harmoniaAborted(obj.Key, k, attempt)
		n.stats.Aborts++
		return
	}
	n.observeTs(ts)
	obj.Version = ts
	n.applyLocal(part, obj, dup)
	n.store.Release(obj.Key, k)
	n.stats.Puts++
}

// observeTs advances the node's primary logical clock past any witnessed
// timestamp, so a promoted primary always generates dominating versions.
func (n *Node) observeTs(ts kvstore.Timestamp) {
	if ts.PrimarySeq > n.primarySeq {
		n.primarySeq = ts.PrimarySeq
	}
}

// applyLocal installs a committed object in the namespace this node
// serves the partition from (main store, or the handoff directory when
// standing in for a failed peer). dup marks a dedup re-commit of a
// version that may predate this node's stand-in tenure: the handoff
// directory's serve authority (get.go) rests on its entries being the
// newest committed writes, so a dup install is kept for durability but
// marked non-servable until a genuine commit supersedes it.
func (n *Node) applyLocal(part int, obj *kvstore.Object, dup bool) {
	if n.handoffFor[part] {
		if n.store.ApplyHandoff(obj) {
			if dup {
				n.markStaleHandoff(part, obj.Key)
			} else {
				n.clearStaleHandoff(part, obj.Key)
			}
		}
	} else {
		n.store.Apply(obj)
	}
	n.recordCommit(obj.Version)
	n.writeThrough(obj)
	n.harmoniaApplied(obj)
}

// replyPut answers the client over its reply stream; ver is the committed
// version's primary sequence (0 when nothing committed). The reply comes
// from this node's free list, and the client hands it back (counted).
func (n *Node) replyPut(req *PutRequest, ok bool, errStr string, ver uint64) {
	m := takeCounted(&n.putReplies)
	m.ReqID, m.OK, m.Err, m.Ver = req.ClientSeq, ok, errStr, ver
	n.pool.Send(req.Client, req.ClientPort, m, replyOverhead)
}

// tsMsg takes a timestamp multicast off this node's free list, held by
// its builder until multicastTs sends it.
func (n *Node) tsMsg() *BatchTsMsg {
	m := takeCounted(&n.tsMsgs)
	m.Items = m.Items[:0]
	return m
}

// multicastTs sends m, of size wire bytes, to v's group and lets go of
// the builder's hold: from here the packets and their readers hold it.
func (n *Node) multicastTs(v *controller.PartitionView, m *BatchTsMsg, size int) {
	n.data.SendTo(v.GroupIP, n.cfg.Addr.DataPort, m, size)
	m.release()
}

// sendTs multicasts one verdict to v's group.
func (n *Node) sendTs(v *controller.PartitionView, ts TsMsg) {
	m := n.tsMsg()
	m.Items = append(m.Items, ts)
	n.multicastTs(v, m, tsMsgSize)
}

// sendAck1 votes for put k to its primary pr, committed as in Ack1. The
// vote, like sendAck2's ack, comes off this node's free list, and the
// primary hands it back (counted).
func (n *Node) sendAck1(pr controller.NodeAddr, k reqKey, committed kvstore.Timestamp) {
	m := takeCounted(&n.ack1s)
	m.Req, m.From, m.Committed = k, n.cfg.Addr.Index, committed
	n.data.SendTo(pr.IP, pr.DataPort, m, ackSize)
}

// sendAck2 confirms put k's commit to its primary pr.
func (n *Node) sendAck2(pr controller.NodeAddr, k reqKey) {
	m := takeCounted(&n.ack2s)
	m.Req, m.From = k, n.cfg.Addr.Index
	n.data.SendTo(pr.IP, pr.DataPort, m, ackSize)
}

// lateTs handles a timestamp from node from that arrived after its put
// handler gave up (or after a crash recovery re-registered nothing):
// commit or abort straight from the WAL record, keeping replicas
// convergent.
func (n *Node) lateTs(m TsMsg, from netsim.IP) {
	part := n.cfg.Space.PartitionOf(m.Key)
	rec, ok := n.store.LogOf(m.Key)
	if !ok || rec.Tag != m.Req || (m.Abort && rec.Attempt != int(m.Attempt)) {
		if !m.Abort {
			// The committed copy lives where applyLocal put it: the handoff
			// directory while this node stands in for the partition.
			obj, have := n.store.Peek(m.Key)
			if n.handoffFor[part] {
				obj, have = n.store.PeekHandoff(m.Key)
			}
			if have && obj.Version.Client == m.Req.Client && obj.Version.ClientSeq == m.Req.Seq {
				// This replica already committed the same logical put. A
				// primary promoted without a dedup record may have re-run the
				// retry under a newer timestamp: adopt it (same value, newer
				// version) so replicas agree; an equal or older timestamp is
				// the primary's dedup re-multicast and needs nothing but the
				// dirty-set stage's count of this member as applied.
				if obj.Version.Less(m.Ts) {
					n.observeTs(m.Ts)
					obj.Version = m.Ts
					n.applyLocal(part, &obj, m.Dup)
				} else {
					n.harmoniaApplied(&obj)
				}
				return
			}
		}
		// Buffer for a prepare that may still be in flight. An abort never
		// displaces a buffered commit: the commit is authoritative, and the
		// abort can only belong to some other (dead) attempt.
		o := n.orphan(m.Req)
		if m.Abort && o.hasTs && !o.ts.Abort {
			return
		}
		o.ts, o.hasTs, o.tsFrom = m, true, from
		return
	}
	if m.Abort {
		n.finish(part, m.Req, rec.Attempt, &rec.Obj, kvstore.Timestamp{}, false)
		return
	}
	n.finish(part, m.Req, rec.Attempt, &rec.Obj, m.Ts, m.Dup)
	v := n.views[part]
	if v == nil {
		return
	}
	pr := v.Primary()
	if n.store.Durable() {
		// Fsync before the quorum-counting Ack2, exactly as in
		// secondaryCommit: the primary treats this ack as "the copy
		// survives a crash here". lateTs runs on the dispatch loop, so the
		// forced write is charged to a spawned process and the ack follows
		// it; the restart-generation fence drops the ack if this
		// incarnation dies while the fsync is in flight.
		gen, k := n.restartGen, m.Req
		n.s.Spawn(n.name("latesync"), func(p *sim.Proc) {
			n.store.Sync(p)
			if gen != n.restartGen {
				return
			}
			n.sendAck2(pr, k)
		})
		return
	}
	n.sendAck2(pr, m.Req)
}
