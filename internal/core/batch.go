package core

import (
	"repro/internal/controller"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// Per-partition put accumulator (DESIGN.md §16). A primary put that
// reaches its commit point — first-phase quorum collected, nothing left
// to do but assign a timestamp and commit — either opens a batch and
// lingers PutBatchWindow, or joins the batch another put's linger left
// open. When the window closes the leader drains every joined op in
// arrival order: one timestamp-assignment pass, one fsync covering all
// the commit records, one batched timestamp multicast. Everything
// per-op (dedup records, attempt-scoped aborts, ack2 collection, the
// client reply) stays with the op's own handler.

// putBatch is one open (or draining) commit batch for a partition,
// recycled through the node's free list (newBatch, leaveBatch). The leader
// and each joiner hold it until they leave — the leader right after
// done.Set, a joiner once its Wait returns — and the last to leave
// recycles it. Recycling at Set would strand a joiner that Set woke but
// that has not yet resumed: it would find done reset, park again and never
// wake. A handler Simulator.Shutdown unwinds never leaves, so its batch is
// dropped instead of reused, like its put state.
type putBatch struct {
	items   []*batchItem
	done    *sim.Future[struct{}]
	holders int
}

// batchItem is one put parked at the commit point, embedded in its put
// state. The leader writes a joiner's item only before b.done.Set, and the
// joiner leaves Wait only after it, so no item outlives its put state.
type batchItem struct {
	req *PutRequest
	obj *kvstore.Object
	ts  kvstore.Timestamp
	ok  bool // drained: timestamp assigned and object applied
}

// newBatch opens a batch led by the caller, reusing a recycled one.
func (n *Node) newBatch() *putBatch {
	var b *putBatch
	if k := len(n.freeBatches); k > 0 {
		b = n.freeBatches[k-1]
		n.freeBatches = n.freeBatches[:k-1]
	} else {
		b = &putBatch{done: sim.NewFuture[struct{}](n.s)}
	}
	b.holders = 1
	return b
}

// leaveBatch ends one holder's use of b, whose done is set; the last
// holder recycles it.
func (n *Node) leaveBatch(b *putBatch) {
	if b.holders--; b.holders > 0 {
		return
	}
	clear(b.items)
	b.items = b.items[:0]
	b.done.Reset()
	n.freeBatches = append(n.freeBatches, b)
}

// batchCommit runs the commit point of a primary put through the
// accumulator. It returns the op's committed timestamp, or ok=false when
// the op died with a crash (the caller abandons, like every stale
// handler). On success the commit record is fsynced and the timestamp
// multicast is on the wire; the caller proceeds to second-phase acks.
func (n *Node) batchCommit(p *sim.Proc, v *controller.PartitionView, req *PutRequest, ps *putState, obj *kvstore.Object) (kvstore.Timestamp, bool) {
	part := v.Partition
	it := &ps.item
	it.req, it.obj = req, obj
	if b := n.batches[part]; b != nil && len(b.items) < n.cfg.PutBatchMax {
		// Join the open batch and park until its leader drains it.
		b.items = append(b.items, it)
		b.holders++
		b.done.Wait(p)
		n.leaveBatch(b)
		if n.stale(ps) || !it.ok {
			return kvstore.Timestamp{}, false
		}
		return it.ts, true
	}

	b := n.newBatch()
	b.items = append(b.items, it)
	n.batches[part] = b
	p.Sleep(n.cfg.PutBatchWindow)
	// Close the batch before any yield point below: ops arriving once the
	// drain started must open a fresh batch, not ride a closed one.
	if n.batches[part] == b {
		delete(n.batches, part)
	}
	if n.stale(ps) {
		// Crashed during the linger. The joined items' locks, logs and put
		// states were wiped by Restart; just release the parked handlers so
		// they can observe the staleness themselves.
		b.done.Set(struct{}{})
		n.leaveBatch(b)
		return kvstore.Timestamp{}, false
	}

	// Drain: assign timestamps and commit locally in arrival order.
	items := make([]TsMsg, 0, len(b.items))
	for _, bi := range b.items {
		n.primarySeq++
		bi.ts = kvstore.Timestamp{
			Primary:    n.cfg.Addr.IP,
			PrimarySeq: n.primarySeq,
			Client:     bi.req.Client,
			ClientSeq:  bi.req.ClientSeq,
		}
		n.finish(part, bi.req.key(), bi.obj, bi.ts, false)
		bi.ok = true
		n.stats.PutsPrimary++
		items = append(items, TsMsg{Req: bi.req.key(), Key: bi.req.Key, Ts: bi.ts, Attempt: bi.req.Attempt})
	}
	n.stats.BatchCommits++
	n.stats.BatchedPuts += int64(len(b.items))

	// One fsync covers every commit record the drain appended — the
	// whole point of accumulating. Same contract as the single-op path:
	// durable before anything downstream learns of the commits.
	n.store.Sync(p)
	if n.stale(ps) {
		b.done.Set(struct{}{})
		n.leaveBatch(b)
		return kvstore.Timestamp{}, false
	}

	// Fragment below the transport MTU; each fragment is independently
	// complete (items route per-op on arrival), so splitting changes
	// framing only.
	for len(items) > 0 {
		chunk := items
		if len(chunk) > maxTsItemsPerMsg {
			chunk = chunk[:maxTsItemsPerMsg]
		}
		n.data.SendTo(v.GroupIP, n.cfg.Addr.DataPort, &BatchTsMsg{Items: chunk},
			batchHeader+len(chunk)*tsMsgSize)
		items = items[len(chunk):]
	}
	b.done.Set(struct{}{})
	n.leaveBatch(b)
	return it.ts, true
}
