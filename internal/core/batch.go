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

// putBatch is the payload of one open (or draining) commit batch for a
// partition: a sim.Gather whose leader drains the items, reset when it
// opens the batch, and whose End releases the joiners.
type putBatch struct {
	items []*batchItem
	// out holds the drain's timestamp multicasts between the drain and the
	// fsync that must precede their send.
	out []*BatchTsMsg
}

// batchItem is one put parked at the commit point, embedded in its put
// state. The leader writes a joiner's item only before the batch ends, and
// the joiner leaves Join only after it, so no item outlives its put state.
type batchItem struct {
	req *PutRequest
	obj *kvstore.Object
	ts  kvstore.Timestamp
	ok  bool // drained: timestamp assigned and object applied
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
	if b := n.batches[part]; b != nil && len(b.Val.items) < n.cfg.PutBatchMax {
		// Join the open batch and park until its leader drains it.
		b.Val.items = append(b.Val.items, it)
		b.Join(p)
		if n.ended(ps.life) || !it.ok {
			return kvstore.Timestamp{}, false
		}
		return it.ts, true
	}

	b := sim.OpenGather(n.s, &n.freeBatches)
	b.Val.items = append(b.Val.items[:0], it)
	n.batches[part] = b
	p.Sleep(n.cfg.PutBatchWindow)
	// Close the batch before any yield point below: ops arriving once the
	// drain started must open a fresh batch, not ride a closed one.
	if n.batches[part] == b {
		delete(n.batches, part)
	}
	if b.Ended() || n.ended(ps.life) {
		// Crashed during the linger: Crash ended the batch and released the
		// joiners, which never drained (ok=false).
		b.End()
		return kvstore.Timestamp{}, false
	}

	// Drain: assign timestamps and commit locally in arrival order. The
	// timestamps fill multicasts of at most maxTsItemsPerMsg items, each
	// below the transport MTU and independently complete (items route
	// per-op on arrival), so splitting changes framing only.
	bt := &b.Val
	for _, bi := range bt.items {
		n.primarySeq++
		bi.ts = kvstore.Timestamp{
			Primary:    n.cfg.Addr.IP,
			PrimarySeq: n.primarySeq,
			Client:     bi.req.Client,
			ClientSeq:  bi.req.ClientSeq,
		}
		n.finish(part, bi.req.key(), bi.req.Attempt, bi.obj, bi.ts, false)
		bi.ok = true
		n.stats.PutsPrimary++
		if k := len(bt.out); k == 0 || len(bt.out[k-1].Items) == maxTsItemsPerMsg {
			bt.out = append(bt.out, n.tsMsg())
		}
		m := bt.out[len(bt.out)-1]
		m.Items = append(m.Items, TsMsg{Req: bi.req.key(), Key: bi.req.Key, Ts: bi.ts, Attempt: int32(bi.req.Attempt)})
	}
	n.stats.BatchCommits++
	n.stats.BatchedPuts += int64(len(bt.items))

	// One fsync covers every commit record the drain appended — the
	// whole point of accumulating. Same contract as the single-op path:
	// durable before anything downstream learns of the commits.
	n.store.Sync(p)
	stale := n.ended(ps.life)
	for _, m := range bt.out {
		if stale {
			m.release() // never sent
		} else {
			n.multicastTs(v, m, batchHeader+len(m.Items)*tsMsgSize)
		}
	}
	clear(bt.out)
	bt.out = bt.out[:0]
	b.End()
	if stale {
		return kvstore.Timestamp{}, false
	}
	return it.ts, true
}
