package core

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Batched client operations (DESIGN.md §16). MultiPut and MultiGet pack
// the ops headed for the same destination into one wire transfer; every
// op keeps its own ClientSeq, its own reply future and its own retry
// budget, so failure handling is identical to the single-op calls — a
// batch is never acknowledged or retried as a unit.

// PutOp is one operation in a MultiPut.
type PutOp struct {
	Key   string
	Value any
	Size  int
}

// MultiPut issues the ops concurrently, packing those that share a
// partition (multicast address) into one batched prepare multicast each.
// Results and errors are positional; errs[i] is non-nil when op i
// exhausted its retries.
func (c *Client) MultiPut(p *sim.Proc, ops []PutOp) ([]OpResult, []error) {
	start := p.Now()
	results := make([]OpResult, len(ops))
	errs := make([]error, len(ops))
	if len(ops) == 0 {
		return results, errs
	}
	ids := make([]uint64, len(ops))
	futs := make([]*sim.Future[any], len(ops))
	type group struct {
		addr  netsim.IP
		batch *BatchPutRequest
		size  int
	}
	var groups []*group
	byAddr := make(map[netsim.IP]*group)
	for i, op := range ops {
		c.seq++
		ids[i] = c.seq
		req := &PutRequest{
			Key:        op.Key,
			Value:      op.Value,
			Size:       op.Size,
			Client:     c.stack.IP(),
			ClientPort: c.cfg.ReplyPort,
			ClientSeq:  ids[i],
		}
		futs[i] = sim.NewFuture[any](c.stack.Sim())
		c.pending[ids[i]] = futs[i]
		a := c.cfg.Multicast.AddrOfKey(op.Key)
		g := byAddr[a]
		if g == nil {
			g = &group{addr: a, batch: &BatchPutRequest{}, size: batchHeader}
			byAddr[a] = g
			groups = append(groups, g)
		}
		g.batch.Ops = append(g.batch.Ops, req)
		g.size += op.Size + putHeaderSize
	}

	// One prepare multicast per partition, transfers in parallel. The
	// receivers explode the batch into per-op handlers; replies come back
	// per op.
	wg := sim.NewGroup(c.stack.Sim())
	for _, g := range groups {
		wg.Add(1)
		c.stack.Sim().Spawn("client-multiput", func(p *sim.Proc) {
			defer wg.Done()
			// A failed transfer surfaces as the ops' reply timeouts below.
			_, _ = c.stack.SendMulticast(p, transport.McastOpts{
				To:        g.addr,
				ToPort:    c.cfg.DataPort,
				Data:      g.batch,
				Size:      g.size,
				Receivers: c.cfg.R,
				K:         c.cfg.QuorumK,
				Timeout:   c.cfg.OpTimeout,
			})
		})
	}
	wg.Wait(p)

	// Collect per-op replies under one shared deadline (the futures
	// resolve independently, so scanning in order still bounds the whole
	// pass by OpTimeout). Unacknowledged ops fall back to the single-op
	// retry path under the same ClientSeq.
	deadline := start + c.cfg.OpTimeout
	for i := range ops {
		last := "timeout"
		if raw, ok := futs[i].WaitTimeout(p, deadline-p.Now()); ok {
			rep := raw.(*PutReply)
			acked, ver := rep.OK, rep.Ver
			last = rep.Err
			rep.release()
			if acked {
				results[i] = OpResult{Latency: p.Now() - start, Size: ops[i].Size, Version: ver}
				continue
			}
		}
		delete(c.pending, ids[i])
		if c.cfg.MaxRetries < 1 {
			results[i] = OpResult{Latency: p.Now() - start}
			errs[i] = &OpError{Op: "put", Key: ops[i].Key, Attempts: 1, Last: last}
			continue
		}
		c.backoff(p, 0)
		results[i], errs[i] = c.putAttempts(p, start, ops[i].Key, ops[i].Value, ops[i].Size, ids[i], 1, last)
		results[i].Retries++ // the batched attempt
	}
	return results, errs
}

// MultiGet reads the keys, packing those that hash to the same node
// (unicast address) into one batched request datagram each. Results and
// errors are positional, as in MultiPut.
func (c *Client) MultiGet(p *sim.Proc, keys []string) ([]OpResult, []error) {
	start := p.Now()
	results := make([]OpResult, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return results, errs
	}
	ids := make([]uint64, len(keys))
	futs := make([]*sim.Future[any], len(keys))
	type group struct {
		addr  netsim.IP
		batch *BatchGetRequest
	}
	var groups []*group
	byAddr := make(map[netsim.IP]*group)
	for i, key := range keys {
		c.seq++
		ids[i] = c.seq
		req := &GetRequest{
			Key:        key,
			ReqID:      ids[i],
			Client:     c.stack.IP(),
			ClientPort: c.cfg.ReplyPort,
		}
		futs[i] = sim.NewFuture[any](c.stack.Sim())
		c.pending[ids[i]] = futs[i]
		a := c.cfg.Unicast.AddrOfKey(key)
		g := byAddr[a]
		if g == nil {
			g = &group{addr: a, batch: &BatchGetRequest{}}
			byAddr[a] = g
			groups = append(groups, g)
		}
		g.batch.Reqs = append(g.batch.Reqs, req)
	}
	for _, g := range groups {
		// Fragment below the transport MTU; receivers serve each request
		// independently, so splitting changes framing only.
		reqs := g.batch.Reqs
		for len(reqs) > 0 {
			chunk := reqs
			if len(chunk) > maxGetReqsPerMsg {
				chunk = chunk[:maxGetReqsPerMsg]
			}
			c.udp.SendTo(g.addr, c.cfg.DataPort, &BatchGetRequest{Reqs: chunk},
				batchHeader+len(chunk)*getReqSize)
			reqs = reqs[len(chunk):]
		}
	}
	deadline := start + c.cfg.OpTimeout
	for i := range keys {
		if raw, ok := futs[i].WaitTimeout(p, deadline-p.Now()); ok {
			rep := raw.(*GetReply)
			results[i] = OpResult{
				Latency: p.Now() - start,
				Found:   rep.Found,
				Value:   rep.Value,
				Size:    rep.Size,
				Version: rep.Ver,
			}
			continue
		}
		delete(c.pending, ids[i])
		if c.cfg.MaxRetries < 1 {
			results[i] = OpResult{Latency: p.Now() - start}
			errs[i] = &OpError{Op: "get", Key: keys[i], Attempts: 1, Last: "timeout"}
			continue
		}
		c.backoff(p, 0)
		results[i], errs[i] = c.getAttempts(p, start, keys[i], ids[i], 1)
		results[i].Retries++ // the batched attempt
	}
	return results, errs
}
