package core

import (
	"fmt"
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

// ClientConfig parameterizes a NICEKV client. Clients know only the two
// virtual rings and the global replication level — never physical
// placement (§3.2).
type ClientConfig struct {
	Unicast, Multicast ring.VRing
	DataPort           uint16 // storage nodes' request port
	ReplyPort          uint16 // this client's reply listener
	R                  int    // system replication level
	// QuorumK, when non-zero, lets the put multicast return once any K
	// replicas hold the data (any-k transport, §5).
	QuorumK   int
	OpTimeout sim.Time
	// RetryWait is the base back-off before the first retry; subsequent
	// attempts double it up to RetryMaxWait, with ±25% deterministic
	// jitter so a fleet of clients does not retry in lockstep.
	RetryWait    sim.Time
	RetryMaxWait sim.Time // back-off cap (0 = 8x RetryWait)
	MaxRetries   int
}

// DefaultClientConfig fills the protocol timing the evaluation uses:
// 2-second base retry back-off (§6.6).
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		DataPort:   7000,
		ReplyPort:  8000,
		OpTimeout:  time.Second,
		RetryWait:  2 * time.Second,
		MaxRetries: 5,
	}
}

// OpResult reports one completed operation.
type OpResult struct {
	Latency sim.Time
	Retries int
	Found   bool // gets: object existed
	Value   any  // gets: the object value
	Size    int
	Version uint64 // committed version (primary sequence) acked/observed
}

// ErrOpFailed is returned when an operation exhausted its retries.
var ErrOpFailed = fmt.Errorf("core: operation failed after retries")

// OpError describes an operation that exhausted its retry budget: which
// op against which key, how many attempts were made, and what the final
// attempt observed. It unwraps to ErrOpFailed, so existing
// errors.Is(err, ErrOpFailed) checks keep working.
type OpError struct {
	Op       string // "put" or "get"
	Key      string
	Attempts int
	Last     string // the final attempt's failure ("timeout" or a node error)
}

func (e *OpError) Error() string {
	return fmt.Sprintf("core: %s %q failed after %d attempts: %s", e.Op, e.Key, e.Attempts, e.Last)
}

// Unwrap makes OpError match ErrOpFailed under errors.Is.
func (e *OpError) Unwrap() error { return ErrOpFailed }

// Client is a NICEKV client endpoint.
type Client struct {
	cfg     ClientConfig
	stack   *transport.Stack
	udp     *transport.UDPSocket
	pending map[uint64]*sim.Future[any]
	// replies recycles the single-op attempts' reply futures: one is
	// returned once its attempt's pending entry is gone — dispatch
	// deletes the entry before it resolves the future, and a timed-out
	// attempt deletes it itself — so no reply can reach it any more.
	replies sim.Free[sim.Future[any]]
	// putReqs holds the put requests every holder let go of, and
	// getReqs the get requests whose own attempt was answered: the reply
	// came in the request's room, so no copy of it is left in flight.
	putReqs sim.Free[PutRequest]
	getReqs sim.Free[GetRequest]
	seq     uint64
}

// reply takes a pending reply future off the free list, or makes one.
func (c *Client) reply() *sim.Future[any] {
	if f := c.replies.Take(); f != nil {
		return f
	}
	return sim.NewFuture[any](c.stack.Sim())
}

// recycle returns an attempt's reply future to the free list.
func (c *Client) recycle(f *sim.Future[any]) {
	f.Reset()
	c.replies.Put(f)
}

// NewClient attaches a client to a host's transport stack.
func NewClient(stack *transport.Stack, cfg ClientConfig) *Client {
	return &Client{cfg: cfg, stack: stack, pending: make(map[uint64]*sim.Future[any])}
}

// Start binds the request socket and the reply listeners. Replies come
// back two ways: storage nodes answer on the client's reply stream, while
// an in-switch cache hit is synthesized as a single UDP datagram to the
// same port (the switch cannot speak the stream protocol), so the client
// listens on both.
func (c *Client) Start() {
	c.udp = c.stack.MustBindUDP(0)
	rep := c.stack.MustBindUDP(c.cfg.ReplyPort)
	c.stack.Sim().Spawn("client-udp-replies", func(p *sim.Proc) {
		for {
			d, ok := rep.Recv(p)
			if !ok {
				return
			}
			c.dispatch(d.Data)
		}
	})
	ln := c.stack.MustListen(c.cfg.ReplyPort)
	c.stack.Sim().Spawn("client-accept", func(p *sim.Proc) {
		for {
			conn, ok := ln.Accept(p)
			if !ok {
				return
			}
			c.stack.Sim().Spawn("client-reader", func(p *sim.Proc) {
				for {
					m, ok := conn.Recv(p)
					if !ok {
						return
					}
					c.dispatch(m.Data)
				}
			})
		}
	})
}

// dispatch matches a reply to its waiting operation. A put reply no op
// waits for any more is read here for the last time, so it goes back to
// its sender (counted).
func (c *Client) dispatch(data any) {
	var id uint64
	switch m := data.(type) {
	case *PutReply:
		id = m.ReqID
	case *GetReply:
		id = m.ReqID
	default:
		return
	}
	if f, ok := c.pending[id]; ok {
		delete(c.pending, id)
		f.Set(data)
	} else if m, ok := data.(*PutReply); ok {
		m.release()
	}
}

// backoff sleeps before retry attempt (0-based): RetryWait doubled per
// attempt up to RetryMaxWait, jittered ±25% from the simulation RNG —
// deterministic per seed, decorrelated across clients.
func (c *Client) backoff(p *sim.Proc, attempt int) {
	d := c.cfg.RetryWait
	if d <= 0 {
		return
	}
	maxWait := c.cfg.RetryMaxWait
	if maxWait <= 0 {
		maxWait = 8 * d
	}
	for i := 0; i < attempt && d < maxWait; i++ {
		d *= 2
	}
	if d > maxWait {
		d = maxWait
	}
	j := 0.75 + 0.5*c.stack.Sim().Rand().Float64()
	p.Sleep(sim.Time(float64(d) * j))
}

// Put stores key=value (size payload bytes), multicasting the object to
// the replica set in a single network-level operation and waiting for the
// primary's commit acknowledgment. Failed attempts (a replica died
// mid-put) are retried with capped exponential back-off, as in §4.4/§6.6.
// Every attempt reuses the same ClientSeq: the retry is the same logical
// put, which the replicas deduplicate, so a put retried after a partial
// commit cannot apply twice.
func (c *Client) Put(p *sim.Proc, key string, value any, size int) (OpResult, error) {
	c.seq++
	return c.putAttempts(p, p.Now(), key, value, size, c.seq, 0, "timeout")
}

// putAttempts runs delivery attempts [first, MaxRetries] of the logical
// put identified by id. MultiPut re-enters here (first > 0) for ops its
// batched attempt did not acknowledge: the retries keep the batch's
// ClientSeq, so the replicas' dedup records converge them on the batch's
// commit wherever it did land.
func (c *Client) putAttempts(p *sim.Proc, start sim.Time, key string, value any, size int, id uint64, first int, last string) (OpResult, error) {
	for attempt := first; attempt <= c.cfg.MaxRetries; attempt++ {
		// A request per attempt: messages travel by reference in the sim,
		// and each attempt must carry its own number so a replica can tell
		// a stale abort from one aimed at the prepare it holds. The client
		// holds it until the attempt is answered.
		req := takeCounted(&c.putReqs)
		req.Key, req.Value, req.Size = key, value, size
		req.Client, req.ClientPort, req.ClientSeq, req.Attempt = c.stack.IP(), c.cfg.ReplyPort, id, attempt
		f := c.reply()
		c.pending[id] = f

		_, err := c.stack.SendMulticast(p, transport.McastOpts{
			To:        c.cfg.Multicast.AddrOfKey(key),
			ToPort:    c.cfg.DataPort,
			Data:      req,
			Size:      size + putHeaderSize,
			Receivers: c.cfg.R,
			K:         c.cfg.QuorumK,
			Timeout:   c.cfg.OpTimeout,
		})
		if err != nil {
			last = err.Error()
		} else if raw, ok := f.WaitTimeout(p, c.cfg.OpTimeout); ok {
			rep := raw.(*PutReply)
			acked, ver, errStr := rep.OK, rep.Ver, rep.Err
			rep.release()
			// Answered: the client is done with the request. An attempt
			// that failed or timed out keeps its hold, and its request goes
			// to the GC.
			req.release()
			if acked {
				c.recycle(f)
				return OpResult{Latency: p.Now() - start, Retries: attempt, Size: size, Version: ver}, nil
			}
			last = errStr
		} else {
			last = "timeout"
		}
		delete(c.pending, id)
		c.recycle(f)
		if attempt < c.cfg.MaxRetries {
			c.backoff(p, attempt)
		}
	}
	return OpResult{Latency: p.Now() - start, Retries: c.cfg.MaxRetries},
		&OpError{Op: "put", Key: key, Attempts: c.cfg.MaxRetries + 1, Last: last}
}

// Get reads key through the unicast vring: one UDP datagram out, the
// object back on the reply stream. Timeouts retry against the (possibly
// re-mapped) vring with the same back-off as puts; a partition that stays
// dead surfaces a typed *OpError after MaxRetries+1 attempts rather than
// blocking forever. The request ID is stable across attempts, so a late
// reply to an earlier attempt satisfies the operation.
func (c *Client) Get(p *sim.Proc, key string) (OpResult, error) {
	c.seq++
	return c.getAttempts(p, p.Now(), key, c.seq, 0)
}

// getAttempts runs delivery attempts [first, MaxRetries] of the read
// identified by id. MultiGet re-enters here (first > 0) for reads its
// batched datagram left unanswered; the stable id keeps a late reply to
// the batch attempt acceptable.
func (c *Client) getAttempts(p *sim.Proc, start sim.Time, key string, id uint64, first int) (OpResult, error) {
	for attempt := first; attempt <= c.cfg.MaxRetries; attempt++ {
		f := c.reply()
		c.pending[id] = f
		// A request per attempt: the retry counter steers harmonia's
		// replica hash, and a timed-out attempt's request may still be in
		// flight.
		r := c.getReqs.Take()
		if r == nil {
			r = new(GetRequest)
		}
		*r = GetRequest{
			Key:        key,
			ReqID:      id,
			Client:     c.stack.IP(),
			ClientPort: c.cfg.ReplyPort,
			Attempt:    attempt,
		}
		c.udp.SendTo(c.cfg.Unicast.AddrOfKey(key), c.cfg.DataPort, r, getReqSize)
		if raw, ok := f.WaitTimeout(p, c.cfg.OpTimeout); ok {
			c.recycle(f)
			rep := raw.(*GetReply)
			res := OpResult{
				Latency: p.Now() - start,
				Retries: attempt,
				Found:   rep.Found,
				Value:   rep.Value,
				Size:    rep.Size,
				Version: rep.Ver,
			}
			if rep == &r.reply {
				// Answered in its own room: whoever read r has done with it.
				c.getReqs.Put(r)
			}
			return res, nil
		}
		delete(c.pending, id)
		c.recycle(f)
		if attempt < c.cfg.MaxRetries {
			c.backoff(p, attempt)
		}
	}
	return OpResult{Latency: p.Now() - start, Retries: c.cfg.MaxRetries},
		&OpError{Op: "get", Key: key, Attempts: c.cfg.MaxRetries + 1, Last: "timeout"}
}
