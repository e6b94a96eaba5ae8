package noob

import (
	"slices"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
)

// rpcTimeout bounds one NOOB request/response exchange.
const rpcTimeout = 2 * time.Second

// rpcReq frames a request on a shared stream.
type rpcReq struct {
	ID   uint64
	Body any
}

// rpcResp frames a response.
type rpcResp struct {
	ID   uint64
	Body any
	Size int
}

// rpcPeer multiplexes concurrent request/response exchanges over one
// cached stream to a peer — the "maintained TCP connections" of a NOOB
// deployment. Safe for use by many processes on the same host.
type rpcPeer struct {
	stack   *transport.Stack
	to      Addr
	s       *sim.Simulator
	outq    *sim.Queue[outFrame]
	pending map[uint64]*sim.Future[*rpcResp]
	nextID  uint64
	started bool
	dead    bool
}

type outFrame struct {
	msg  any
	size int
}

func newRPCPeer(stack *transport.Stack, to Addr) *rpcPeer {
	return &rpcPeer{
		stack:   stack,
		to:      to,
		s:       stack.Sim(),
		outq:    sim.NewQueue[outFrame](stack.Sim()),
		pending: make(map[uint64]*sim.Future[*rpcResp]),
	}
}

// start dials and spawns the writer/reader pair.
func (r *rpcPeer) start() {
	r.started = true
	r.s.Spawn("rpc-io", func(p *sim.Proc) {
		conn, err := r.stack.Dial(p, r.to.IP, r.to.Port)
		if err != nil {
			r.fail()
			return
		}
		r.s.Spawn("rpc-writer", func(p *sim.Proc) {
			for {
				f, ok := r.outq.Pop(p)
				if !ok {
					conn.Close()
					return
				}
				if err := conn.Send(p, f.msg, f.size); err != nil {
					r.fail()
					return
				}
			}
		})
		for {
			m, ok := conn.Recv(p)
			if !ok {
				r.fail()
				return
			}
			if resp, ok := m.Data.(*rpcResp); ok {
				if f, ok := r.pending[resp.ID]; ok {
					delete(r.pending, resp.ID)
					f.Set(resp)
				}
			}
		}
	})
}

// fail wakes every waiter with no answer, oldest call first (never in
// map order: the woken callers act on the simulation), and marks the
// peer for re-dialing.
func (r *rpcPeer) fail() {
	if r.dead {
		return
	}
	r.dead = true
	ids := make([]uint64, 0, len(r.pending))
	for id := range r.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if f := r.pending[id]; !f.Done() {
			f.Set(nil)
		}
		delete(r.pending, id)
	}
	r.outq.Close()
}

// Call sends body (of wire size reqSize) and waits for the response.
func (r *rpcPeer) Call(p *sim.Proc, body any, reqSize int) (any, bool) {
	if r.dead {
		return nil, false
	}
	if !r.started {
		r.start()
	}
	r.nextID++
	id := r.nextID
	f := sim.NewFuture[*rpcResp](r.s)
	r.pending[id] = f
	r.outq.Push(outFrame{msg: &rpcReq{ID: id, Body: body}, size: reqSize})
	resp, ok := f.WaitTimeout(p, rpcTimeout)
	if !ok || resp == nil {
		delete(r.pending, id)
		return nil, false
	}
	return resp.Body, true
}

// rpcPool caches one rpcPeer per destination.
type rpcPool struct {
	stack *transport.Stack
	peers map[Addr]*rpcPeer
}

func newRPCPool(stack *transport.Stack) *rpcPool {
	return &rpcPool{stack: stack, peers: make(map[Addr]*rpcPeer)}
}

// Call routes one exchange to the destination, re-dialing dead peers.
func (pl *rpcPool) Call(p *sim.Proc, to Addr, body any, reqSize int) (any, bool) {
	pe := pl.peers[to]
	if pe == nil || pe.dead {
		pe = newRPCPeer(pl.stack, to)
		pl.peers[to] = pe
	}
	return pe.Call(p, body, reqSize)
}

// rpcHandler computes a response for one inbound request body.
type rpcHandler func(p *sim.Proc, body any) (respBody any, respSize int)

// serveRPC runs the server side of the framing on a listener: one reader
// proc per connection, one handler proc per request, responses serialized
// by a writer queue.
func serveRPC(stack *transport.Stack, ln *transport.Listener, handle rpcHandler) {
	s := stack.Sim()
	s.Spawn("rpc-accept", func(p *sim.Proc) {
		for {
			conn, ok := ln.Accept(p)
			if !ok {
				return
			}
			respq := sim.NewQueue[outFrame](s)
			s.Spawn("rpc-respwriter", func(p *sim.Proc) {
				for {
					f, ok := respq.Pop(p)
					if !ok {
						return
					}
					if err := conn.Send(p, f.msg, f.size); err != nil {
						return
					}
				}
			})
			s.Spawn("rpc-serve", func(p *sim.Proc) {
				defer respq.Close()
				for {
					m, ok := conn.Recv(p)
					if !ok {
						return
					}
					req, ok := m.Data.(*rpcReq)
					if !ok {
						continue
					}
					s.Spawn("rpc-handle", func(p *sim.Proc) {
						body, size := handle(p, req.Body)
						respq.Push(outFrame{
							msg:  &rpcResp{ID: req.ID, Body: body, Size: size},
							size: size,
						})
					})
				}
			})
		}
	})
}
