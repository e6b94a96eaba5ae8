package core

import (
	"cmp"
	"slices"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// outMsg is one queued message for a pooled connection.
type outMsg struct {
	data any
	size int
}

// connWriter serializes sends on one cached stream connection: streams
// allow a single in-flight Send, so concurrent protocol replies to the
// same peer queue here and a writer proc drains them in order.
type connWriter struct {
	q      *sim.Queue[outMsg]
	failed bool
}

// connPool caches outbound connections per (peer, port), dialing lazily.
// The paper's nodes keep server-to-client connections open across
// operations; this is that cache.
type connPool struct {
	stack   *transport.Stack
	writers map[connPoolKey]*connWriter
}

type connPoolKey struct {
	ip   netsim.IP
	port uint16
}

func newConnPool(stack *transport.Stack) *connPool {
	return &connPool{stack: stack, writers: make(map[connPoolKey]*connWriter)}
}

// Send queues msg for delivery to ip:port, establishing the connection on
// first use. Delivery is best-effort: a dead peer's writer drops its
// queue (the protocol layers above carry their own timeouts).
func (cp *connPool) Send(ip netsim.IP, port uint16, data any, size int) {
	key := connPoolKey{ip, port}
	w, ok := cp.writers[key]
	if ok && w.failed {
		delete(cp.writers, key)
		ok = false
	}
	if !ok {
		w = &connWriter{q: sim.NewQueue[outMsg](cp.stack.Sim())}
		cp.writers[key] = w
		cp.stack.Sim().Spawn("connwriter", func(p *sim.Proc) {
			conn, err := cp.stack.Dial(p, ip, port)
			if err != nil {
				w.failed = true
				w.q.Close()
				return
			}
			defer conn.Close()
			for {
				m, ok := w.q.Pop(p)
				if !ok {
					return
				}
				if err := conn.Send(p, m.data, m.size); err != nil {
					w.failed = true
					w.q.Close()
					return
				}
			}
		})
	}
	w.q.Push(outMsg{data: data, size: size})
}

// CloseAll drops every cached connection (node restart), in peer-address
// order: each close wakes a writer whose FIN then queues on the node's
// link, so the order must not be the map's.
func (cp *connPool) CloseAll() {
	keys := make([]connPoolKey, 0, len(cp.writers))
	for k := range cp.writers {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b connPoolKey) int {
		return cmp.Or(cmp.Compare(a.ip, b.ip), cmp.Compare(a.port, b.port))
	})
	for _, k := range keys {
		if w := cp.writers[k]; !w.failed {
			w.q.Close()
		}
		delete(cp.writers, k)
	}
}
