package noob

import (
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

// GatewayMode selects the §2.1 access mechanism a gateway implements.
type GatewayMode int

const (
	// ROG forwards to a random storage node, which proxies onward if it
	// is not a replica: two extra hops.
	ROG GatewayMode = iota
	// RAG knows replica placement and forwards to the right node
	// directly: one extra hop.
	RAG
)

// GetPolicy selects which replica serves reads.
type GetPolicy int

const (
	// GetPrimary sends every read to the primary (the primary-only
	// design of §4.5).
	GetPrimary GetPolicy = iota
	// GetRoundRobin load-balances reads across the replica set.
	GetRoundRobin
)

// GatewayConfig parameterizes a NOOB gateway / load balancer.
type GatewayConfig struct {
	Self      Addr
	Nodes     []Addr
	Placement ring.Placement
	Space     ring.Space
	Mode      GatewayMode
	Gets      GetPolicy
	// CPUPerOp is the per-proxied-request processing cost (gateways are
	// the §4.5 choke point).
	CPUPerOp sim.Time
}

// Gateway is the off-the-shelf load balancer NOOB deployments put in
// front of the storage nodes (§2.1). It proxies whole requests and
// responses, adding the hop(s) the paper measures.
type Gateway struct {
	cfg   GatewayConfig
	stack *transport.Stack
	s     *sim.Simulator
	pool  *rpcPool
	cpu   *sim.Resource
	rr    int
}

// NewGateway builds a gateway on a host stack.
func NewGateway(stack *transport.Stack, cfg GatewayConfig) *Gateway {
	return &Gateway{cfg: cfg, stack: stack, s: stack.Sim(), pool: newRPCPool(stack), cpu: sim.NewResource(stack.Sim())}
}

// Start begins proxying.
func (g *Gateway) Start() {
	ln := g.stack.MustListen(g.cfg.Self.Port)
	serveRPC(g.stack, ln, g.handle)
}

// target picks the storage node for one request per the gateway mode.
func (g *Gateway) target(key string, isGet bool) Addr {
	switch g.cfg.Mode {
	case RAG:
		part := g.cfg.Space.PartitionOf(key)
		idxs := g.cfg.Placement.Replicas(part)
		if isGet && g.cfg.Gets == GetRoundRobin {
			g.rr++
			return g.cfg.Nodes[idxs[g.rr%len(idxs)]]
		}
		return g.cfg.Nodes[idxs[0]]
	default: // ROG: replica-oblivious random choice
		return g.cfg.Nodes[g.s.Rand().Intn(len(g.cfg.Nodes))]
	}
}

// handle proxies one request and relays the response.
func (g *Gateway) handle(p *sim.Proc, body any) (any, int) {
	g.cpu.Use(p, g.cfg.CPUPerOp)
	switch m := body.(type) {
	case *PutReq:
		resp, ok := g.pool.Call(p, g.target(m.Key, false), m, m.Size+reqOverhead)
		if !ok {
			return &PutResp{OK: false, Err: "backend unreachable"}, respOverhead
		}
		return resp, respOverhead
	case *GetReq:
		resp, ok := g.pool.Call(p, g.target(m.Key, true), m, reqOverhead)
		if !ok {
			return &GetResp{}, respOverhead
		}
		if gr, isGet := resp.(*GetResp); isGet {
			return gr, gr.Size + respOverhead
		}
		return &GetResp{}, respOverhead
	}
	return &PutResp{OK: false, Err: "unknown request"}, respOverhead
}
