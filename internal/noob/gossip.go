package noob

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The epidemic membership protocol (§2.1: "an epidemic protocol entailing
// O(log n) steps and over O(N) messages") is the classic fanout-2 push.
const (
	GossipFanout = 2                     // peers infected per round
	GossipPeriod = 50 * time.Millisecond // round length
)

// gossipMsg carries one membership rumor.
type gossipMsg struct {
	Epoch  uint64
	Failed []int
}

// GossipMember is a node endpoint participating in epidemic membership
// dissemination. It is deliberately independent of the storage node so
// the membership-cost experiment can run it at any N cheaply.
type GossipMember struct {
	stack   *transport.Stack
	self    int
	peers   []netsim.IP
	port    uint16
	sock    *transport.UDPSocket
	epoch   uint64
	rumor   *gossipMsg
	hot     bool // still forwarding the current rumor
	msgs    int64
	rounds  int
	started bool
}

// NewGossipMember binds a member on its host.
func NewGossipMember(stack *transport.Stack, self int, peers []netsim.IP, port uint16) *GossipMember {
	g := &GossipMember{stack: stack, self: self, peers: peers, port: port}
	g.sock = stack.MustBindUDP(port)
	return g
}

// Start spawns the receive and round loops.
func (g *GossipMember) Start() {
	if g.started {
		return
	}
	g.started = true
	s := g.stack.Sim()
	s.Spawn("gossip-recv", func(p *sim.Proc) {
		for {
			d, ok := g.sock.Recv(p)
			if !ok {
				return
			}
			m, ok := d.Data.(*gossipMsg)
			if !ok || m.Epoch <= g.epoch {
				continue // already known (or stale): the epidemic dies out
			}
			g.epoch = m.Epoch
			g.rumor = m
			g.hot = true
			g.rounds = 0
		}
	})
	s.Spawn("gossip-rounds", func(p *sim.Proc) {
		for {
			p.Sleep(GossipPeriod)
			if !g.hot {
				continue
			}
			g.rounds++
			// Push the rumor to GossipFanout random peers. A fixed number of
			// forwarding rounds suffices for whp dissemination; 2*log2(N)
			// is the textbook bound.
			limit := 2 * log2ceil(len(g.peers))
			if g.rounds > limit {
				g.hot = false
				continue
			}
			for i := 0; i < GossipFanout; i++ {
				target := g.peers[s.Rand().Intn(len(g.peers))]
				if target == g.stack.IP() {
					continue
				}
				g.sock.SendTo(target, g.port, g.rumor, 128)
				g.msgs++
			}
		}
	})
}

// Announce seeds a new rumor at this member.
func (g *GossipMember) Announce(failed []int) {
	g.epoch++
	g.rumor = &gossipMsg{Epoch: g.epoch, Failed: failed}
	g.hot = true
	g.rounds = 0
}

// Epoch returns the member's latest known membership epoch.
func (g *GossipMember) Epoch() uint64 { return g.epoch }

// MsgsSent returns the rumors this member forwarded.
func (g *GossipMember) MsgsSent() int64 { return g.msgs }

func log2ceil(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	if b == 0 {
		return 1
	}
	return b
}
