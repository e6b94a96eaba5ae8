package cluster

import (
	"strconv"

	"repro/internal/netsim"
	"repro/internal/noob"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

// NOOBOptions extends the base deployment options with the baseline's
// configuration matrix (§6: ROG/RAG/RAC × primary-only/2PC, quorum,
// chain).
type NOOBOptions struct {
	Options
	Access      noob.AccessMode
	Gateway     noob.GatewayMode
	Consistency noob.Consistency
	Replication noob.Replication
	Gets        noob.GetPolicy
}

// DefaultNOOBOptions mirrors the paper's baseline defaults: RAC access,
// primary-only consistency.
func DefaultNOOBOptions() NOOBOptions {
	return NOOBOptions{
		Options:     DefaultOptions(),
		Access:      noob.RAC,
		Consistency: noob.PrimaryOnly,
	}
}

// NOOB is a complete baseline deployment. The switch is a plain L3
// forwarder: the network is oblivious to the storage system.
type NOOB struct {
	Opts      NOOBOptions
	Sim       *sim.Simulator
	Net       *netsim.Network
	Switch    *netsim.Switch
	Nodes     []*noob.Node
	Stacks    []*transport.Stack
	Gateway   *noob.Gateway
	GWStack   *transport.Stack
	Clients   []*noob.Client
	CStacks   []*transport.Stack
	Member    *noob.Membership
	Space     ring.Space
	Addrs     []noob.Addr
	Placement ring.Placement
}

// NewNOOB builds and boots a NOOB deployment.
func NewNOOB(opts NOOBOptions) *NOOB {
	s := sim.New(opts.Seed)
	nw := netsim.NewNetwork(s)
	d := &NOOB{Opts: opts, Sim: s, Net: nw, Space: ring.NewSpace(opts.Nodes)}

	nPorts := opts.Nodes + opts.Clients + 2
	sw := nw.NewSwitch("l3", nPorts, SwitchLatency)
	d.Switch = sw

	// Static L3 forwarding: dumb and fast, per the end-to-end principle.
	ports := make(map[netsim.IP]int)
	macs := make(map[netsim.IP]netsim.MAC)
	sw.SetPipeline(netsim.PipelineFunc(func(sw *netsim.Switch, pkt *netsim.Packet, inPort int) {
		if port, ok := ports[pkt.DstIP]; ok {
			pkt.DstMAC = macs[pkt.DstIP]
			sw.Output(port, pkt)
			return
		}
		sw.Drop(pkt)
	}))
	attach := func(h *netsim.Host, port int) {
		nw.Connect(h.Port(), sw.Port(port), platformLink)
		ports[h.IP()] = port
		macs[h.IP()] = h.MAC()
	}

	placement := ring.NewPlacement(opts.Nodes, opts.R)
	d.Placement = placement

	// Storage nodes on ports [0, Nodes).
	for i := 0; i < opts.Nodes; i++ {
		h := nw.NewHost("node"+strconv.Itoa(i), netsim.IPv4(10, 0, byte(i>>8), byte(i&0xff)).Add(1))
		attach(h, i)
		st := transport.NewStack(h)
		d.Stacks = append(d.Stacks, st)
		d.Addrs = append(d.Addrs, noob.Addr{Index: i, IP: h.IP(), Port: DataPort})
	}
	for i := 0; i < opts.Nodes; i++ {
		cfg := noob.NodeConfig{
			Self:        d.Addrs[i],
			Nodes:       d.Addrs,
			Placement:   placement,
			Space:       d.Space,
			Consistency: opts.Consistency,
			Replication: opts.Replication,
			QuorumK:     opts.QuorumK,
			Disk:        opts.Disk,
			CPUPerOp:    opts.CPUPerOp,
		}
		n := noob.NewNode(d.Stacks[i], cfg)
		n.Start()
		d.Nodes = append(d.Nodes, n)
	}

	// Gateway host on port Nodes (deployed even for RAC runs; unused
	// there, as in the paper's testbed where gateway machines idle).
	gwHost := nw.NewHost("gateway", netsim.MustParseIP("10.254.0.2"))
	attach(gwHost, opts.Nodes)
	d.GWStack = transport.NewStack(gwHost)
	gwAddr := noob.Addr{Index: -1, IP: gwHost.IP(), Port: DataPort}
	d.Gateway = noob.NewGateway(d.GWStack, noob.GatewayConfig{
		Self:      gwAddr,
		Nodes:     d.Addrs,
		Placement: placement,
		Space:     d.Space,
		Mode:      opts.Gateway,
		Gets:      opts.Gets,
		CPUPerOp:  opts.CPUPerOp / 4, // forwarding is cheaper than serving
	})
	d.Gateway.Start()

	// Membership service shares the gateway host.
	d.Member = noob.NewMembership(d.GWStack, d.Addrs)

	// Clients on ports [Nodes+1, ...).
	for i := 0; i < opts.Clients; i++ {
		h := nw.NewHost("client"+strconv.Itoa(i), clientIP(i, opts.R))
		attach(h, opts.Nodes+1+i)
		st := transport.NewStack(h)
		d.CStacks = append(d.CStacks, st)
		ccfg := noob.ClientConfig{
			Mode:      opts.Access,
			Gateway:   gwAddr,
			Nodes:     d.Addrs,
			Placement: placement,
			Space:     d.Space,
			Gets:      opts.Gets,
		}
		d.Clients = append(d.Clients, noob.NewClient(st, ccfg))
	}
	return d
}
