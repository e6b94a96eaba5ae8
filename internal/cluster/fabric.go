package cluster

import (
	"strconv"

	"repro/internal/controller"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/transport"
)

// fabric is the switch layer under a deployment, and everything assemble
// needs to know about it. Its constructor creates the switches; assemble
// then hands it every host in creation order, and the fabric cables the
// host to the next free port of whichever switch it belongs on and
// teaches the topology where it sits.
type fabric struct {
	topo controller.Topology
	// core is the datapath the in-switch stages (cache, dirty set) attach
	// to: the single switch, the hardware core behind edge OVSes, or the
	// spine.
	core *openflow.Datapath
	// attach cables a server-side host (storage node, metadata, standby)
	// and returns its access link.
	attach func(h *netsim.Host) *netsim.Link
	// attachClient cables a client. It returns nil when the client sits
	// behind its own edge switch, where there is no single access link
	// for fault injection to cut.
	attachClient func(h *netsim.Host) *netsim.Link
	// leaves is the number of racks a traffic gateway can be pinned to
	// (0 on fabrics with no leaves); attachGateway cables h onto one.
	leaves        int
	attachGateway func(leaf int, h *netsim.Host) Gateway
}

// coreSwitchFabric is the paper's platform (§6): every host on one
// OpenFlow switch, ports handed out in attach order. With opts.EdgeOVS it
// is the §5.1 workaround instead — each client behind its own Open
// vSwitch, which does the header rewriting the hardware core cannot.
func coreSwitchFabric(nw *netsim.Network, opts Options) fabric {
	sw := nw.NewSwitch("core", opts.Nodes+opts.Clients+3, opts.SwitchLatency)
	f := fabric{core: openflow.Attach(sw, opts.CtrlDelay)}
	var register func(ip netsim.IP, port int) // teaches the topology a core port
	next := 0
	plug := func(peer *netsim.Port, ip netsim.IP) *netsim.Link {
		l := nw.Connect(peer, sw.Port(next), opts.Link)
		register(ip, next)
		next++
		return l
	}
	f.attach = func(h *netsim.Host) *netsim.Link { return plug(h.Port(), h.IP()) }
	f.attachClient = f.attach
	if !opts.EdgeOVS {
		topo := controller.NewSingleSwitch(f.core)
		f.topo, register = topo, topo.Attach
		return f
	}
	topo := controller.NewEdgeCore(f.core)
	f.topo, register = topo, topo.AttachCore
	f.attachClient = func(h *netsim.Host) *netsim.Link {
		ovs := nw.NewSwitch("ovs"+strconv.Itoa(len(topo.Edges)), 2, opts.EdgeLatency)
		edge := openflow.Attach(ovs, opts.CtrlDelay)
		nw.Connect(h.Port(), ovs.Port(0), opts.Link)
		plug(ovs.Port(1), h.IP())
		topo.AddEdge(edge, 1)
		topo.AttachLocal(edge, h.IP(), 0)
		return nil
	}
	return f
}

// leafSpineFabric is the two-tier fabric: `leaves` ToR switches (at least
// two) under one spine, port 0 of every leaf its uplink. Hosts are placed
// round-robin across the leaves in attach order; gateways are pinned.
func leafSpineFabric(nw *netsim.Network, opts Options, leaves int) fabric {
	if opts.EdgeOVS {
		panic("cluster: EdgeOVS puts clients behind edge switches on the single-core fabric; a leaf-spine deployment cannot honour it")
	}
	leaves = max(leaves, 2)
	// Host ports per leaf: nodes + clients + the metadata hosts, rounded
	// up, one spare; plus one for the leaf's traffic gateway.
	hosts := opts.Nodes + opts.Clients + 1
	if opts.Standby {
		hosts++
	}
	perLeaf := (hosts+leaves-1)/leaves + 1
	if opts.TrafficGateways {
		perLeaf++
	}
	spineSw := nw.NewSwitch("spine", leaves, opts.SwitchLatency)
	spine := openflow.Attach(spineSw, opts.CtrlDelay)
	topo := controller.NewLeafSpine(spine)
	next := make([]int, leaves) // next free host port on each leaf
	for i := range next {
		sw := nw.NewSwitch("leaf"+strconv.Itoa(i), perLeaf+1, opts.SwitchLatency)
		dp := openflow.Attach(sw, opts.CtrlDelay)
		nw.Connect(sw.Port(0), spineSw.Port(i), opts.Link)
		topo.AddLeaf(dp, 0, i)
		next[i] = 1
	}
	attachAt := func(leaf int, h *netsim.Host) (*netsim.Link, int) {
		dp, port := topo.Leaves[leaf], next[leaf]
		next[leaf]++
		l := nw.Connect(h.Port(), dp.Switch().Port(port), opts.Link)
		topo.AttachHost(dp, h.IP(), port)
		return l, port
	}
	placed := 0
	attach := func(h *netsim.Host) *netsim.Link {
		l, _ := attachAt(placed%leaves, h)
		placed++
		return l
	}
	return fabric{
		topo: topo, core: spine, attach: attach, attachClient: attach, leaves: leaves,
		attachGateway: func(leaf int, h *netsim.Host) Gateway {
			_, port := attachAt(leaf, h)
			return Gateway{Stack: transport.NewStack(h), Leaf: topo.Leaves[leaf], Port: port}
		},
	}
}
