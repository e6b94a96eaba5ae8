package cluster

import (
	"strconv"

	"repro/internal/netsim"
	"repro/internal/openflow"
)

// fabric is the switch layer under a deployment. Its constructor creates
// the switches; assemble then hands it every host in creation order, and
// the fabric cables the host to the next free port of whichever switch it
// belongs on. Cabling is all it does: the controller reads the switch
// tree off the wiring (controller.Fabric), so there is nothing to teach.
type fabric struct {
	// core is the root of the switch tree, and the datapath the in-switch
	// stages (cache, dirty set) attach to: the single switch, the hardware
	// core behind edge OVSes, or the spine.
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
	attachGateway func(leaf int, h *netsim.Host)
}

// coreSwitchFabric is the paper's platform (§6): every host on one
// OpenFlow switch, ports handed out in attach order. With opts.EdgeOVS it
// is the §5.1 workaround instead — each client behind its own Open
// vSwitch, which does the header rewriting the hardware core cannot.
func coreSwitchFabric(nw *netsim.Network, opts Options) fabric {
	sw := nw.NewSwitch("core", opts.Nodes+opts.Clients+3, SwitchLatency)
	next := 0
	plug := func(peer *netsim.Port) *netsim.Link {
		next++
		return nw.Connect(peer, sw.Port(next-1), platformLink)
	}
	attach := func(h *netsim.Host) *netsim.Link { return plug(h.Port()) }
	f := fabric{core: openflow.Attach(sw, CtrlDelay), attach: attach, attachClient: attach}
	if opts.EdgeOVS {
		edges := 0
		f.attachClient = func(h *netsim.Host) *netsim.Link {
			ovs := nw.NewSwitch("ovs"+strconv.Itoa(edges), 2, EdgeLatency)
			edges++
			openflow.Attach(ovs, CtrlDelay)
			nw.Connect(h.Port(), ovs.Port(0), platformLink)
			plug(ovs.Port(1))
			return nil
		}
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
	spine := nw.NewSwitch("spine", leaves, SwitchLatency)
	f := fabric{core: openflow.Attach(spine, CtrlDelay), leaves: leaves}
	leaf := make([]*netsim.Switch, leaves)
	next := make([]int, leaves) // next free host port on each leaf
	for i := range leaf {
		leaf[i] = nw.NewSwitch("leaf"+strconv.Itoa(i), perLeaf+1, SwitchLatency)
		openflow.Attach(leaf[i], CtrlDelay)
		nw.Connect(leaf[i].Port(0), spine.Port(i), platformLink)
		next[i] = 1
	}
	attachAt := func(i int, h *netsim.Host) *netsim.Link {
		next[i]++
		return nw.Connect(h.Port(), leaf[i].Port(next[i]-1), platformLink)
	}
	placed := 0
	f.attach = func(h *netsim.Host) *netsim.Link {
		placed++
		return attachAt((placed-1)%leaves, h)
	}
	f.attachClient = f.attach
	f.attachGateway = func(i int, h *netsim.Host) { attachAt(i, h) }
	return f
}
