package cluster

import (
	"strconv"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/switchcache"
	"repro/internal/transport"
)

// NewNICELeafSpine builds a NICE deployment on a two-tier fabric:
// opts.Leaves ToR switches under one spine, with storage nodes, the
// metadata host and clients distributed round-robin across the leaves.
// It exercises the §6 claim that NICE extends to multi-switch platforms:
// the controller installs rewrite rules at every leaf and loop-free
// multicast trees across the fabric.
func NewNICELeafSpine(opts Options, leaves int) *NICE {
	if leaves < 2 {
		leaves = 2
	}
	s := sim.New(opts.Seed)
	nw := netsim.NewNetwork(s)
	d := &NICE{Opts: opts, Sim: s, Net: nw, Space: ring.NewSpace(opts.Nodes)}

	// Hosts per leaf: nodes + meta + clients, rounded up; plus one port
	// for the leaf's traffic gateway when requested.
	perLeaf := (opts.Nodes+opts.Clients+1+leaves-1)/leaves + 1
	if opts.TrafficGateways {
		perLeaf++
	}

	spineSw := nw.NewSwitch("spine", leaves, opts.SwitchLatency)
	spine := openflow.Attach(spineSw, opts.CtrlDelay)
	d.Core = spine
	topo := controller.NewLeafSpine(spine)

	type leafInfo struct {
		dp   *openflow.Datapath
		next int // next free host port (port 0 = uplink)
	}
	leafDPs := make([]*leafInfo, leaves)
	for i := 0; i < leaves; i++ {
		sw := nw.NewSwitch("leaf"+strconv.Itoa(i), perLeaf+1, opts.SwitchLatency)
		dp := openflow.Attach(sw, opts.CtrlDelay)
		nw.Connect(sw.Port(0), spineSw.Port(i), opts.Link)
		topo.AddLeaf(dp, 0, i)
		leafDPs[i] = &leafInfo{dp: dp, next: 1}
	}
	hostCount := 0
	place := func(h *netsim.Host) *netsim.Link {
		li := leafDPs[hostCount%leaves]
		hostCount++
		l := nw.Connect(h.Port(), li.dp.Switch().Port(li.next), opts.Link)
		topo.AttachHost(li.dp, h.IP(), li.next)
		li.next++
		return l
	}

	var addrs []controller.NodeAddr
	for i := 0; i < opts.Nodes; i++ {
		h := nw.NewHost("node"+strconv.Itoa(i), netsim.IPv4(10, 0, byte(i>>8), byte(i&0xff)).Add(1))
		d.NodeLinks = append(d.NodeLinks, place(h))
		st := transport.NewStack(h)
		d.Stacks = append(d.Stacks, st)
		addrs = append(addrs, controller.NodeAddr{
			Index: i, IP: h.IP(), MAC: h.MAC(), DataPort: DataPort, CtrlPort: CtrlPort,
		})
	}
	metaHost := nw.NewHost("meta", netsim.MustParseIP("10.254.0.1"))
	place(metaHost)
	metaStack := transport.NewStack(metaHost)
	d.MetaHost = metaHost
	for i := 0; i < opts.Clients; i++ {
		ip := clientIP(i, opts.R)
		if i < len(opts.ClientIPs) {
			ip = opts.ClientIPs[i]
		}
		h := nw.NewHost("client"+strconv.Itoa(i), ip)
		place(h)
		d.CStacks = append(d.CStacks, transport.NewStack(h))
	}
	if opts.TrafficGateways {
		// One open-loop traffic gateway per leaf, pinned to its leaf (not
		// round-robin placed): the engine's return route sends every
		// client-space-addressed packet entering a leaf to that leaf's
		// gateway, so each gateway must terminate its own leaf's flows.
		for i := 0; i < leaves; i++ {
			li := leafDPs[i]
			h := nw.NewHost("gw"+strconv.Itoa(i), netsim.IPv4(10, 20, 0, byte(i+1)))
			nw.Connect(h.Port(), li.dp.Switch().Port(li.next), opts.Link)
			topo.AttachHost(li.dp, h.IP(), li.next)
			d.Gateways = append(d.Gateways, Gateway{
				Stack: transport.NewStack(h), Leaf: li.dp, Port: li.next,
			})
			li.next++
		}
	}

	cfg := controller.DefaultConfig()
	cfg.Placement = ring.NewPlacement(opts.Nodes, opts.R)
	cfg.Unicast = ring.MustVRing(netsim.MustParsePrefix("10.10.0.0/16"), opts.Nodes, 8)
	cfg.Multicast = ring.MustVRing(netsim.MustParsePrefix("10.11.0.0/16"), opts.Nodes, 8)
	cfg.GroupBase = netsim.MustParseIP("239.0.0.0")
	cfg.HeartbeatEvery = opts.Heartbeat
	cfg.LoadBalance = opts.LoadBalance
	cfg.DynamicLB = opts.DynamicLB
	cfg.ClientSpace = netsim.MustParsePrefix("192.168.0.0/16")
	cfg.CtrlPort = MetaPort
	d.Unicast = cfg.Unicast
	d.Service = controller.New(metaStack, topo, cfg, addrs)
	d.Service.Start()
	for _, cst := range d.CStacks {
		d.Service.RegisterHost(cst.IP(), cst.Host().MAC())
	}
	for _, g := range d.Gateways {
		d.Service.RegisterHost(g.Stack.IP(), g.Stack.Host().MAC())
	}

	// In-switch hot-key cache on the spine: the aggregation point every
	// inter-leaf get traverses (rack-local requests bypass it, as a real
	// spine cache would be bypassed).
	if opts.Cache {
		ccfg := switchcache.DefaultConfig(opts.CtrlDelay)
		if opts.CacheCapacity > 0 {
			ccfg.Capacity = opts.CacheCapacity
		}
		if opts.CacheSampleEvery > 0 {
			ccfg.SampleEvery = opts.CacheSampleEvery
		}
		d.Cache = switchcache.Attach(d.Core, core.CacheCodec{DataPort: DataPort}, ccfg)
		mcfg := controller.DefaultCacheManagerConfig()
		if opts.CacheHotThreshold > 0 {
			mcfg.HotThreshold = opts.CacheHotThreshold
		}
		if opts.CacheDecayEvery > 0 {
			mcfg.DecayEvery = opts.CacheDecayEvery
		}
		d.CacheMgr = d.Service.EnableCache(d.Cache, mcfg)
	}

	for i := 0; i < opts.Nodes; i++ {
		ncfg := core.DefaultNodeConfig()
		ncfg.Addr = addrs[i]
		ncfg.Meta = metaStack.IP()
		ncfg.MetaPort = MetaPort
		ncfg.Space = d.Space
		ncfg.HeartbeatEvery = opts.Heartbeat
		ncfg.Disk = opts.Disk
		ncfg.QuorumK = opts.QuorumK
		ncfg.CPUPerOp = opts.CPUPerOp
		ncfg.Storage = opts.storageConfig()
		ncfg.CoalesceGets = opts.CoalesceGets
		ncfg.PutBatchWindow = opts.PutBatchWindow
		ncfg.PutBatchMax = opts.PutBatchMax
		if d.Cache != nil {
			ncfg.Cache = d.Cache
			ncfg.CacheUpdateOnPut = opts.CacheUpdateOnPut
		}
		node := core.NewNode(d.Stacks[i], ncfg)
		node.Start()
		d.Nodes = append(d.Nodes, node)
	}
	for i := 0; i < opts.Clients; i++ {
		ccfg := core.DefaultClientConfig()
		ccfg.Unicast = cfg.Unicast
		ccfg.Multicast = cfg.Multicast
		ccfg.DataPort = DataPort
		ccfg.R = opts.R
		ccfg.QuorumK = opts.QuorumK
		ccfg.OpTimeout = opts.OpTimeout
		ccfg.RetryWait = opts.RetryWait
		cl := core.NewClient(d.CStacks[i], ccfg)
		cl.Start()
		d.Clients = append(d.Clients, cl)
	}
	return d
}
