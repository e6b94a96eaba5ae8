// Package cluster assembles complete simulated deployments — fabric,
// controller, storage nodes, clients — for both NICEKV and the NOOB
// baseline, and hosts the experiment runners that regenerate every figure
// of the paper's evaluation (§6).
package cluster

import (
	"strconv"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/ctrlchain"
	"repro/internal/harmonia"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/switchcache"
	"repro/internal/transport"
)

// Well-known ports shared by both systems.
const (
	DataPort = 7000
	CtrlPort = 9001
	MetaPort = 9000
	// ReplicaPort carries harmonia replica-routed reads: the dirty-set
	// stage rewrites clean gets to a replica's physical IP and this port,
	// and nodes serve non-primary reads only from it.
	ReplicaPort = 7001
)

// The platform's fixed latencies (§6): the hardware switches' forwarding
// delay, the control channel between a switch and the metadata service,
// and the software forwarding delay of a client-side Open vSwitch.
const (
	SwitchLatency = 2 * time.Microsecond
	CtrlDelay     = 200 * time.Microsecond
	EdgeLatency   = 10 * time.Microsecond
)

// Options describes a deployment, defaulting to the paper's platform
// (§6): 1 Gbps links, one OpenFlow switch, replication level 3,
// 15 storage nodes, SSD-backed stores.
type Options struct {
	Nodes        int
	R            int
	Clients      int
	LoadBalance  bool
	Seed         int64
	Link         netsim.LinkConfig
	Disk         kvstore.DiskConfig
	Heartbeat    sim.Time
	AckTimeout   sim.Time // protocol-phase wait
	OpTimeout    sim.Time
	RetryWait    sim.Time
	RetryMaxWait sim.Time // back-off cap (0 = 8x RetryWait)
	MaxRetries   int      // per-op retry budget
	EdgeOVS      bool     // client-side Open vSwitch deployment (§5.1)
	QuorumK      int      // any-k puts (0 = all replicas)
	CPUPerOp     sim.Time // per-request node processing cost
	// Standby deploys a hot-standby metadata replica (§4.1). It shares a
	// NetChain-style chain of switch-resident stores (internal/ctrlchain)
	// with the active service: a takeover restores views, statuses and
	// cache installs from the chain tail, and writer generations fence a
	// returning zombie primary out of the chain and the switches.
	Standby     bool
	DynamicLB   bool     // workload-informed division rebalancing (§8)
	LazyMapping bool     // install vring rules on first packet (§5)
	MappingIdle sim.Time // idle expiry for vring rules (0 = never)
	// ClientIPs overrides the default client placement (useful to pin
	// clients into specific load-balancing divisions).
	ClientIPs []netsim.IP
	// Cache enables the in-switch hot-key cache (internal/switchcache) on
	// the core datapath, managed by the metadata service's detector.
	Cache bool
	// CacheCapacity bounds the switch table.
	CacheCapacity int
	// CacheHotThreshold is the sketch estimate that triggers an install.
	CacheHotThreshold uint32
	// CacheDecayEvery is the detector's sketch-halving period.
	CacheDecayEvery sim.Time
	// Harmonia enables in-network conflict detection (internal/harmonia)
	// on the core datapath: the switch tracks the dirty set of in-flight
	// writes and spreads reads of clean keys across every live replica of
	// the key's partition, falling back to the primary for dirty keys.
	// Composes with any write mode (2PC, any-k quorum) and with Cache;
	// off, every switch-side and node-side code path is bit-identical to
	// prior releases.
	Harmonia bool
	// TrafficGateways attaches one open-loop traffic gateway host per
	// leaf (leaf-spine fabrics only); see internal/cluster/traffic.go.
	TrafficGateways bool
	// DurableStore backs every node with the durable sharded engine
	// (internal/storage): WAL + fsync-on-ack, periodic compacting
	// snapshots, LRU eviction under StoreMemoryBudget. Off by default —
	// the legacy flat-map store is byte-identical to prior releases.
	DurableStore bool
	// StoreMemoryBudget bounds each node's memory tier in bytes
	// (0 = unbounded: nothing is evicted).
	StoreMemoryBudget int64
	// StoreShards is the engine's hash-partition count.
	StoreShards int
	// StoreSnapshotEvery is the snapshot/log-truncate period.
	StoreSnapshotEvery sim.Time
	// GroupCommit coalesces concurrent WAL fsyncs on each node into one
	// disk write (leader/follower group commit, DESIGN.md §16). Only
	// meaningful with DurableStore; the durability contract
	// (fsync-before-ack, torn-tail crash semantics) is unchanged.
	GroupCommit bool
	// MaxSyncDelay is the group-commit gather window: how long a sync
	// leader lingers before sizing its write, bounding the latency a lone
	// writer pays for batching. 0 = fire immediately (coalescing still
	// catches callers that arrive while a write is in flight).
	MaxSyncDelay sim.Time
	// CoalesceGets shares one store read among concurrent gets of the
	// same key on a node (thundering-herd suppression for hot keys). Off
	// by default — the serving path is bit-identical without it.
	CoalesceGets bool
	// PutBatchWindow arms the per-partition put accumulator on every
	// node: a primary reaching its commit point lingers this long so
	// co-arriving commits share one fsync and one batched timestamp
	// multicast. 0 = off (bit-identical default path).
	PutBatchWindow sim.Time
	// PutBatchMax caps the ops drained per accumulated commit batch.
	PutBatchMax int
}

// storageConfig builds the durable-engine configuration from the
// deployment knobs; nil selects the legacy flat-map store.
func (o Options) storageConfig() *storage.Config {
	if !o.DurableStore {
		return nil
	}
	return &storage.Config{
		Shards:        o.StoreShards,
		MemoryBudget:  o.StoreMemoryBudget,
		GroupCommit:   o.GroupCommit,
		MaxSyncDelay:  o.MaxSyncDelay,
		SnapshotEvery: o.StoreSnapshotEvery,
	}
}

// probeDropInvalidate, when set, suppresses the cache write-through on
// puts (test instrumentation: the chaos checker must catch the resulting
// stale switch-cache reads).
var probeDropInvalidate bool

// DefaultOptions mirrors the paper's deployment configuration. Knobs a
// subsystem owns start from that subsystem's own defaults.
func DefaultOptions() Options {
	node, client := core.DefaultNodeConfig(), core.DefaultClientConfig()
	detector, store := controller.DefaultCacheManagerConfig(), storage.DefaultConfig()
	return Options{
		Nodes:              15,
		R:                  3,
		Clients:            1,
		Seed:               1,
		Link:               netsim.Gbps(1, 5*time.Microsecond),
		Disk:               node.Disk,
		Heartbeat:          node.HeartbeatEvery,
		AckTimeout:         node.AckTimeout,
		OpTimeout:          client.OpTimeout,
		RetryWait:          client.RetryWait,
		RetryMaxWait:       client.RetryMaxWait,
		MaxRetries:         client.MaxRetries,
		CPUPerOp:           100 * time.Microsecond,
		CacheCapacity:      switchcache.DefaultConfig().Capacity,
		CacheHotThreshold:  detector.HotThreshold,
		CacheDecayEvery:    detector.DecayEvery,
		StoreShards:        store.Shards,
		StoreSnapshotEvery: store.SnapshotEvery,
		PutBatchMax:        node.PutBatchMax,
	}
}

// clientIP places client i inside load-balancing division i mod R, so a
// weak-scaling experiment exercises every replica (§4.5).
func clientIP(i, r int) netsim.IP {
	bits := 0
	for 1<<bits < r {
		bits++
	}
	width := uint32(1) << (16 - bits) // inside 192.168.0.0/16
	div := uint32(i % max(r, 1))
	off := uint32(i/max(r, 1)) + 1
	return netsim.MustParseIP("192.168.0.0").Add(div*width + off)
}

// NICE is a complete NICEKV deployment.
type NICE struct {
	Opts     Options
	Sim      *sim.Simulator
	Net      *netsim.Network
	Core     *openflow.Datapath
	Service  *controller.Service
	Standby  *controller.Standby // nil unless Opts.Standby
	MetaHost *netsim.Host
	Nodes    []*core.Node
	Stacks   []*transport.Stack // node stacks, index-aligned with Nodes
	Clients  []*core.Client
	CStacks  []*transport.Stack
	Space    ring.Space
	Unicast  ring.VRing               // the clients' unicast request ring
	Gateways []Gateway                // traffic gateways (leaf-spine only)
	Cache    *switchcache.Cache       // nil unless Opts.Cache
	CacheMgr *controller.CacheManager // nil unless Opts.Cache
	Harmonia *harmonia.DirtySet       // nil unless Opts.Harmonia
	Chain    *ctrlchain.Chain         // nil unless Opts.Standby
	// NodeLinks[i] is storage node i's access link (fault injection cuts
	// and degrades these); ClientLinks likewise for clients (nil entries
	// under EdgeOVS, where the client link is behind its own switch).
	NodeLinks   []*netsim.Link
	ClientLinks []*netsim.Link
	MetaLink    *netsim.Link
}

// NewNICE builds and boots a NICE deployment on the paper's platform —
// one OpenFlow switch, or with opts.EdgeOVS each client behind its own
// Open vSwitch; call Settle before issuing traffic so bootstrap rules and
// views are in place.
func NewNICE(opts Options) *NICE {
	nw := netsim.NewNetwork(sim.New(opts.Seed))
	return assemble(opts, nw, coreSwitchFabric(nw, opts))
}

// NewNICELeafSpine builds a NICE deployment on a two-tier fabric: leaves
// ToR switches under one spine, with storage nodes, the metadata hosts
// and clients distributed round-robin across the leaves. It exercises the
// §6 claim that NICE extends to multi-switch platforms: the controller
// installs rewrite rules at every leaf and loop-free multicast trees
// across the fabric.
func NewNICELeafSpine(opts Options, leaves int) *NICE {
	nw := netsim.NewNetwork(sim.New(opts.Seed))
	return assemble(opts, nw, leafSpineFabric(nw, opts, leaves))
}

// assemble is the one deployment builder (DESIGN.md §7.1): given the
// switch layer it creates every host, in the order the goldens depend on
// — storage nodes, metadata, standby, clients, traffic gateways — boots
// the controller (with its standby, their shared state store and the
// in-switch stages on the core datapath) and starts nodes and clients.
// Every option reaches every fabric because nothing here knows which
// fabric it is on.
func assemble(opts Options, nw *netsim.Network, fab fabric) *NICE {
	s := nw.Sim()
	d := &NICE{Opts: opts, Sim: s, Net: nw, Core: fab.core, Space: ring.NewSpace(opts.Nodes)}

	var addrs []controller.NodeAddr
	for i := 0; i < opts.Nodes; i++ {
		h := nw.NewHost("node"+strconv.Itoa(i), netsim.IPv4(10, 0, byte(i>>8), byte(i&0xff)).Add(1))
		d.NodeLinks = append(d.NodeLinks, fab.attach(h))
		d.Stacks = append(d.Stacks, transport.NewStack(h))
		addrs = append(addrs, controller.NodeAddr{
			Index: i, IP: h.IP(), MAC: h.MAC(), DataPort: DataPort, CtrlPort: CtrlPort,
		})
	}
	d.MetaHost = nw.NewHost("meta", netsim.MustParseIP("10.254.0.1"))
	d.MetaLink = fab.attach(d.MetaHost)
	metaStack := transport.NewStack(d.MetaHost)
	var standbyStack *transport.Stack
	if opts.Standby {
		h := nw.NewHost("meta-standby", netsim.MustParseIP("10.254.0.2"))
		fab.attach(h)
		standbyStack = transport.NewStack(h)
	}
	for i := 0; i < opts.Clients; i++ {
		ip := clientIP(i, opts.R)
		if i < len(opts.ClientIPs) {
			ip = opts.ClientIPs[i]
		}
		h := nw.NewHost("client"+strconv.Itoa(i), ip)
		d.ClientLinks = append(d.ClientLinks, fab.attachClient(h))
		d.CStacks = append(d.CStacks, transport.NewStack(h))
	}
	if opts.TrafficGateways {
		// One open-loop traffic gateway per leaf, pinned to its leaf (not
		// round-robin placed): the engine's return route sends every
		// client-space-addressed packet entering a leaf to that leaf's
		// gateway, so each gateway must terminate its own leaf's flows.
		for i := 0; i < fab.leaves; i++ {
			h := nw.NewHost("gw"+strconv.Itoa(i), netsim.IPv4(10, 20, 0, byte(i+1)))
			fab.attachGateway(i, h)
			d.Gateways = append(d.Gateways, Gateway{Stack: transport.NewStack(h)})
		}
	}

	// Controller.
	cfg := controller.DefaultConfig()
	cfg.Placement = ring.NewPlacement(opts.Nodes, opts.R)
	cfg.Unicast = ring.MustVRing(netsim.MustParsePrefix("10.10.0.0/16"), opts.Nodes, 8)
	cfg.Multicast = ring.MustVRing(netsim.MustParsePrefix("10.11.0.0/16"), opts.Nodes, 8)
	cfg.GroupBase = netsim.MustParseIP("239.0.0.0")
	cfg.HeartbeatEvery = opts.Heartbeat
	cfg.LoadBalance = opts.LoadBalance
	cfg.DynamicLB = opts.DynamicLB
	cfg.LazyMapping = opts.LazyMapping
	cfg.MappingIdleTimeout = opts.MappingIdle
	cfg.ClientSpace = netsim.MustParsePrefix("192.168.0.0/16")
	cfg.CtrlPort = MetaPort

	// In-switch stages on the core datapath (on leaf-spine the spine: the
	// aggregation point every inter-leaf get traverses, while rack-local
	// requests bypass it as they would a real spine cache). The datapath
	// runs them in attach order, hot-key cache then dirty set: a cache
	// hit never reaches the dirty set, a miss is spread across the key's
	// replicas like any other clean read. They ride in the configuration
	// the service shares with its standby, so whichever controller is
	// active manages them.
	codec := core.SwitchCodec{DataPort: DataPort}
	if opts.Cache {
		d.Cache = switchcache.Attach(d.Core, codec, switchcache.Config{Capacity: opts.CacheCapacity})
		cfg.Cache = d.Cache
		cfg.CacheManager.HotThreshold = opts.CacheHotThreshold
		cfg.CacheManager.DecayEvery = opts.CacheDecayEvery
	}
	if opts.Harmonia {
		d.Harmonia = harmonia.Attach(d.Core, codec, d.Space.PartitionOf, harmonia.Config{ReplicaPort: ReplicaPort})
		cfg.Harmonia = d.Harmonia
	}
	if opts.Standby {
		// The active service and its standby share one chain-replicated
		// state store: the standby restores from the chain tail, and the
		// shared Acquire counter is what fences the old primary. Without
		// a standby the service keeps its private, event-free MemStore.
		cfg.StandbyIP = standbyStack.IP()
		d.Chain = ctrlchain.New(s)
		cfg.Store = controller.NewChainStore(d.Chain)
	}
	d.Unicast = cfg.Unicast
	tree := controller.NewFabric(fab.core)
	d.Service = controller.New(metaStack, tree, cfg, addrs)
	d.Service.Start()
	if opts.Standby {
		d.Service.RegisterHost(standbyStack.IP(), standbyStack.Host().MAC())
		d.Standby = controller.NewStandby(standbyStack, tree, cfg, addrs, metaStack.IP())
		d.Standby.Start()
	}
	for _, cst := range d.CStacks {
		d.Service.RegisterHost(cst.IP(), cst.Host().MAC())
	}
	for _, g := range d.Gateways {
		d.Service.RegisterHost(g.Stack.IP(), g.Stack.Host().MAC())
	}
	d.Service.EnableStages()
	d.CacheMgr = d.Service.CacheManager()

	// Storage nodes.
	for i := 0; i < opts.Nodes; i++ {
		ncfg := core.DefaultNodeConfig()
		ncfg.Addr = addrs[i]
		ncfg.Meta = metaStack.IP()
		ncfg.MetaPort = MetaPort
		ncfg.Space = d.Space
		ncfg.HeartbeatEvery = opts.Heartbeat
		ncfg.AckTimeout = opts.AckTimeout
		ncfg.Disk = opts.Disk
		ncfg.QuorumK = opts.QuorumK
		ncfg.CPUPerOp = opts.CPUPerOp
		ncfg.Storage = opts.storageConfig()
		ncfg.CoalesceGets = opts.CoalesceGets
		ncfg.PutBatchWindow = opts.PutBatchWindow
		ncfg.PutBatchMax = opts.PutBatchMax
		if d.Cache != nil && !probeDropInvalidate {
			ncfg.Cache = d.Cache
		}
		if d.Harmonia != nil {
			ncfg.Harmonia = d.Harmonia
			ncfg.ReplicaPort = ReplicaPort
		}
		node := core.NewNode(d.Stacks[i], ncfg)
		node.Start()
		d.Nodes = append(d.Nodes, node)
	}

	// Clients.
	for i := 0; i < opts.Clients; i++ {
		ccfg := core.DefaultClientConfig()
		ccfg.Unicast = cfg.Unicast
		ccfg.Multicast = cfg.Multicast
		ccfg.DataPort = DataPort
		ccfg.R = opts.R
		ccfg.QuorumK = opts.QuorumK
		ccfg.OpTimeout = opts.OpTimeout
		ccfg.RetryWait = opts.RetryWait
		ccfg.RetryMaxWait = opts.RetryMaxWait
		ccfg.MaxRetries = opts.MaxRetries
		cl := core.NewClient(d.CStacks[i], ccfg)
		cl.Start()
		d.Clients = append(d.Clients, cl)
	}
	return d
}

// Settle runs the simulation briefly so bootstrap flow mods and view
// announcements land before traffic starts.
func (d *NICE) Settle() error {
	return d.Sim.RunUntil(d.Sim.Now() + 20*time.Millisecond)
}

// Close reaps all simulation processes.
func (d *NICE) Close() { d.Sim.Shutdown() }

// StorageCounters sums the durable engines' counters across the
// deployment's nodes (all zero for legacy-store deployments).
func (d *NICE) StorageCounters() storage.Stats {
	var out storage.Stats
	for _, n := range d.Nodes {
		if st, ok := n.Store().StorageStats(); ok {
			out.Add(st)
		}
	}
	return out
}
