// Package switchcache implements a NetCache-style in-switch hot-key
// cache on top of the openflow datapath: a bounded key→value table
// resident in the switch pipeline that answers matching get requests
// directly on the ingress port — zero server hops — while punting every
// missed key toward a controller-side hot-key detector that decides what
// to install and evict.
//
// The paper's in-network load balancing (§4.5) only spreads a skewed get
// stream across the R replicas of a partition, so a single hot key is
// still bounded by R servers; caching the item in the fabric decouples
// hot-key throughput from storage-node count (NetCache, TurboKV). The
// division of labour mirrors those systems: the data plane does lookup,
// hit counting and write-through invalidation at line rate, the
// controller owns the insertion/eviction policy.
//
// The package is protocol-agnostic: a Parser supplied by the storage
// layer recognizes get requests inside packets and synthesizes replies,
// so switchcache depends only on netsim/openflow and can front any
// key-value wire format.
package switchcache

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
)

// Reply is the Parser's recipe for answering a get from the cache: the
// payload object, its wire size in bytes (excluding the UDP header), and
// the requester's reply port.
type Reply struct {
	Payload any
	Size    int
	DstPort uint16
}

// Parser adapts the storage system's wire format to the cache. Both
// methods run on the switch's forwarding path.
type Parser interface {
	// ParseGet reports whether pkt is a cacheable read request, for which
	// key, and its request identifier (unused here; the signature is the
	// one every stage's parser shares, so one codec serves them all).
	ParseGet(pkt *netsim.Packet) (key string, rid uint64, ok bool)
	// MakeReply builds the reply answering pkt (a packet ParseGet
	// accepted) with the cached value and its committed version.
	MakeReply(pkt *netsim.Packet, value any, size int, ver uint64) Reply
}

// Config parameterizes one switch cache.
type Config struct {
	// Capacity bounds the table; switch memory is the scarce resource
	// (NetCache budgets tens of thousands of entries; we default far
	// smaller so eviction pressure is visible at simulation scale).
	Capacity int
}

// DefaultConfig sizes the cache for the simulated deployments.
func DefaultConfig() Config {
	return Config{Capacity: 64}
}

// MaxValueSize rejects objects too large for a single synthesized reply
// frame; bigger objects bypass the cache entirely.
const MaxValueSize = 1200

// entry is one cached object.
type entry struct {
	value any
	size  int
	ver   uint64 // version of the committed put that produced the value
	hits  int64
}

// missSample carries one mirrored miss to the detector. It holds the key
// itself: the packet's request may be rewritten (a traffic slot
// reissued) before the upcall fires.
type missSample struct {
	c   *Cache
	key string
}

// cacheCmd is one InstallAs or EvictAs in flight on the control channel.
type cacheCmd struct {
	c     *Cache
	evict bool
	key   string
	value any
	size  int
	ver   uint64
}

// invalCap bounds the invalidation-version memory: versions are only
// needed to defeat the install/invalidate race (a fetch in flight while a
// put commits), whose window is one control RTT, so forgetting the
// oldest-recorded keys beyond the cap is safe in practice.
const invalCap = 16384

// Cache is the switch-resident table, a stage of the datapath's pipeline:
// cacheable gets that hit are answered on the ingress port, everything
// else passes on to the later stages and the flow tables untouched.
//
// Mutating operations come in two flavours mirroring who performs them in
// hardware: InstallAs/EvictAs are controller→switch commands and ride the
// datapath's control channel (its delay, its injected fault, its FIFO
// order, its writer fence); Invalidate is the data-plane write-through
// effect of put traffic and applies immediately.
type Cache struct {
	dp      *openflow.Datapath
	parser  Parser
	cfg     Config
	entries map[string]*entry
	inval   map[string]uint64 // key -> newest invalidated/committed version
	sampler func(key string)
	stats   metrics.CacheCounters

	// invalOrder lists inval's keys oldest-recorded first, so that which
	// fence is forgotten past invalCap never depends on map order.
	invalOrder []string
	// residents, when set, is told of every change to entries' key set.
	residents *Sketch

	// Free lists: removed entries, delivered samples, applied commands.
	freeEntries sim.Free[entry]
	freeSamples sim.Free[missSample]
	freeCmds    sim.Free[cacheCmd]
}

// Attach adds a cache to dp's stage chain and returns it. Call before
// traffic starts.
func Attach(dp *openflow.Datapath, parser Parser, cfg Config) *Cache {
	c := &Cache{
		dp:      dp,
		parser:  parser,
		cfg:     cfg,
		entries: make(map[string]*entry),
		inval:   make(map[string]uint64),
	}
	dp.AddStage(c)
	return c
}

// SetSampler registers the detector callback receiving every missed key
// (already delayed by the control latency).
func (c *Cache) SetSampler(fn func(key string)) { c.sampler = fn }

// MirrorResidents keeps s's victim index equal to the table's membership
// from now on: the keys resident at the call are tracked, and every later
// applied install, applied evict and write-through invalidation updates
// it at the instant the table itself changes — not when the controller
// issues the command. One sketch at a time; a later call takes over.
func (c *Cache) MirrorResidents(s *Sketch) {
	c.residents = s
	for _, k := range c.Keys() {
		s.Track(k)
	}
}

// add and remove are the only places the table's key set changes.
func (c *Cache) add(key string, e *entry) {
	c.entries[key] = e
	if c.residents != nil {
		c.residents.Track(key)
	}
}

// remove also frees e, the entry key held, for newEntry.
func (c *Cache) remove(key string, e *entry) {
	delete(c.entries, key)
	if c.residents != nil {
		c.residents.Untrack(key)
	}
	*e = entry{}
	c.freeEntries.Put(e)
}

// newEntry takes an entry off the free list, or makes one.
func (c *Cache) newEntry() *entry {
	if e := c.freeEntries.Take(); e != nil {
		return e
	}
	return &entry{}
}

// Config returns the cache's effective configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats snapshots the counters.
func (c *Cache) Stats() metrics.CacheCounters {
	st := c.stats
	st.Occupancy = len(c.entries)
	st.Capacity = c.cfg.Capacity
	return st
}

// Len returns the resident entry count.
func (c *Cache) Len() int { return len(c.entries) }

// Contains reports whether key is resident.
func (c *Cache) Contains(key string) bool {
	_, ok := c.entries[key]
	return ok
}

// Keys lists the resident keys in sorted order. The ctrlchain takeover
// reconcile evicts in this order and must behave identically across
// replayed runs, so the map's iteration order must never leak out.
func (c *Cache) Keys() []string {
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// HitsOf returns the per-entry hit counter (0 when not resident).
func (c *Cache) HitsOf(key string) int64 {
	if e, ok := c.entries[key]; ok {
		return e.hits
	}
	return 0
}

// Process implements openflow.Stage: answer cache hits at the switch,
// mirror misses to the detector, pass everything else on.
func (c *Cache) Process(sw *netsim.Switch, pkt *netsim.Packet, inPort int) bool {
	key, _, ok := c.parser.ParseGet(pkt)
	if !ok {
		return false
	}
	e, hit := c.entries[key]
	if !hit {
		c.stats.Misses++
		if c.sampler != nil {
			c.dp.Upcall(deliverSample, c.sample(key), nil)
		}
		return false
	}
	c.stats.Hits++
	e.hits++
	rep := c.parser.MakeReply(pkt, e.value, e.size, e.ver)
	net := sw.Network()
	out := net.NewPacket()
	out.SrcIP = pkt.DstIP // the vnode address the client asked
	out.SrcMAC = pkt.DstMAC
	out.DstIP = pkt.SrcIP
	out.DstMAC = pkt.SrcMAC
	out.Proto = netsim.ProtoUDP
	out.SrcPort = pkt.DstPort
	out.DstPort = rep.DstPort
	out.Size = rep.Size + netsim.UDPHeaderSize
	out.Payload = rep.Payload
	out.TTL = netsim.DefaultTTL
	net.RecyclePacket(pkt) // request consumed at the switch
	sw.Output(inPort, out)
	return true
}

// sample takes a miss sample off the free list, or makes one, for key.
func (c *Cache) sample(key string) *missSample {
	ms := c.freeSamples.Take()
	if ms == nil {
		ms = &missSample{c: c}
	}
	ms.key = key
	return ms
}

// deliverSample hands a mirrored miss to the detector and frees it.
func deliverSample(a1, _ any) {
	ms := a1.(*missSample)
	c, key := ms.c, ms.key
	ms.key = ""
	c.freeSamples.Put(ms)
	c.sampler(key)
}

// command takes a command off the free list, or makes one.
func (c *Cache) command() *cacheCmd {
	if cmd := c.freeCmds.Take(); cmd != nil {
		return cmd
	}
	return &cacheCmd{c: c}
}

// InstallAs is the controller's entry insertion, issued under writer
// generation gen (0 = the unfenced legacy writer): applied one control
// traversal later, rejected there if gen no longer passes the switch's
// writer fence (an install in flight when a standby took over — the
// "controller killed mid-cache-install" case), the table is full, the
// object oversize, or the fetched version already superseded by a
// write-through (the fetch raced a commit).
func (c *Cache) InstallAs(gen uint64, key string, value any, size int, ver uint64) {
	cmd := c.command()
	cmd.key, cmd.value, cmd.size, cmd.ver = key, value, size, ver
	c.dp.StageCommand(gen, cmd)
}

// EvictAs is the controller's entry removal, delivered and fenced like
// InstallAs.
func (c *Cache) EvictAs(gen uint64, key string) {
	cmd := c.command()
	cmd.evict, cmd.key = true, key
	c.dp.StageCommand(gen, cmd)
}

// Apply implements openflow.StageCmd: it applies the command to the
// table, then frees it.
func (cmd *cacheCmd) Apply(admitted bool) {
	c := cmd.c
	if cmd.evict {
		c.evict(admitted, cmd.key)
	} else {
		c.install(admitted, cmd.key, cmd.value, cmd.size, cmd.ver)
	}
	*cmd = cacheCmd{c: c}
	c.freeCmds.Put(cmd)
}

func (c *Cache) install(admitted bool, key string, value any, size int, ver uint64) {
	if !admitted {
		c.stats.Rejected++
		return
	}
	if size > MaxValueSize {
		c.stats.Rejected++
		return
	}
	if ver < c.inval[key] {
		c.stats.Rejected++ // stale: a put committed past this value
		return
	}
	if e, ok := c.entries[key]; ok {
		if ver >= e.ver {
			e.value, e.size, e.ver = value, size, ver
		}
		return
	}
	if len(c.entries) >= c.cfg.Capacity {
		c.stats.Rejected++
		return
	}
	e := c.newEntry()
	e.value, e.size, e.ver = value, size, ver
	c.add(key, e)
	c.stats.Installs++
}

func (c *Cache) evict(admitted bool, key string) {
	if !admitted {
		return
	}
	if e, ok := c.entries[key]; ok {
		c.remove(key, e)
		c.stats.Evictions++
	}
}

// Invalidate is the put path's write-through: the committing put's
// traffic traverses this switch, so the entry is dropped synchronously —
// strictly before the commit acknowledgment can reach the client. ver is
// the committed version; it also fences any in-flight install of an
// older value.
func (c *Cache) Invalidate(key string, ver uint64) {
	c.recordVer(key, ver)
	if e, ok := c.entries[key]; ok {
		c.remove(key, e)
		c.stats.Invalidations++
	}
}

// recordVer remembers the newest committed version per key so stale
// installs lose the race; the map is bounded like the node's orphan
// buffer. Room for a new key past the cap is made oldest-recorded first.
// A resident key's fence is kept, as it always was: it goes back behind
// the youngest, and if every recorded key is resident the map grows
// instead.
func (c *Cache) recordVer(key string, ver uint64) {
	old, known := c.inval[key]
	if ver <= old {
		return
	}
	if !known {
		for n := len(c.invalOrder); n > 0 && len(c.inval) >= invalCap; n-- {
			k := c.invalOrder[0]
			c.invalOrder = c.invalOrder[1:]
			if _, resident := c.entries[k]; resident {
				c.invalOrder = append(c.invalOrder, k)
				continue
			}
			delete(c.inval, k)
		}
		c.invalOrder = append(c.invalOrder, key)
	}
	c.inval[key] = ver
}
