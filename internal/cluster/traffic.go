package cluster

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// This file is the open-loop traffic engine: one sim proc drives up to a
// million virtual clients against a leaf-spine NICE deployment. Real
// per-client hosts at that scale are hopeless (a goroutine, a stack and
// sockets each), so the engine is a flyweight: per-client state lives in
// flat slices, arrivals come from a workload.OpenLoop calendar in batched
// ticks, request structs are pooled in a chunked slab addressed by the
// request ID, and each leaf's single gateway host emits requests with
// per-division synthesized source IPs (netsim.Host.SendFrom) so the
// switch load-balancing rules classify one flow per virtual client.
// Replies — node streams and in-switch cache hits alike — come back to
// the gateway's real address and demultiplex by request ID. Steady-state
// issue and timeout-reap allocate nothing.

// TrafficPort is the gateways' reply port (UDP and stream listener, like
// core.Client's ReplyPort).
const TrafficPort uint16 = 8200

// trafficChunk is the slot-slab chunk size. Chunks are never reallocated,
// so &slot.req stays valid while packets reference it.
const trafficChunk = 1 << 12

// prioTrafficReply sits below the controller's exact host-forwarding
// rules (prioPhys=10): a real client's /32 route always wins over the
// gateway's client-space prefix route.
const prioTrafficReply = 5

// Gateway is one leaf's traffic gateway host: the physical source and
// sink for that leaf's share of the virtual client fleet.
type Gateway struct {
	Stack *transport.Stack
}

// access reads the gateway's leaf, and its port there, off the cabling.
func (g Gateway) access() (leaf *openflow.Datapath, port int) {
	peer := g.Stack.Host().Port().Peer()
	return peer.Dev.(*netsim.Switch).Pipeline().(*openflow.Datapath), peer.Index
}

// TrafficOptions parameterizes one open-loop run.
type TrafficOptions struct {
	Clients   int     // virtual client fleet size
	Rate      float64 // aggregate offered load, requests/second
	Duration  sim.Time
	Records   int // preloaded keyspace size (zipfian-chosen)
	ValueSize int
	Tick      sim.Time // arrival batch width (default 100µs)
	OpTimeout sim.Time // per-request drop deadline (default 250ms)
	Seed      int64
	// BatchSize, when > 1, packs a tick's co-arriving gets for the same
	// destination node into BatchGetRequests of up to this many ops
	// (DESIGN.md §16). Destinations fill in deterministic first-seen
	// order; partial batches flush at the end of the tick. Nodes reply
	// per op, so the reply path, timeout reaping and slot recycling are
	// oblivious to batching. 1 (or 0) = one datagram per get,
	// bit-identical to prior releases.
	BatchSize int
}

func (o *TrafficOptions) defaults() {
	if o.Tick <= 0 {
		// Scale the batch width with the per-client mean gap so the
		// calendar ring (sized to the gap truncation cap) stays a few
		// tens of thousands of buckets at any fleet size.
		mean := float64(o.Clients) / o.Rate * 1e9
		o.Tick = sim.Time(mean / 4096)
		if o.Tick < 100*time.Microsecond {
			o.Tick = 100 * time.Microsecond
		}
		if o.Tick > 5*time.Millisecond {
			o.Tick = 5 * time.Millisecond
		}
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 250 * time.Millisecond
	}
	if o.Records <= 0 {
		o.Records = 4096
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 512
	}
	// One batched datagram must fit the transport MTU.
	if o.BatchSize > core.MaxBatchedGets {
		o.BatchSize = core.MaxBatchedGets
	}
}

// TrafficResult is one run's outcome.
type TrafficResult struct {
	Issued    int64
	Completed int64
	TimedOut  int64
	NotFound  int64
	// Achieved is the completed-request throughput over the issue window,
	// requests/second.
	Achieved float64
	P50, P99 sim.Time
	// CacheHits/CacheMisses are the in-switch cache counters (zero
	// without a cache).
	CacheHits, CacheMisses int64
}

// trafficSlot is one in-flight request's pooled state. The embedded
// GetRequest is what goes on the wire (&slot.req) and carries the room
// its reply is written into (DESIGN.md §7.2). A reissued slot rewrites
// the request while a timed-out attempt's packet may still hold it
// (§12.4); the generation in ReqID fences the replies.
type trafficSlot struct {
	req      core.GetRequest
	issuedAt sim.Time
	gen      uint32
	live     bool
}

// TrafficEngine drives one open-loop run. Build with NewTrafficEngine
// after the deployment (which must have gateways: NewNICELeafSpine with
// Options.TrafficGateways), preload records, then call Run from a driver
// proc.
type TrafficEngine struct {
	d    *NICE
	opts TrafficOptions

	arr     *workload.OpenLoop
	keys    []string    // pre-rendered key strings (Workload.Key allocates)
	addr    []netsim.IP // per-key unicast vring address
	chooser *workload.Zipfian
	rng     *rand.Rand

	src  []netsim.IP // per-client synthesized source IP
	gwOf []uint8     // per-client gateway index

	socks []*transport.UDPSocket // per-gateway request/reply socket
	gwIP  []netsim.IP

	slabs [][]trafficSlot
	free  []int32
	// out is the in-flight FIFO ring of (slot<<32 | gen) entries in issue
	// order; with a constant OpTimeout that is also deadline order.
	out     []int64
	outHead int
	outLen  int

	// pend accumulates the current tick's batched gets per destination
	// node (BatchSize > 1); touched lists the destinations with a
	// non-empty pending batch in first-seen order, keeping the flush
	// deterministic.
	pend    map[netsim.IP]*gwBatch
	touched []*gwBatch

	issued, completed, timedOut, notFound int64
	lat                                   *metrics.Histogram
}

// gwBatch is one destination node's pending batched gets. The gateway
// and source of the first op in the batch frame the datagram; nothing
// routes on the virtual source, so sharing it across the batch's ops is
// as harmless as the per-division synthesis itself.
type gwBatch struct {
	addr netsim.IP
	gi   uint8
	src  netsim.IP
	reqs []*core.GetRequest
}

// NewTrafficEngine wires the engine to a deployment: binds each gateway's
// reply listeners, installs the client-space return route on each leaf
// (in-switch cache hits are addressed to the virtual source IP and bounce
// back toward the requesting leaf; this routes them to its gateway), and
// precomputes the flyweight per-client state.
func NewTrafficEngine(d *NICE, opts TrafficOptions) *TrafficEngine {
	opts.defaults()
	if len(d.Gateways) == 0 {
		panic("cluster: traffic engine needs gateways (Options.TrafficGateways)")
	}
	e := &TrafficEngine{
		d:       d,
		opts:    opts,
		keys:    make([]string, opts.Records),
		addr:    make([]netsim.IP, opts.Records),
		chooser: workload.NewZipfian(opts.Records),
		rng:     rand.New(rand.NewSource(DeriveSeed(opts.Seed, 7001))),
		src:     make([]netsim.IP, opts.Clients),
		gwOf:    make([]uint8, opts.Clients),
		gwIP:    make([]netsim.IP, len(d.Gateways)),
		// One sample per completed get: sized once for the offered
		// arrivals, plus 1 % for their spread (one standard deviation is
		// 0.24 % of 180 k), so a run never regrows it.
		lat: metrics.NewHistogram(int(1.01 * opts.Rate * opts.Duration.Seconds())),
	}
	mean := int64(float64(opts.Clients) / opts.Rate * 1e9)
	e.arr = workload.NewOpenLoop(opts.Clients, mean, int64(opts.Tick), DeriveSeed(opts.Seed, 7002))

	for i := range e.keys {
		e.keys[i] = fmt.Sprintf("user%d", i)
		e.addr[i] = d.Unicast.AddrOfKey(e.keys[i])
	}
	synthSrcIPs(e.src, d.Opts.R)
	for c := range e.gwOf {
		e.gwOf[c] = uint8(c % len(d.Gateways))
	}

	s := d.Sim
	space := netsim.MustParsePrefix("192.168.0.0/16")
	for gi, g := range d.Gateways {
		e.gwIP[gi] = g.Stack.IP()
		// Cache-hit replies are addressed to the virtual source IP (the
		// switch mirrors the request's addressing); the gateway terminates
		// the whole client space so its NIC delivers them.
		g.Stack.Host().AcceptPrefix(space)
		leaf, port := g.access()
		leaf.AddFlow(openflow.FlowEntry{
			Priority: prioTrafficReply,
			Match:    openflow.MatchDst(space),
			Actions:  []openflow.Action{openflow.Output{Port: port}},
			Cookie:   "traffic/reply",
		})
		udp := g.Stack.MustBindUDP(TrafficPort)
		e.socks = append(e.socks, udp)
		s.Spawn("traffic-gw-udp", func(p *sim.Proc) {
			for {
				dg, ok := udp.Recv(p)
				if !ok {
					return
				}
				e.handleReply(dg.Data, p.Now())
			}
		})
		ln := g.Stack.MustListen(TrafficPort)
		s.Spawn("traffic-gw-accept", func(p *sim.Proc) {
			for {
				conn, ok := ln.Accept(p)
				if !ok {
					return
				}
				s.Spawn("traffic-gw-reader", func(p *sim.Proc) {
					for {
						m, ok := conn.Recv(p)
						if !ok {
							return
						}
						e.handleReply(m.Data, p.Now())
					}
				})
			}
		})
	}
	return e
}

// synthSrcIPs fills src with per-division virtual client addresses inside
// 192.168.0.0/16: client i lands in load-balancing division i mod r, at a
// bit-reversed offset so sequential clients spread uniformly over each
// division's range. The space holds 2^16 addresses, so above ~65k clients
// offsets repeat — harmless, since nothing routes on the virtual source
// (replies return by the request's embedded gateway address and MAC) and
// the LB rules classify on the division prefix.
func synthSrcIPs(src []netsim.IP, r int) {
	if r < 1 {
		r = 1
	}
	divBits := 0
	for 1<<divBits < r {
		divBits++
	}
	width := uint32(1) << (16 - divBits)
	base := netsim.MustParseIP("192.168.0.0")
	for i := range src {
		div := uint32(i % r)
		off := bits.Reverse32(uint32(i/r)) >> (16 + divBits)
		src[i] = base.Add(div*width + off%width)
	}
}

// Preload writes the keyspace through the deployment's real clients
// (round-robin, in parallel) so every get has something to hit.
func (e *TrafficEngine) Preload(p *sim.Proc) error {
	nc := len(e.d.Clients)
	if nc == 0 {
		return fmt.Errorf("traffic: preload needs at least one real client")
	}
	g := sim.NewGroup(e.d.Sim)
	errs := make([]error, nc)
	for c := 0; c < nc; c++ {
		c := c
		g.Add(1)
		e.d.Sim.Spawn(fmt.Sprintf("traffic-load%d", c), func(p *sim.Proc) {
			defer g.Done()
			for i := c; i < len(e.keys); i += nc {
				if _, err := e.d.Clients[c].Put(p, e.keys[i], "v", e.opts.ValueSize); err != nil {
					errs[c] = err
					return
				}
			}
		})
	}
	g.Wait(p)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run issues the open-loop schedule for opts.Duration, then drains one
// timeout window and reports. Call from a driver proc after Preload.
func (e *TrafficEngine) Run(p *sim.Proc) TrafficResult {
	start := p.Now()
	deadline := start + e.opts.Duration
	for p.Now() < deadline {
		now := p.Now()
		e.arr.Tick(func(c int32) { e.issue(now, c) })
		e.flushBatches()
		e.reap(now)
		p.Sleep(e.opts.Tick)
	}
	p.Sleep(e.opts.OpTimeout + 2*e.opts.Tick)
	e.reap(p.Now())

	res := TrafficResult{
		Issued:    e.issued,
		Completed: e.completed,
		TimedOut:  e.timedOut,
		NotFound:  e.notFound,
	}
	if e.opts.Duration > 0 {
		res.Achieved = float64(e.completed) / e.opts.Duration.Seconds()
	}
	if e.lat.N() > 0 {
		res.P50 = sim.Time(e.lat.Percentile(50) * 1e9)
		res.P99 = sim.Time(e.lat.Percentile(99) * 1e9)
	}
	if e.d.Cache != nil {
		st := e.d.Cache.Stats()
		res.CacheHits, res.CacheMisses = st.Hits, st.Misses
	}
	return res
}

// issue sends one virtual client's get. Zero allocations: the request
// struct is pooled in the slab, the key string pre-rendered, the packet
// from the network's pool.
func (e *TrafficEngine) issue(now sim.Time, c int32) {
	si := e.alloc()
	sl := e.slot(si)
	k := e.chooser.Next(e.rng)
	gi := e.gwOf[c]
	sl.issuedAt = now
	sl.live = true
	sl.req.Key = e.keys[k]
	sl.req.ReqID = uint64(si+1)<<32 | uint64(sl.gen)
	sl.req.Client = e.gwIP[gi]
	sl.req.ClientPort = TrafficPort
	if e.opts.BatchSize > 1 {
		e.enqueueBatched(c, gi, e.addr[k], &sl.req)
	} else {
		e.socks[gi].SendToFrom(e.src[c], e.addr[k], DataPort, &sl.req, core.GetReqSize)
	}
	e.outPush(int64(si)<<32 | int64(sl.gen))
	e.issued++
}

// enqueueBatched adds a get to its destination's pending batch, flushing
// when the batch fills. Full batches leave within the tick; stragglers
// wait for flushBatches at the tick boundary, so a batched get is
// delayed at most one Tick relative to the unbatched arm.
func (e *TrafficEngine) enqueueBatched(c int32, gi uint8, addr netsim.IP, req *core.GetRequest) {
	if e.pend == nil {
		e.pend = make(map[netsim.IP]*gwBatch)
	}
	b := e.pend[addr]
	if b == nil {
		b = &gwBatch{addr: addr}
		e.pend[addr] = b
	}
	if len(b.reqs) == 0 {
		b.gi = gi
		b.src = e.src[c]
		e.touched = append(e.touched, b)
	}
	b.reqs = append(b.reqs, req)
	if len(b.reqs) >= e.opts.BatchSize {
		e.sendBatch(b)
	}
}

// flushBatches sends every partial batch the tick left behind.
func (e *TrafficEngine) flushBatches() {
	for _, b := range e.touched {
		if len(b.reqs) > 0 {
			e.sendBatch(b)
		}
	}
	e.touched = e.touched[:0]
}

// sendBatch emits one BatchGetRequest. The message must own its request
// slice — b.reqs is recycled for the destination's next batch while the
// datagram is still in flight.
func (e *TrafficEngine) sendBatch(b *gwBatch) {
	reqs := make([]*core.GetRequest, len(b.reqs))
	copy(reqs, b.reqs)
	e.socks[b.gi].SendToFrom(b.src, b.addr, DataPort,
		&core.BatchGetRequest{Reqs: reqs}, core.BatchHeaderSize+len(reqs)*core.GetReqSize)
	b.reqs = b.reqs[:0]
}

// handleReply completes the slot a reply names, unless it already timed
// out (the generation fences late replies against a recycled slot).
func (e *TrafficEngine) handleReply(data any, now sim.Time) {
	rep, ok := data.(*core.GetReply)
	if !ok {
		return
	}
	si := int64(rep.ReqID>>32) - 1
	if si < 0 || si >= int64(len(e.slabs))*trafficChunk {
		return
	}
	sl := e.slot(int32(si))
	sl.req.FreeReply(rep) // read: the room may take the next answer
	if !sl.live || sl.gen != uint32(rep.ReqID) {
		return
	}
	sl.live = false
	sl.gen++
	e.free = append(e.free, int32(si))
	e.completed++
	if !rep.Found {
		e.notFound++
	}
	e.lat.Add(now - sl.issuedAt)
}

// reap expires in-flight requests whose deadline passed. Entries are in
// issue order; the scan stops at the first live, unexpired one.
func (e *TrafficEngine) reap(now sim.Time) {
	for e.outLen > 0 {
		ent := e.out[e.outHead]
		si, gen := int32(ent>>32), uint32(ent)
		sl := e.slot(si)
		if sl.live && sl.gen == gen {
			if sl.issuedAt+e.opts.OpTimeout > now {
				return
			}
			sl.live = false
			sl.gen++
			e.free = append(e.free, si)
			e.timedOut++
		}
		e.outHead = (e.outHead + 1) & (len(e.out) - 1)
		e.outLen--
	}
}

func (e *TrafficEngine) slot(si int32) *trafficSlot {
	return &e.slabs[si>>12][si&(trafficChunk-1)]
}

// alloc pops a free slot, growing the slab by one chunk when dry. Chunks
// are stable in memory: in-flight packets hold &slot.req pointers.
func (e *TrafficEngine) alloc() int32 {
	if n := len(e.free); n > 0 {
		si := e.free[n-1]
		e.free = e.free[:n-1]
		return si
	}
	base := int32(len(e.slabs)) * trafficChunk
	e.slabs = append(e.slabs, make([]trafficSlot, trafficChunk))
	for i := int32(trafficChunk - 1); i >= 1; i-- {
		e.free = append(e.free, base+i)
	}
	return base
}

// outPush appends to the in-flight ring, doubling it when full (warmup
// only; steady state the ring is sized).
func (e *TrafficEngine) outPush(ent int64) {
	if len(e.out) == 0 {
		e.out = make([]int64, 1024)
	}
	if e.outLen == len(e.out) {
		grown := make([]int64, 2*len(e.out))
		for i := 0; i < e.outLen; i++ {
			grown[i] = e.out[(e.outHead+i)&(len(e.out)-1)]
		}
		e.out = grown
		e.outHead = 0
	}
	e.out[(e.outHead+e.outLen)&(len(e.out)-1)] = ent
	e.outLen++
}
