package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestHeavyTrafficSmoke runs one small open-loop cell end to end: the
// fleet is virtual, but every request crosses the real leaf-spine fabric
// to a real node and back. The open-loop engine must sustain the offered
// rate with almost no timeouts at this easy operating point.
func TestHeavyTrafficSmoke(t *testing.T) {
	cell, err := RunHeavyTrafficCell("nicekv+lb", 2000, 7, 40_000, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cell: %+v", cell)
	if cell.Issued < 3000 {
		t.Fatalf("issued %d requests, want ~4000 at 40k req/s over 100ms", cell.Issued)
	}
	if cell.TimeoutFrac > 0.01 {
		t.Fatalf("timeout fraction %.3f, want <1%%", cell.TimeoutFrac)
	}
	if cell.Achieved < 0.8*cell.Offered || cell.Achieved > 1.15*cell.Offered {
		t.Fatalf("achieved %.0f req/s of %.0f offered", cell.Achieved, cell.Offered)
	}
	if cell.P50Micros <= 0 || cell.P99Micros < cell.P50Micros {
		t.Fatalf("implausible latency: p50=%.1fus p99=%.1fus", cell.P50Micros, cell.P99Micros)
	}
}

// TestHeavyTrafficCacheArm checks the +cache arm serves a visible share
// of the zipfian-skewed gets from the spine cache.
func TestHeavyTrafficCacheArm(t *testing.T) {
	cell, err := RunHeavyTrafficCell("nicekv+lb+cache", 2000, 7, 40_000, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cell: %+v", cell)
	if cell.TimeoutFrac > 0.01 {
		t.Fatalf("timeout fraction %.3f, want <1%%", cell.TimeoutFrac)
	}
	if cell.CacheHit <= 0 {
		t.Fatalf("cache arm saw no cache hits")
	}
}

// TestHeavyTrafficDeterminism: same seed, same cell, bit for bit.
func TestHeavyTrafficDeterminism(t *testing.T) {
	run := func() TrafficCell {
		c, err := RunHeavyTrafficCell("nicekv", 1000, 11, 20_000, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different cells:\n  %+v\n  %+v", a, b)
	}
}

// TestSynthSrcIPs checks the virtual source synthesis: every address in
// client space, division assignment i mod r, and offsets spread across
// each division's range rather than clustering at its base.
func TestSynthSrcIPs(t *testing.T) {
	const r = 3
	src := make([]netsim.IP, 4096)
	synthSrcIPs(src, r)
	space := netsim.MustParsePrefix("192.168.0.0/16")
	base := netsim.MustParseIP("192.168.0.0")
	// r=3 rounds up to 4 division slots of 2^14 addresses.
	const width = 1 << 14
	seenHigh := 0
	for i, ip := range src {
		if !space.Contains(ip) {
			t.Fatalf("client %d: %v outside client space", i, ip)
		}
		off := uint32(ip - base)
		if got := int(off / width); got != i%r {
			t.Fatalf("client %d: division %d, want %d", i, got, i%r)
		}
		if off%width >= width/2 {
			seenHigh++
		}
	}
	if seenHigh < len(src)/4 {
		t.Fatalf("offsets cluster low: only %d/%d in upper half of division range", seenHigh, len(src))
	}
}

// TestTrafficArrivalZeroAlloc is the §12 hot-path guarantee at scale: at
// 10^5 virtual clients with every storage node blackholed (so every
// request times out and recycles through the reaper, the worst case for
// bookkeeping), a steady-state measurement window allocates ~nothing per
// issued request. Mirrors BenchmarkFloodFanout's MemStats assertion.
func TestTrafficArrivalZeroAlloc(t *testing.T) {
	opts := heavyTrafficBase(3)
	opts.LoadBalance = true
	// Silence heartbeat-driven failure handling so downed nodes stay down
	// quietly instead of churning the controller.
	opts.Heartbeat = time.Hour
	d := NewNICELeafSpine(opts, 4)
	eng := NewTrafficEngine(d, TrafficOptions{
		Clients:  100_000,
		Rate:     200_000,
		Duration: time.Hour, // the test stops the clock, not the engine
		Seed:     3,
	})
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	for _, st := range d.Stacks {
		st.Host().SetDown(true)
	}
	d.Sim.Spawn("traffic-gen", func(p *sim.Proc) { eng.Run(p) })

	// Warm past one full timeout window so the slot slab, free list and
	// in-flight ring reach steady-state size and the reaper is
	// recycling. (The arrival calendar never allocates: it is intrusive
	// chains through flat arrays.)
	start := d.Sim.Now()
	d.Sim.RunUntil(start + sim.Time(600*time.Millisecond))
	issued0 := eng.issued
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d.Sim.RunUntil(start + sim.Time(800*time.Millisecond))
	runtime.ReadMemStats(&m1)
	ops := eng.issued - issued0

	if ops < 30_000 {
		t.Fatalf("measurement window issued only %d requests", ops)
	}
	bytesPerOp := (m1.TotalAlloc - m0.TotalAlloc) / uint64(ops)
	t.Logf("%d requests, %d B total, %d B/op", ops, m1.TotalAlloc-m0.TotalAlloc, bytesPerOp)
	if bytesPerOp != 0 {
		t.Fatalf("arrival hot path allocates %d B/op, want 0", bytesPerOp)
	}
}

// TestCacheAdmissionPinned pins the hot-key manager's decisions on one
// small leaf-spine cell: a 16-entry table under a zipfian open-loop get
// stream over 256 keys, a 10ms sketch decay, and a closed-loop writer
// invalidating the eight hottest keys while the table churns. The
// expected counters were recorded from commit bc72f9c, where the victim
// was chosen by scanning the sorted table, and re-recorded once since,
// when a prepare became one forced write and the writer's puts got
// faster; a different victim on any tie (lowest estimate, then smallest
// key) moves them.
func TestCacheAdmissionPinned(t *testing.T) {
	base := heavyTrafficBase(3)
	base.CacheCapacity = 16
	base.CacheHotThreshold = 3
	base.CacheDecayEvery = 10 * time.Millisecond
	err := withBench("nicekv+lb+cache", base, 4, func(b *bench) error {
		d := b.NICE
		eng := NewTrafficEngine(d, TrafficOptions{
			Clients: 500, Rate: 50_000, Duration: 80 * time.Millisecond, Records: 256, Seed: base.Seed,
		})
		loaded := sim.NewGroup(d.Sim)
		loaded.Add(1)
		if _, err := b.Run(2, func(c int, p *sim.Proc) error {
			if c == 0 {
				err := eng.Preload(p)
				loaded.Done()
				if err != nil {
					return err
				}
				if res := eng.Run(p); res.Issued != 4006 || res.Completed != 4006 {
					return fmt.Errorf("engine issued %d, completed %d, want 4006 of 4006", res.Issued, res.Completed)
				}
				return nil
			}
			loaded.Wait(p)
			for i := 0; i < 120; i++ {
				if _, err := b.Clients[3].Put(p, fmt.Sprintf("user%d", i%8), "w", 512); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		wantMgr := controller.CacheManagerStats{Sampled: 1675, Fetches: 577, Installs: 399, Evicts: 354}
		if got := d.CacheMgr.Stats(); got != wantMgr {
			t.Errorf("manager stats %+v, want %+v", got, wantMgr)
		}
		wantCache := metrics.CacheCounters{
			Hits: 1337, Misses: 1675, Installs: 201, Evictions: 171, Invalidations: 14, Rejected: 191,
			Occupancy: 16, Capacity: 16,
		}
		if got := d.Cache.Stats(); got != wantCache {
			t.Errorf("switch counters %+v, want %+v", got, wantCache)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLateReplyAfterSlotReuseIsFenced: a get times out, its slot is
// reissued to a new get, and the new get is answered; the old get's reply,
// arriving only then, neither completes nor alters the new op. Its reader
// frees the request's reply room, so the next answer is written there
// again. Replies are made by the switch cache's codec, the same room rule
// a node's answers follow; the storage nodes are down so nothing else
// answers.
func TestLateReplyAfterSlotReuseIsFenced(t *testing.T) {
	opts := heavyTrafficBase(3)
	opts.Heartbeat = time.Hour
	d := NewNICELeafSpine(opts, 2)
	defer d.Close()
	eng := NewTrafficEngine(d, TrafficOptions{Clients: 1, Rate: 1000, Duration: time.Second, Records: 16, Seed: 3})
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	for _, st := range d.Stacks {
		st.Host().SetDown(true)
	}
	answer := func(sl *trafficSlot, value string) *core.GetReply {
		return core.SwitchCodec{}.MakeReply(&netsim.Packet{Payload: &sl.req}, value, 8, 1).Payload.(*core.GetReply)
	}
	t0 := d.Sim.Now()
	eng.issue(t0, 0)
	sl := eng.slot(0)
	oldID := sl.req.ReqID
	old := answer(sl, "old") // in flight until the end
	t1 := t0 + eng.opts.OpTimeout
	eng.reap(t1)
	eng.issue(t1, 0)
	if eng.slot(0) != sl || sl.req.ReqID == oldID || eng.timedOut != 1 {
		t.Fatalf("slot not reissued: ReqID %x (old %x), %d timed out", sl.req.ReqID, oldID, eng.timedOut)
	}
	wire := func(r *core.GetRequest) core.GetRequest { // the exported fields
		return core.GetRequest{Key: r.Key, ReqID: r.ReqID, Client: r.Client, ClientPort: r.ClientPort, Attempt: r.Attempt}
	}
	newReq := wire(&sl.req)
	fresh := answer(sl, "new")
	if fresh == old || old.ReqID != oldID || old.Value != "old" {
		t.Fatalf("the new get's answer rewrote the old one in flight: %+v", *old)
	}
	eng.handleReply(old, t1+time.Millisecond)
	if eng.completed != 0 || !sl.live || wire(&sl.req) != newReq || fresh.ReqID != newReq.ReqID || fresh.Value != "new" {
		t.Fatalf("the late reply touched the new op: %d completed, live %v, request %+v, reply %+v",
			eng.completed, sl.live, wire(&sl.req), *fresh)
	}
	eng.handleReply(fresh, t1+2*time.Millisecond)
	if eng.completed != 1 || sl.live || eng.lat.N() != 1 || eng.lat.Percentile(50) != 0.002 {
		t.Fatalf("the new op: %d completed, live %v, latency %v s", eng.completed, sl.live, eng.lat.Percentile(50))
	}
	eng.issue(t1+2*time.Millisecond, 0)
	if again := answer(eng.slot(0), "next"); again != old {
		t.Fatal("the room freed by the late reply's read was not reused")
	}
}
