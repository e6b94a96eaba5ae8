package cluster

import (
	"runtime"
	"testing"
	"time"

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
