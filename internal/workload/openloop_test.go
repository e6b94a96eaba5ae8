package workload

import "testing"

// TestOpenLoopRate: over many ticks the served arrival count converges on
// clients * elapsed / mean — the open-loop offered rate.
func TestOpenLoopRate(t *testing.T) {
	const (
		clients = 1000
		mean    = 1_000_000 // 1ms
		tick    = 10_000    // 10us
		ticks   = 100_000   // 1s
	)
	o := NewOpenLoop(clients, mean, tick, 42)
	total := 0
	for i := 0; i < ticks; i++ {
		total += o.Tick(func(int32) {})
	}
	want := float64(clients) * float64(ticks*tick) / float64(mean)
	if ratio := float64(total) / want; ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("served %d arrivals over %d ticks, want ~%.0f (ratio %.3f)", total, ticks, want, ratio)
	}
}

// TestOpenLoopDeterminism: same parameters and seed, same arrival
// sequence.
func TestOpenLoopDeterminism(t *testing.T) {
	a := NewOpenLoop(500, 1_000_000, 10_000, 7)
	b := NewOpenLoop(500, 1_000_000, 10_000, 7)
	for i := 0; i < 20_000; i++ {
		var sa, sb []int32
		a.Tick(func(c int32) { sa = append(sa, c) })
		b.Tick(func(c int32) { sb = append(sb, c) })
		if len(sa) != len(sb) {
			t.Fatalf("tick %d: batch sizes differ (%d vs %d)", i, len(sa), len(sb))
		}
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("tick %d: arrival %d differs (%d vs %d)", i, j, sa[j], sb[j])
			}
		}
	}
}

// TestOpenLoopOncePerTick: the calendar re-files a served client at least
// one full tick ahead, so no client fires twice in one batch.
func TestOpenLoopOncePerTick(t *testing.T) {
	o := NewOpenLoop(200, 50_000, 10_000, 3) // mean only 5 ticks: heavy reuse
	seen := make(map[int32]bool, 200)
	for i := 0; i < 50_000; i++ {
		clear(seen)
		o.Tick(func(c int32) {
			if seen[c] {
				t.Fatalf("tick %d: client %d fired twice", i, c)
			}
			seen[c] = true
		})
	}
}

// TestOpenLoopZeroAlloc: after construction the calendar allocates
// nothing — buckets are intrusive chains through flat arrays.
func TestOpenLoopZeroAlloc(t *testing.T) {
	o := NewOpenLoop(10_000, 1_000_000, 10_000, 9)
	fn := func(int32) {}
	// One run is 100k ticks, so a single object anywhere in them fails;
	// AllocsPerRun's warm-up run settles the closure and any lazy state.
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100_000; i++ {
			o.Tick(fn)
		}
	}); n != 0 {
		t.Fatalf("calendar allocated %v objects over 100k ticks, want 0", n)
	}
}
