package metrics

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must read zero")
	}
	for _, ms := range []int{10, 20, 30, 40} {
		h.Add(sim.Time(ms) * time.Millisecond)
	}
	if h.N() != 4 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Mean(); got < 0.0249 || got > 0.0251 {
		t.Fatalf("Mean = %v", got)
	}
	if got := h.Percentile(0); got != 0.010 {
		t.Fatalf("P0 = %v", got)
	}
	if got := h.Max(); got != 0.040 {
		t.Fatalf("Max = %v", got)
	}
	if got := h.Percentile(50); got != 0.020 {
		t.Fatalf("P50 = %v", got)
	}
	if got := h.Percentile(100); got != 0.040 {
		t.Fatalf("P100 = %v", got)
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(sim.Time(i) * time.Millisecond)
	}
	prev := 0.0
	for p := 1.0; p <= 100; p++ {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at %v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Add(100*time.Millisecond, 1)
	ts.Add(900*time.Millisecond, 1)
	ts.Add(1500*time.Millisecond, 1)
	ts.Add(3200*time.Millisecond, 4)
	v := ts.Values()
	if len(v) != 4 {
		t.Fatalf("len = %d", len(v))
	}
	want := []float64{2, 1, 0, 4}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Values = %v, want %v", v, want)
		}
	}
}

func TestFormatters(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.00KiB",
		3 << 20: "3.00MiB",
		5 << 30: "5.00GiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
	sizes := map[int]string{
		4:       "4B",
		1024:    "1KB",
		65536:   "64KB",
		1 << 20: "1MB",
		1500:    "1500B",
	}
	for n, want := range sizes {
		if got := FormatSize(n); got != want {
			t.Errorf("FormatSize(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestSummary(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(sim.Time(i) * sim.Time(time.Millisecond))
	}
	s := h.Summary()
	if s.N != 100 {
		t.Fatalf("N = %d", s.N)
	}
	if got, want := s.P50, 0.050; got != want {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	if got, want := s.P95, 0.095; got != want {
		t.Fatalf("p95 = %v, want %v", got, want)
	}
	if got, want := s.P99, 0.099; got != want {
		t.Fatalf("p99 = %v, want %v", got, want)
	}
	if got, want := s.Max, 0.100; got != want {
		t.Fatalf("max = %v, want %v", got, want)
	}
	str := s.String()
	for _, frag := range []string{"n=100", "p50=50ms", "p99=99ms", "max=100ms"} {
		if !containsStr(str, frag) {
			t.Fatalf("summary %q missing %q", str, frag)
		}
	}
}

func TestCacheCounters(t *testing.T) {
	var c CacheCounters
	if c.HitRate() != 0 {
		t.Fatal("idle hit rate must be 0")
	}
	c = CacheCounters{Hits: 75, Misses: 25, Occupancy: 3, Capacity: 64}
	if got := c.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v", got)
	}
	s := c.String()
	for _, frag := range []string{"hits=75", "75.0% hit", "occupancy=3/64"} {
		if !containsStr(s, frag) {
			t.Fatalf("counters %q missing %q", s, frag)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
