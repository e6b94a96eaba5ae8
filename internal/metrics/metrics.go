// Package metrics provides the measurement plumbing the experiments use:
// latency histograms, throughput time series, and simple formatting
// helpers for the figure outputs.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/sim"
)

// Histogram accumulates latency samples (or any durations).
type Histogram struct {
	samples []float64 // seconds
	sorted  bool
}

// NewHistogram returns a histogram with room for n samples, so that
// recording up to n allocates nothing.
func NewHistogram(n int) *Histogram {
	return &Histogram{samples: make([]float64, 0, n)}
}

// Add records one duration.
func (h *Histogram) Add(d sim.Time) {
	h.samples = append(h.samples, d.Seconds())
	h.sorted = false
}

// N returns the sample count.
func (h *Histogram) N() int { return len(h.samples) }

// Mean returns the average in seconds (0 if empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// Stddev returns the population standard deviation in seconds.
func (h *Histogram) Stddev() float64 {
	if len(h.samples) < 2 {
		return 0
	}
	m := h.Mean()
	var ss float64
	for _, v := range h.samples {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(len(h.samples)))
}

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Percentile returns the p-th percentile in seconds, p in [0,100].
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	idx := int(math.Ceil(p/100*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// Min returns the smallest sample in seconds.
func (h *Histogram) Min() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	return h.samples[0]
}

// Max returns the largest sample in seconds.
func (h *Histogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	return h.samples[len(h.samples)-1]
}

// MeanDuration returns the mean as a sim.Time.
func (h *Histogram) MeanDuration() sim.Time {
	return sim.Time(h.Mean() * float64(time.Second))
}

// Summary is the per-op latency digest the end-of-run reports print:
// mean and the standard percentiles, all in seconds.
type Summary struct {
	N                  int
	Mean               float64
	P50, P95, P99, Max float64
}

// Summary digests the histogram into the standard percentiles.
func (h *Histogram) Summary() Summary {
	return Summary{
		N:    h.N(),
		Mean: h.Mean(),
		P50:  h.Percentile(50),
		P95:  h.Percentile(95),
		P99:  h.Percentile(99),
		Max:  h.Max(),
	}
}

// String renders the summary with durations rounded to the microsecond.
func (s Summary) String() string {
	rd := func(sec float64) sim.Time {
		return sim.Time(sec * float64(time.Second)).Round(time.Microsecond)
	}
	return fmt.Sprintf("n=%-6d mean=%-10v p50=%-10v p95=%-10v p99=%-10v max=%v",
		s.N, rd(s.Mean), rd(s.P50), rd(s.P95), rd(s.P99), rd(s.Max))
}

// CacheCounters are the in-switch cache telemetry the switchcache data
// plane maintains and the cachesweep experiment reports. Occupancy and
// Capacity are snapshots; everything else counts since attach.
type CacheCounters struct {
	Hits          int64 // gets answered at the switch
	Misses        int64 // cacheable gets that fell through to a server
	Installs      int64 // controller-installed entries
	Evictions     int64 // controller-evicted entries
	Invalidations int64 // entries dropped by the put write-through
	Rejected      int64 // installs refused (stale version, full table, oversize)
	Occupancy     int   // entries resident now
	Capacity      int   // table bound
}

// HitRate returns hits/(hits+misses), 0 when idle.
func (c CacheCounters) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// String renders the counters for run summaries.
func (c CacheCounters) String() string {
	return fmt.Sprintf("hits=%d misses=%d (%.1f%% hit) installs=%d evictions=%d invalidations=%d occupancy=%d/%d",
		c.Hits, c.Misses, 100*c.HitRate(), c.Installs, c.Evictions,
		c.Invalidations, c.Occupancy, c.Capacity)
}

// HarmoniaCounters are the dirty-set stage's telemetry (internal/harmonia):
// how the switch classified gets (clean → rewritten to a hashed replica,
// dirty/tainted → fall through to the primary) and how the dirty table
// itself behaved.
type HarmoniaCounters struct {
	Marks            int64 // keys marked dirty by a put prepare
	Clears           int64 // dirty entries retired (all read replicas applied)
	Routed           int64 // clean gets rewritten to a hashed replica choice
	RoutedReplica    int64 // ... of which landed on a non-primary
	DirtyFallbacks   int64 // gets falling through: key dirty
	TaintFallbacks   int64 // gets falling through: partition tainted by overflow
	Overflows        int64 // put prepares the full table could not track
	Installs         int64 // controller view installs applied
	RejectedInstalls int64 // installs refused by the writer-generation fence
	Flushes          int64 // entries made sticky by a view-change install
	Occupancy        int   // dirty entries resident now
	Capacity         int   // dirty-table bound
}

// ReplicaShare returns RoutedReplica/Routed, 0 when idle: the fraction of
// clean reads the fabric spread off the primary.
func (h HarmoniaCounters) ReplicaShare() float64 {
	if h.Routed == 0 {
		return 0
	}
	return float64(h.RoutedReplica) / float64(h.Routed)
}

// String renders the counters for run summaries.
func (h HarmoniaCounters) String() string {
	return fmt.Sprintf("routed=%d (%.1f%% off-primary) dirty-fallbacks=%d taint-fallbacks=%d marks=%d clears=%d overflows=%d installs=%d rejected=%d flushes=%d occupancy=%d/%d",
		h.Routed, 100*h.ReplicaShare(), h.DirtyFallbacks, h.TaintFallbacks,
		h.Marks, h.Clears, h.Overflows, h.Installs, h.RejectedInstalls, h.Flushes,
		h.Occupancy, h.Capacity)
}

// TimeSeries buckets event counts by time: the ops/sec timelines of
// Fig. 11.
type TimeSeries struct {
	Bucket sim.Time
	counts map[int]float64
	max    int
}

// NewTimeSeries creates a series with the given bucket width.
func NewTimeSeries(bucket sim.Time) *TimeSeries {
	return &TimeSeries{Bucket: bucket, counts: make(map[int]float64)}
}

// Add records weight w at time t.
func (ts *TimeSeries) Add(t sim.Time, w float64) {
	b := int(t / ts.Bucket)
	ts.counts[b] += w
	if b > ts.max {
		ts.max = b
	}
}

// Values returns one value per bucket from time zero through the last
// recorded bucket, normalized to events per second.
func (ts *TimeSeries) Values() []float64 {
	out := make([]float64, ts.max+1)
	perSec := ts.Bucket.Seconds()
	for b, c := range ts.counts {
		out[b] = c / perSec
	}
	return out
}

// FormatBytes renders a byte count with binary units, for figure tables.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// FormatSize renders an object size the way the paper labels its x-axes.
func FormatSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n/(1<<20))
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
