package main

import (
	"fmt"
	"sort"

	"repro/internal/checker"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // higher is better
	Bound  float64 // allowed worsening, as a share of the baseline median
	Clock  string  // "virtual" (deterministic per seed) or "host"
}

// endToEnd is the regression gate: every workload reports every one of
// these, measured with the tap and the profiler off. Units name the
// clock: vus and 1/vs are microseconds and per-second of virtual
// (simulated) time, us and s of host time. A bound is at least three
// times the widest seed-to-seed spread (interquartile distance over
// median, ten seeds) seen on any workload when the benchmark was defined.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25, "host"},
	{"get_p50_us", "vus", false, 0.03, "virtual"},
	{"get_p99_us", "vus", false, 0.15, "virtual"},
	{"put_p50_us", "vus", false, 0.03, "virtual"},
	{"put_p99_us", "vus", false, 0.15, "virtual"},
	{"ops_per_vsec", "1/vs", true, 0.05, "virtual"},
	{"max_rate_under_slo_rps", "1/vs", true, 0.05, "virtual"},
	{"link_bytes_per_op", "bytes", false, 0.02, "virtual"},
	{"host_us_per_op", "us", false, 0.25, "host"},
	{"host_alloc_bytes_per_op", "bytes", false, 0.05, "host"},
}

// latencyStat is a latency distribution's reported points with the sample
// count behind them. Tail is the tailPercentile(N)-th percentile: p99
// whenever ten or more samples lie beyond it.
type latencyStat struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_us"`
	Tail    float64 `json:"tail_us"`
	TailPct float64 `json:"tail_percentile"`
}

func latencyOf(us []float64) latencyStat {
	tp := tailPercentile(len(us))
	return latencyStat{N: len(us), P50: percentile(us, 50), Tail: percentile(us, tp), TailPct: tp}
}

// report is one run reduced to named metrics.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	EndToEnd  map[string]float64     `json:"end_to_end"`
	Latency   map[string]latencyStat `json:"latency"` // get, put
	Rates     []rateResult           `json:"rates,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	NotFound  int                    `json:"not_found"`
	HistHash  string                 `json:"history_hash"`
	HostTotal float64                `json:"host_us_per_op_total"` // whole phase / ops, for reference
	Counters  map[string]float64     `json:"counters"`             // per-layer counter metrics

	// basisUsPerOp is the whole-phase host us/op a traced run's is
	// compared with: the headline rate's when open.
	basisUsPerOp float64
}

func (r *raw) headline() *rateResult {
	for i := range r.rates {
		if r.rates[i].Rate == headlineRate {
			return &r.rates[i]
		}
	}
	return nil
}

// puts is the number of acknowledged puts in the measured phase (none
// when open).
func (r *raw) puts() int { return len(r.lat[checker.OpPut]) }

// reduce turns a run into its report. On open-read-skew the get latencies
// are the headline rate's and the put latencies the preload's (the
// measured phase has no puts; see README).
func (r *raw) reduce() *report {
	rep := &report{
		Workload: r.sp.name, Seed: r.seed, Rates: r.rates,
		Attempted: r.attempted, Failed: r.failed, NotFound: r.notFound,
		HistHash: fmt.Sprintf("%016x", r.histHash),
		Latency:  map[string]latencyStat{}, basisUsPerOp: r.basisUsPerOp,
	}
	ops := float64(r.ops)
	opsPerVsec := ratio(ops, r.vElapsed.Seconds())
	e := map[string]float64{
		"setup_s":                 median(r.setupSec),
		"ops_per_vsec":            opsPerVsec,
		"max_rate_under_slo_rps":  opsPerVsec, // a closed loop offers what it completes
		"link_bytes_per_op":       ratio(float64(r.linkBytes), ops),
		"host_us_per_op":          median(r.segUsPerOp),
		"host_alloc_bytes_per_op": ratio(float64(r.allocBytes), ops),
	}
	rep.HostTotal = ratio(r.hostSec*1e6, ops)
	get, put := latencyOf(sortedMicros(r.lat[checker.OpGet])), latencyOf(sortedMicros(r.lat[checker.OpPut]))
	if r.sp.open {
		put = latencyOf(sortedMicros(r.preloadPut))
		if h := r.headline(); h != nil {
			get = latencyStat{N: int(h.Completed), P50: h.P50Micros, Tail: h.P99Micros, TailPct: 99}
		}
		e["max_rate_under_slo_rps"] = maxRateUnderSLO(r.rates)
	}
	rep.Latency["get"], rep.Latency["put"] = get, put
	e["get_p50_us"], e["get_p99_us"] = get.P50, get.Tail
	e["put_p50_us"], e["put_p99_us"] = put.P50, put.Tail
	rep.EndToEnd = e

	o := r.sp.options()
	rep.Counters = r.counts.counterMetrics(r.counterOps(), float64(r.puts()), o.CPUPerOp, o.Nodes)
	rep.Counters["core.client_retries_per_kop"] = ratio(1000*float64(r.retries), float64(r.attempted))
	rep.Counters["failed_frac"] = ratio(float64(r.failed+r.notFound), float64(r.attempted))
	for _, rr := range r.rates {
		k := int(rr.Rate / 1000)
		rep.Counters[fmt.Sprintf("cluster.get_p99_us_at_%dk", k)] = rr.P99Micros
		rep.Counters[fmt.Sprintf("cluster.achieved_frac_at_%dk", k)] = ratio(rr.Achieved, rr.Rate)
	}
	if r.sp.open {
		rep.Counters["cluster.traffic_arrival_quantum_us"] = micros(openTick)
	}
	return rep
}

// counterOps is the op count the per-layer counters cover: the whole
// phase when closed, the headline rate's when open.
func (r *raw) counterOps() float64 {
	if h := r.headline(); h != nil {
		return float64(h.Completed)
	}
	return float64(r.ops)
}

// gate is the correctness check every run must pass before it may print
// a result: consistent history, every preloaded key found, almost
// nothing failed.
func (r *raw) gate() error {
	if len(r.violations) > 0 {
		return fmt.Errorf("%s seed %d: %d consistency violations, first: %v", r.sp.name, r.seed, len(r.violations), r.violations[0])
	}
	if r.notFound > 0 {
		return fmt.Errorf("%s seed %d: %d gets of preloaded keys returned not-found", r.sp.name, r.seed, r.notFound)
	}
	if f := ratio(float64(r.failed), float64(r.attempted)); f > 0.01 {
		return fmt.Errorf("%s seed %d: failed fraction %.4f above 0.01", r.sp.name, r.seed, f)
	}
	if r.attempted == 0 {
		return fmt.Errorf("%s seed %d: nothing attempted", r.sp.name, r.seed)
	}
	return nil
}

// virtualDiff lists what differs between two runs of one (workload,
// seed) on the virtual clock: end-to-end metrics, counters, per-rate
// results and the history hash. Two runs of one commit must not differ,
// and neither may a traced and an untraced run: a tap that perturbs the
// simulation is a bug. A traced open-loop run covers the headline rate
// only, so whole-phase sums are compared only between full runs.
func virtualDiff(a, b *report, partial bool) []string {
	var diffs []string
	note := func(name string, x, y any) {
		diffs = append(diffs, fmt.Sprintf("%s: %v != %v", name, x, y))
	}
	if a.HistHash != b.HistHash {
		note("history_hash", a.HistHash, b.HistHash)
	}
	for _, m := range endToEnd {
		summed := m.Name == "ops_per_vsec" || m.Name == "link_bytes_per_op" || m.Name == "max_rate_under_slo_rps"
		if m.Clock != "virtual" || (partial && summed) {
			continue
		}
		if a.EndToEnd[m.Name] != b.EndToEnd[m.Name] {
			note(m.Name, a.EndToEnd[m.Name], b.EndToEnd[m.Name])
		}
	}
	names := make([]string, 0, len(a.Counters))
	for k := range a.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if y, ok := b.Counters[k]; (ok || !partial) && a.Counters[k] != y {
			note(k, a.Counters[k], y)
		}
	}
	for _, ra := range a.Rates {
		for _, rb := range b.Rates {
			if ra.Rate == rb.Rate && ra != rb {
				note(fmt.Sprintf("rate %v", ra.Rate), ra, rb)
			}
		}
	}
	return diffs
}
