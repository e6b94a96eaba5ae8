package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// perLayer lists every per-layer metric a traced run prints: counters
// read from the layers' Stats() accessors after the untraced run, host
// nanoseconds from the micro-drivers, virtual-time spans and host-time
// shares from the traced run. They carry no bound; a metric that does not
// apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit string, higher bool, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Higher: higher})
		}
	}
	add("ns", false, "sim.event_ns", "sim.sleepwake_ns", "sim.queue_handoff_ns", "netsim.packet_hop_ns",
		"openflow.lookup_ns", "transport.stream_msg_ns", "storage.commit_sync_ns", "storage.get_mem_ns",
		"workload.zipf_next_ns", "workload.openloop_arrival_ns", "ring.partition_of_ns",
		"metrics.hist_add_ns", "metrics.hist_percentile_ns")
	add("MB/s", true, "transport.mcast_mb_per_s")
	add("count", false, "netsim.pkts_per_op", "netsim.switch_drops", "openflow.table_entries",
		"openflow.packet_ins_per_kop", "openflow.flow_mods", "switchcache.invalidations", "switchcache.rejected",
		"controller.node_msgs", "controller.rebalances", "core.client_retries_per_kop", "core.aborts",
		"core.dup_puts", "core.get_forwards", "core.gets_held", "storage.fsyncs_per_put",
		"storage.wal_appends_per_put", "storage.disk_reads_per_get", "storage.evictions", "storage.snapshots")
	add("count", true, "switchcache.installs", "switchcache.occupancy", "core.gets_coalesced",
		"core.mean_put_batch", "storage.mean_sync_batch", "storage.coalesced_syncs", "kvstore.combined_writes")
	add("frac", false, "netsim.max_link_util", "core.node_cpu_busy_frac", "failed_frac", "trace_overhead_frac")
	add("ratio", false, "netsim.node_load_ratio")
	add("frac", true, "switchcache.hit_frac", "storage.mem_hit_frac", "span.coverage")
	add("vus", false, "cluster.traffic_arrival_quantum_us")
	for _, r := range openRates {
		add("vus", false, fmt.Sprintf("cluster.get_p99_us_at_%dk", int(r/1000)))
		add("frac", true, fmt.Sprintf("cluster.achieved_frac_at_%dk", int(r/1000)))
	}
	for _, l := range shareLayers {
		add("frac", false, l+".host_share")
	}
	for _, ty := range []string{"get", "put"} {
		for _, sn := range spansOf[ty] {
			p := "span." + ty + "." + sn
			add("vus", false, p+".p50_us", p+".p99_us")
			add("frac", false, p+".share")
		}
	}
	return defs
}

// tracedRun makes the one extra traced run of a (workload, seed) and
// assembles the per-layer metrics. It fails if the traced run's virtual
// metrics differ from the untraced run's: a tap must not perturb the
// simulation, and the same seed must give the same run.
func tracedRun(sp spec, seed int64, base *report, microScale float64, traceOut string) (map[string]float64, *spanTable, error) {
	tr, err := runOnce(sp, seed, true)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.gate(); err != nil {
		return nil, nil, err
	}
	if diffs := virtualDiff(base, tr.reduce(), sp.open); len(diffs) > 0 {
		return nil, nil, fmt.Errorf("%s seed %d: traced run differs from untraced on the virtual clock: %s", sp.name, seed, strings.Join(diffs, "; "))
	}
	if err := tr.spans.check(); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
	}
	layers := map[string]float64{}
	for k, v := range base.Counters {
		layers[k] = v
	}
	layers["trace_overhead_frac"] = ratio(tr.basisUsPerOp, base.basisUsPerOp) - 1
	layers["span.coverage"] = ratio(float64(tr.spans.Traced), float64(tr.spans.Traced+tr.spans.Incomplete))
	for ty, byName := range tr.spans.Stats {
		for sn, st := range byName {
			p := "span." + ty + "." + sn
			layers[p+".p50_us"], layers[p+".p99_us"], layers[p+".share"] = st.P50, st.Tail, st.Share
		}
	}
	shares, err := hostShares(tr.profile)
	if err != nil {
		return nil, nil, err
	}
	micro, err := microDrivers(sp, seed, microScale)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range []map[string]float64{shares, micro} {
		for k, v := range m {
			layers[k] = v
		}
	}
	for _, m := range perLayer {
		if _, ok := layers[m.Name]; !ok {
			layers[m.Name] = 0 // does not apply to this workload
		}
	}
	if traceOut != "" {
		if err := writeJSON(traceOut, tr.spans.export(sp.name, seed)); err != nil {
			return nil, nil, err
		}
	}
	return layers, tr.spans, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// setResult is what -seeds writes with -out and -compare reads.
type setResult struct {
	Env       map[string]any `json:"env"`
	Workloads []workloadSet  `json:"workloads"`
}

type workloadSet struct {
	Name   string             `json:"name"`
	Seeds  []int64            `json:"seeds"`
	Runs   []*report          `json:"runs"`   // one per seed
	Median map[string]float64 `json:"median"` // end-to-end, across seeds
	Layers map[string]float64 `json:"per_layer"`
	Spans  *spanTable         `json:"trace"`
}

func environment(seconds float64, smoke bool) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "commit": commit, "seconds": seconds, "smoke": smoke,
	}
}

// runSet is the full protocol: every workload (or one) on every seed, in
// sequence in this process; medians across seeds; a rerun of the first
// seed that must reproduce every virtual metric, counter and the history
// hash; and the traced run of the first seed for the per-layer table.
func runSet(only string, seeds []int64, seconds float64, smoke bool, out, traceOut string) error {
	warnOneCPU()
	res := setResult{Env: environment(seconds, smoke)}
	for _, sp := range specs {
		if only != "" && sp.name != only {
			continue
		}
		if smoke {
			sp = sp.smoke()
		} else {
			sp = sp.scaled(seconds)
		}
		ws := workloadSet{Name: sp.name, Seeds: seeds, Median: map[string]float64{}}
		for _, seed := range seeds {
			r, err := runOnce(sp, seed, false)
			if err != nil {
				return err
			}
			if err := r.gate(); err != nil {
				return err
			}
			rep := r.reduce()
			printReport(rep)
			ws.Runs = append(ws.Runs, rep)
		}
		again, err := runOnce(sp, seeds[0], false)
		if err != nil {
			return err
		}
		if diffs := virtualDiff(ws.Runs[0], again.reduce(), false); len(diffs) > 0 {
			return fmt.Errorf("%s seed %d is not deterministic: %s", sp.name, seeds[0], strings.Join(diffs, "; "))
		}
		fmt.Printf("   rerun of seed %d reproduced every virtual metric, counter and the history hash\n", seeds[0])
		microScale := 1.0
		if smoke {
			microScale = 0.1
		}
		if ws.Layers, ws.Spans, err = tracedRun(sp, seeds[0], ws.Runs[0], microScale, traceOut); err != nil {
			return err
		}
		fmt.Printf("== %s: median of %d seeds\n", sp.name, len(seeds))
		for _, m := range endToEnd {
			var vs []float64
			for _, rep := range ws.Runs {
				vs = append(vs, rep.EndToEnd[m.Name])
			}
			ws.Median[m.Name] = median(vs)
			fmt.Printf("   %-26s %16.4f %-6s %v\n", m.Name, ws.Median[m.Name], m.Unit, vs)
		}
		printLayers(ws.Layers)
		res.Workloads = append(res.Workloads, ws)
	}
	if len(res.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	if out != "" {
		return writeJSON(out, res)
	}
	return nil
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	med := median(vs)
	if med < 0 {
		med = -med
	}
	return ratio(q3-q1, med)
}

// verdict applies a metric's bound to a baseline and a candidate, each a
// set of per-seed values. worse: the candidate's median is worse by more
// than the bound. unresolved: either side's spread is wider than the
// bound, so a difference within it could not be seen.
func verdict(m metricDef, base, cand []float64) string {
	a, b := median(base), median(cand)
	worsening := ratio(b-a, a)
	if m.Higher {
		worsening = -worsening
	}
	switch {
	case a == 0 && b != 0:
		return "unresolved"
	case worsening > m.Bound:
		return "worse"
	case spread(base) > m.Bound || spread(cand) > m.Bound:
		return "unresolved"
	case worsening < -m.Bound:
		return "better"
	}
	return "same"
}

func readSet(path string) (*setResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// -out files and fails on any worse.
func compareFiles(basePath, candPath string) error {
	base, err := readSet(basePath)
	if err != nil {
		return err
	}
	cand, err := readSet(candPath)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Printf("%-16s %-26s %-10s %14s %14s  per-seed values\n", "workload", "metric", "verdict", "base median", "cand median")
	for _, bw := range base.Workloads {
		for _, cw := range cand.Workloads {
			if bw.Name != cw.Name {
				continue
			}
			for _, m := range endToEnd {
				var bv, cv []float64
				for _, r := range bw.Runs {
					bv = append(bv, r.EndToEnd[m.Name])
				}
				for _, r := range cw.Runs {
					cv = append(cv, r.EndToEnd[m.Name])
				}
				v := verdict(m, bv, cv)
				if v == "worse" {
					worse++
				}
				fmt.Printf("%-16s %-26s %-10s %14.4f %14.4f  %v -> %v\n", bw.Name, m.Name, v, median(bv), median(cv), bv, cv)
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse than their bound allows", worse)
	}
	return nil
}

// describe renders BENCHMARK.json from the tables in this package, so the
// file at the repository root and the program cannot drift apart.
func describe() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 10,
	}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, wl{sp.name, sp.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, better(m.Higher), m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, better(m.Higher)})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}
