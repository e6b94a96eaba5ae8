// Command benchmark is this repository's benchmark: four named workloads
// driven through the deployed stack's public API, end-to-end metrics on
// both the virtual and the host clock, and a traced run that attributes
// them to layers. See README.md beside this file.
//
// One run, as the driver invokes it:
//
//	go run -C benchmark . --workload small-mixed --seed 1 --seconds 10 --trace 0
//
// prints a table and, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// A whole set, medians across seeds plus one traced run per workload:
//
//	go run -C benchmark . -seeds 1,2,3 [-workload W] [-out a.json]
//	go run -C benchmark . -compare a.json b.json
//	go run -C benchmark . -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	seeds    string
	out      string
	traceOut string
	smoke    bool
	compare  bool
	describe bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, with -seeds or -smoke)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed of a single run")
	flag.Float64Var(&o.seconds, "seconds", 10, "size of the measured phase: op counts scale from the ten-second sizes")
	flag.IntVar(&o.trace, "trace", 0, "1: also make the traced run and print the per-layer metrics instead")
	flag.StringVar(&o.seeds, "seeds", "", "comma-separated seeds: run the set and report medians across them")
	flag.StringVar(&o.out, "out", "", "with -seeds: write the set's results here as JSON")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's per-op spans here as JSON")
	flag.BoolVar(&o.smoke, "smoke", false, "run all four workloads at about 1/20 size, traced, in a few seconds")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments; exit 1 on any worse")
	flag.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json as this program defines it")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.describe:
		data, err := describe()
		if err == nil {
			_, err = os.Stdout.Write(data)
		}
		return err
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1])
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %v", args)
	case o.seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case o.smoke || o.seeds != "":
		seeds := []int64{1}
		if o.seeds != "" {
			seeds = nil
			for _, f := range strings.Split(o.seeds, ",") {
				n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
				if err != nil {
					return fmt.Errorf("-seeds: %w", err)
				}
				seeds = append(seeds, n)
			}
		}
		return runSet(o.workload, seeds, o.seconds, o.smoke, o.out, o.traceOut)
	}
	sp, err := findSpec(o.workload)
	if err != nil {
		return err
	}
	return runSingle(sp.scaled(o.seconds), o.seed, o.trace != 0, o.traceOut)
}

func warnOneCPU() {
	if runtime.NumCPU() == 1 {
		fmt.Fprintln(os.Stderr, "benchmark: warning: num_cpu is 1; host-time metrics include the Go runtime's background work and are not comparable with multi-core runs")
	}
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runSingle is one driver-style run: untraced for the end-to-end
// metrics, plus (traced) the traced run for the per-layer ones.
func runSingle(sp spec, seed int64, traced bool, traceOut string) error {
	warnOneCPU()
	base, err := runOnce(sp, seed, false)
	if err != nil {
		return err
	}
	if err := base.gate(); err != nil {
		return err
	}
	rep := base.reduce()
	printReport(rep)
	res := result{Correct: true, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{rep.EndToEnd[m.Name], m.Unit}
		}
	} else {
		layers, _, err := tracedRun(sp, seed, rep, 1, traceOut)
		if err != nil {
			return err
		}
		printLayers(layers)
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printReport(rep *report) {
	fmt.Printf("== %s seed %d: %d attempted, %d failed, history %s\n", rep.Workload, rep.Seed, rep.Attempted, rep.Failed, rep.HistHash)
	for _, k := range []string{"get", "put"} {
		l := rep.Latency[k]
		fmt.Printf("   %s latency: n=%d p50=%.1fus p%.0f=%.1fus\n", k, l.N, l.P50, l.TailPct, l.Tail)
	}
	for _, rr := range rep.Rates {
		fmt.Printf("   offered %6.0f/s: achieved %8.1f/s p50=%.1fus p99=%.1fus timeouts=%d slo=%v\n",
			rr.Rate, rr.Achieved, rr.P50Micros, rr.P99Micros, rr.TimedOut, rr.MeetsSLO)
	}
	for _, m := range endToEnd {
		fmt.Printf("   %-26s %16.4f %-6s (%s clock)\n", m.Name, rep.EndToEnd[m.Name], m.Unit, m.Clock)
	}
	fmt.Printf("   %-26s %16.4f %-6s (whole phase, for reference)\n", "host_us_per_op_total", rep.HostTotal, "us")
}

func printLayers(layers map[string]float64) {
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	unit := map[string]string{}
	for _, m := range perLayer {
		unit[m.Name] = m.Unit
	}
	fmt.Println("-- per-layer metrics (traced run; counters from the untraced run)")
	for _, k := range names {
		fmt.Printf("   %-40s %16.4f %s\n", k, layers[k], unit[k])
	}
}
