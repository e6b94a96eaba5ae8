// Command nicebench regenerates every figure of the paper's evaluation
// (§6) on the simulated testbed. Each experiment prints the same series
// the paper plots; EXPERIMENTS.md records a paper-vs-measured comparison.
//
// The figure sweeps run their (system, size) grids on all cores by
// default (see internal/cluster.RunCells); -seq forces the sequential
// path. Wall-clock timings are printed per experiment, and every sweep
// writes BENCH_<name>.json under -out-dir: the hash of its cells and its
// banded claims, for tracking across commits.
//
// Usage:
//
//	nicebench -experiment all             # everything, paper-scale op counts
//	nicebench -experiment fig5 -ops 200   # one figure, reduced cost
//	nicebench -experiment ablations       # replication strategy, edge OVS, static and dynamic load balancing
//	nicebench -experiment kernel          # kernel micro-benchmarks -> BENCH_kernel.json
//	nicebench -experiment chaos           # randomized fault schedules + consistency checker
//	nicebench -experiment readscale -out-dir ""   # run a sweep, write nothing
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/switchcache"
	"repro/internal/transport"
	"repro/internal/workload"
)

// config is everything the flags set; experiments read it through run.
type config struct {
	pr           cluster.Params
	ycsbOps      int
	clients      int
	chaosN       int
	chaosCtrl    float64
	heavyClients int
	trafficSizes string
	kernelBase   string
	outDir       string
}

// run is one experiment invocation: the config, what -experiment named,
// the registry row being run, and where its tables go.
type run struct {
	*config
	exp  string
	name string
	out  io.Writer
}

// experiment is one registry row. The registry is the single source of
// truth for -experiment: the usage string, the "all" selection (extended
// experiments run only when named), the unknown-name error and the
// per-experiment timing all come from it. Adding an experiment is one row
// here plus one cell function in internal/cluster.
type experiment struct {
	name string
	// parts are the figure IDs a multi-figure experiment also answers to,
	// showing just that figure (fig6 of the shared fig5-7 sweep).
	parts    []string
	extended bool
	run      func(r *run, pr cluster.Params) error
}

var registry = []experiment{
	{name: "fig4", run: oneFigure(cluster.Fig4RequestRouting)},
	{name: "fig5-7", parts: []string{"fig5", "fig6", "fig7"}, run: func(r *run, pr cluster.Params) error {
		f5, f6, f7, err := cluster.ReplicationFigures(pr)
		return r.show(err, f5, f6, f7)
	}},
	{name: "fig8", run: func(r *run, pr cluster.Params) error {
		if r.exp == "all" && pr.Ops > 100 {
			pr.Ops = 100 // 1 MB x 1000 puts x 8 configs is slow; cap in 'all' mode
		}
		a, b, err := cluster.Fig8Quorum(pr)
		return r.show(err, a, b)
	}},
	{name: "fig9", run: func(r *run, pr cluster.Params) error {
		figs, err := cluster.Fig9Consistency(pr)
		return r.show(err, figs[cluster.ConsistencySizes[0]], figs[cluster.ConsistencySizes[1]])
	}},
	{name: "fig10", run: func(r *run, pr cluster.Params) error {
		figs, err := cluster.Fig10LoadBalancing(pr)
		return r.show(err, figs[cluster.ConsistencySizes[0]], figs[cluster.ConsistencySizes[1]])
	}},
	{name: "fig11", run: func(r *run, pr cluster.Params) error {
		res, err := cluster.Fig11FaultTolerance(cluster.DefaultFTParams())
		if err != nil {
			return err
		}
		return r.show(nil, res.Figure())
	}},
	{name: "fig12", run: func(r *run, pr cluster.Params) error {
		pr.Ops = r.ycsbOps
		fig, err := cluster.Fig12YCSB(pr, r.clients)
		return r.show(err, fig)
	}},
	{name: "tables", parts: []string{"tab-switch", "tab-membership"}, run: func(r *run, pr cluster.Params) error {
		sw, err := cluster.SwitchScalabilityTable()
		if err != nil {
			return err
		}
		mem, err := cluster.MembershipScalabilityTable()
		return r.show(err, sw, mem)
	}},
	{name: "ycsb-all", extended: true, run: func(r *run, pr cluster.Params) error {
		pr.Ops = r.ycsbOps
		fig, err := cluster.YCSBAllWorkloads(pr, r.clients)
		return r.show(err, fig)
	}},
	{name: "scale-out", extended: true, run: oneFigure(cluster.ScaleOutThroughput)},
	{name: "fabric", extended: true, run: oneFigure(cluster.FabricComparison)},
	{name: "quorum-read", extended: true, run: oneFigure(cluster.QuorumReadOverhead)},
	{name: "ablations", parts: []string{"abl-replication", "abl-edgeovs", "abl-lb", "abl-dynamiclb"}, extended: true,
		run: func(r *run, pr cluster.Params) error {
			figs, err := cluster.Ablations(pr)
			return r.show(err, figs...)
		}},
	{name: "kernel", extended: true, run: func(r *run, pr cluster.Params) error {
		benchmarks := kernelBenchmarks()
		r.table("", benchmarks)
		if err := r.write("kernel", struct {
			Benchmarks []kernelResult `json:"benchmarks"`
		}{benchmarks}); err != nil {
			return err
		}
		if r.kernelBase != "" {
			return checkKernelBaseline(r.out, r.kernelBase, benchmarks)
		}
		return nil
	}},
	{name: "cachesweep", extended: true, run: func(r *run, pr cluster.Params) error {
		figs, err := cluster.CacheSweep(pr)
		return r.show(err, figs...)
	}},
	{name: "chaos", extended: true, run: func(r *run, pr cluster.Params) error {
		rep, err := cluster.RunChaos(pr, r.chaosN, r.chaosCtrl)
		if err != nil {
			return err
		}
		rep.Fprint(r.out)
		if n := len(rep.Violating()); n > 0 || !rep.DeterminismOK {
			return fmt.Errorf("%d violating cells, determinism ok=%v", n, rep.DeterminismOK)
		}
		return nil
	}},
	{name: "heavytraffic", extended: true, run: func(r *run, pr cluster.Params) error {
		sizes, err := parseSizes(r.trafficSizes)
		if err != nil {
			return err
		}
		cells, claims, err := cluster.HeavyTrafficSweep(pr, sizes)
		return r.record(err, "traffic", "heavytraffic: open-loop fleet sweep (aggregate offered load held constant)", claims, cells)
	}},
	{name: "storagesweep", extended: true, run: func(r *run, pr cluster.Params) error {
		cells, heavy, claims, err := cluster.StorageSweep(pr, r.heavyClients)
		return r.record(err, "storage", "storagesweep: durable engine under memory pressure", claims, cells, []cluster.TrafficCell{heavy})
	}},
	{name: "batchsweep", extended: true, run: func(r *run, pr cluster.Params) error {
		cells, heavy, claims, err := cluster.BatchSweep(pr, r.heavyClients)
		return r.record(err, "batch", "batchsweep: end-to-end batching", claims, cells, []cluster.TrafficCell{heavy})
	}},
	{name: "ctrlsweep", extended: true, run: func(r *run, pr cluster.Params) error {
		cells, claims, err := cluster.CtrlFailoverSweep(pr)
		return r.record(err, "ctrl", "ctrlsweep: controller death + partition-0 replica crash, per arm and crash phase", claims, cells)
	}},
	{name: "readscale", extended: true, run: func(r *run, pr cluster.Params) error {
		cells, claims, err := cluster.ReadScaleSweep(pr)
		return r.record(err, "readscale", "readscale: get scaling vs replication factor (single-partition working set)", claims, cells)
	}},
}

// oneFigure adapts a single-figure runner to a registry row.
func oneFigure(f func(cluster.Params) (*cluster.Figure, error)) func(*run, cluster.Params) error {
	return func(r *run, pr cluster.Params) error {
		fig, err := f(pr)
		return r.show(err, fig)
	}
}

// selected reports whether -experiment exp runs e: by name, by one of
// its parts, or — for the paper's own figures and tables — under "all".
func (e experiment) selected(exp string) bool {
	if exp == e.name || (exp == "all" && !e.extended) {
		return true
	}
	for _, part := range e.parts {
		if exp == part {
			return true
		}
	}
	return false
}

// experimentNames lists every -experiment value in registry order (the
// paper's own experiments first).
func experimentNames() string {
	var names []string
	for _, e := range registry {
		names = append(append(names, e.name), e.parts...)
	}
	return strings.Join(names, " ")
}

// errUnknownExperiment makes main exit 2 (usage) instead of 1.
var errUnknownExperiment = errors.New("unknown experiment")

// runExperiments runs every registry row exp selects, printing each
// one's wall-clock time.
func runExperiments(cfg *config, exp string, out io.Writer) error {
	ran := false
	for _, e := range registry {
		if !e.selected(exp) {
			continue
		}
		ran = true
		t0 := time.Now()
		if err := e.run(&run{config: cfg, exp: exp, name: e.name, out: out}, cfg.pr); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(out, "-- %s: %.2fs wall\n\n", e.name, time.Since(t0).Seconds())
	}
	if !ran {
		return fmt.Errorf("%w %q (want one of: all %s)", errUnknownExperiment, exp, experimentNames())
	}
	return nil
}

// show prints the figures -experiment asked for: all of them under
// "all" or the experiment's own name, just the matching one when a part
// (fig6, tab-switch) was named. It passes err through so registry rows
// stay one statement.
func (r *run) show(err error, figs ...*cluster.Figure) error {
	if err != nil {
		return err
	}
	for _, f := range figs {
		if r.exp == "all" || r.exp == r.name || r.exp == f.ID {
			f.Fprint(r.out)
		}
	}
	return nil
}

// table prints rows — a slice of flat structs — as an aligned table with
// one column per field, headed by the field's json tag.
func (r *run) table(title string, rows any) {
	if title != "" {
		fmt.Fprintln(r.out, title)
	}
	v := reflect.ValueOf(rows)
	if v.Len() == 0 {
		return
	}
	tw := tabwriter.NewWriter(r.out, 0, 0, 2, ' ', 0)
	t := v.Index(0).Type()
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		fmt.Fprintf(tw, "%s\t", name)
	}
	fmt.Fprintln(tw)
	for ri := 0; ri < v.Len(); ri++ {
		for i := 0; i < t.NumField(); i++ {
			if f := v.Index(ri).Field(i); f.Kind() == reflect.Float64 {
				fmt.Fprintf(tw, "%.6g\t", f.Float())
			} else {
				fmt.Fprintf(tw, "%v\t", f.Interface())
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// sweepRecord is a sweep's BENCH_<name>.json body after the envelope:
// the run's size, the hash of its cells and the claims they back.
type sweepRecord struct {
	Ops    int             `json:"ops"`
	Hash   string          `json:"hash"`
	Claims []cluster.Claim `json:"claims"`
}

// record is the one path from a sweep to its BENCH file. It prints each
// table of cells (the first under title) and the claims, and writes the
// record: Hash is FNV-1a 64 over the tables' JSON in order, so every
// value a cell carries moves it. It passes err through so registry rows
// stay one statement.
func (r *run) record(err error, name, title string, claims []cluster.Claim, tables ...any) error {
	if err != nil {
		return err
	}
	h := fnv.New64a()
	for _, rows := range tables {
		r.table(title, rows)
		title = ""
		data, err := json.Marshal(rows)
		if err != nil {
			return err
		}
		h.Write(data)
	}
	for _, c := range claims {
		fmt.Fprintln(r.out, c)
	}
	return r.write(name, sweepRecord{r.pr.Ops, fmt.Sprintf("%016x", h.Sum64()), claims})
}

// benchEnv records where a measurement was taken; a host-time number is
// meaningless without the machine next to it.
type benchEnv struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// write is the one JSON envelope: BENCH_<name>.json under -out-dir holds
// {env, seed, ...report's own fields}. An empty -out-dir writes nothing.
func (r *run) write(name string, report any) error {
	if r.outDir == "" {
		return nil
	}
	head, err := json.Marshal(struct {
		Env  benchEnv `json:"env"`
		Seed int64    `json:"seed"`
	}{benchEnv{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0)}, r.pr.Seed})
	if err != nil {
		return err
	}
	body, err := json.Marshal(report)
	if err != nil {
		return err
	}
	if len(body) < 3 || body[0] != '{' {
		return fmt.Errorf("report %s is not a non-empty JSON object", name)
	}
	// Splice the report's fields in after the envelope's.
	var buf bytes.Buffer
	joined := append(append(head[:len(head)-1], ','), body[1:]...)
	if err := json.Indent(&buf, joined, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	path := filepath.Join(r.outDir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(r.out, "wrote %s\n", path)
	return nil
}

func main() {
	var cfg config
	exp := flag.String("experiment", "all", "which experiment: all, or one of: "+experimentNames())
	flag.IntVar(&cfg.pr.Ops, "ops", 1000, "operations per measurement point (paper: 1000)")
	flag.Int64Var(&cfg.pr.Seed, "seed", 42, "simulation seed")
	flag.BoolVar(&cfg.pr.Seq, "seq", false, "run grid cells sequentially instead of on all cores (same results)")
	flag.IntVar(&cfg.ycsbOps, "ycsb-ops", 2000, "YCSB operations per client (paper: 20000)")
	flag.IntVar(&cfg.clients, "clients", 10, "YCSB client count (paper: 10)")
	flag.IntVar(&cfg.chaosN, "chaos-schedules", 50, "fault schedules per system for -experiment chaos")
	flag.Float64Var(&cfg.chaosCtrl, "chaos-ctrl", 1, "controller-fault weight multiplier for the ctrlchain chaos cell (1 = default mix)")
	flag.IntVar(&cfg.heavyClients, "heavy-clients", 100_000, "virtual-client fleet size for the storagesweep and batchsweep heavytraffic arms")
	flag.StringVar(&cfg.trafficSizes, "traffic-sizes", "", "comma-separated virtual-client fleet sizes for -experiment heavytraffic (default 10000,100000,1000000)")
	flag.StringVar(&cfg.kernelBase, "kernel-baseline", "", "check kernel benchmarks against this JSON baseline; exit non-zero when a gated row regressed >2x or is missing on either side")
	flag.StringVar(&cfg.outDir, "out-dir", ".", "directory for the BENCH_<name>.json reports (empty: write nothing)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the run here (view with: go tool pprof -top <file>)")
	memProf := flag.String("memprofile", "", "write a heap profile at exit here")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err == nil {
		err = runExperiments(&cfg, *exp, os.Stdout)
		// Flush the profiles before any exit path so a failing sweep still
		// leaves a usable profile.
		stopProfiles()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nicebench:", err)
		if errors.Is(err, errUnknownExperiment) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// startProfiles begins the requested pprof outputs and returns the
// function that flushes them.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
			fmt.Printf("wrote %s\n", cpuPath)
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nicebench:", err)
			return
		}
		fmt.Printf("wrote %s\n", memPath)
	}, nil
}

type kernelResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// kernelGates are the benchmarks whose regression fails a -kernel-baseline
// check; the rest are reported for information only. The 2x time
// threshold absorbs machine-to-machine variance between the committed
// baseline and a CI runner while still catching a lost fast path; the
// allocation count does not depend on the machine, so any object per op
// above the baseline's fails.
var kernelGates = map[string]bool{
	"SleepWake":     true,
	"EventChurn":    true,
	"QueueHandoff":  true,
	"ProcChurn":     true,
	"BroadcastWake": true,
	"GroupCommit":   true,
	"Snapshot":      true,
	"CacheAdmit":    true,
	"WatchdogRearm": true,
	"NearTimer":     true,
	"LookupRepeat":  true,
	"McastPut":      true,
	"StreamMsg":     true,
	"NicePut":       true,
	"BatchedPut":    true,
	"NiceGet":       true,
}

// checkKernelBaseline compares measured kernel benchmarks against a
// committed baseline file and errors when a gated benchmark regressed by
// more than 2x, allocates more objects per op than its baseline, or is
// missing from either side: a gate a rename dropped from the file or from
// kernelBenchmarks must fail, not pass unmeasured.
func checkKernelBaseline(w io.Writer, path string, got []kernelResult) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base struct {
		Benchmarks []kernelResult `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	baseline := make(map[string]kernelResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var failed []string
	measured := make(map[string]bool, len(got))
	fmt.Fprintf(w, "kernel benchmark delta vs %s:\n", path)
	for _, g := range got {
		measured[g.Name] = true
		b, ok := baseline[g.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Fprintf(w, "  %-22s %10.1f ns/op (no baseline)\n", g.Name, g.NsPerOp)
			if kernelGates[g.Name] {
				failed = append(failed, g.Name+" has no baseline")
			}
			continue
		}
		ratio := g.NsPerOp / b.NsPerOp
		gate := " "
		if kernelGates[g.Name] {
			gate = "*"
		}
		fmt.Fprintf(w, "  %s %-20s %10.1f ns/op vs %10.1f baseline (%.2fx), %d allocs/op vs %d\n",
			gate, g.Name, g.NsPerOp, b.NsPerOp, ratio, g.AllocsPerOp, b.AllocsPerOp)
		if kernelGates[g.Name] && ratio > 2 {
			failed = append(failed, fmt.Sprintf("%s regressed %.2fx", g.Name, ratio))
		}
		if kernelGates[g.Name] && g.AllocsPerOp > b.AllocsPerOp {
			failed = append(failed, fmt.Sprintf("%s allocates %d objects per op, baseline %d", g.Name, g.AllocsPerOp, b.AllocsPerOp))
		}
	}
	for name := range kernelGates {
		if !measured[name] {
			failed = append(failed, name+" was not measured")
		}
	}
	if len(failed) > 0 {
		sort.Strings(failed)
		return fmt.Errorf("kernel gate vs %s: %s", path, strings.Join(failed, ", "))
	}
	return nil
}

// parseSizes parses the -traffic-sizes list; empty means the sweep's
// default 10^4..10^6 decades.
func parseSizes(s string) (sizes []int, err error) {
	for _, f := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' }) {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -traffic-sizes entry %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// benchDisk is the disk model under the GroupCommit and Snapshot kernel
// benchmarks: a fixed per-write latency, matching the simulated device's
// write floor.
type benchDisk struct{}

func (benchDisk) ReadDisk(p *sim.Proc, bytes int)  { p.Sleep(60 * time.Microsecond) }
func (benchDisk) WriteDisk(p *sim.Proc, bytes int) { p.Sleep(80 * time.Microsecond) }

// kernelBenchmarks measures the simulation kernel and network substrate
// hot paths via testing.Benchmark, mirroring the package benchmarks in
// internal/sim and internal/netsim so the numbers are trackable without a
// test run.
func kernelBenchmarks() []kernelResult {
	var out []kernelResult
	add := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		out = append(out, kernelResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}

	add("EventChurn", func(b *testing.B) {
		s := sim.New(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.After(time.Microsecond, func() {})
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("SleepWake", func(b *testing.B) {
		s := sim.New(1)
		s.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	add("QueueHandoff", func(b *testing.B) {
		s := sim.New(1)
		q := sim.NewQueue[int](s)
		s.Spawn("consumer", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				if _, ok := q.Pop(p); !ok {
					return
				}
			}
		})
		s.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				q.Push(i)
				p.Sleep(0)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	add("ProcChurn", func(b *testing.B) {
		s := sim.New(1)
		done := 0
		child := func(q *sim.Proc) { done++ }
		s.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				s.Spawn("child", child)
				p.Sleep(time.Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	add("BroadcastWake", func(b *testing.B) {
		const fan = 16
		s := sim.New(1)
		c := sim.NewCond(s)
		for i := 0; i < fan; i++ {
			s.Spawn("waiter", func(p *sim.Proc) {
				for j := 0; j < b.N; j++ {
					c.Wait(p)
				}
			})
		}
		s.Spawn("caster", func(p *sim.Proc) {
			for j := 0; j < b.N; j++ {
				p.Sleep(time.Microsecond)
				c.Broadcast()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	add("GroupCommit", func(b *testing.B) {
		// Host-time cost of the storage engine's group-commit machinery: 8
		// writers commit and Sync concurrently, so every round coalesces
		// followers onto one leader's fsync. Gated against the baseline —
		// the sync path runs once per durable put in every experiment.
		const writers = 8
		s := sim.New(1)
		cfg := storage.DefaultConfig()
		cfg.SnapshotEvery = 0
		cfg.GroupCommit = true
		cfg.MaxSyncDelay = 20 * time.Microsecond
		e := storage.NewEngine(s, cfg, benchDisk{})
		for w := 0; w < writers; w++ {
			w := w
			s.Spawn("writer", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					e.Commit(fmt.Sprintf("k%d", w), i, 64)
					e.Sync(p)
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		s.Shutdown()
	})
	add("Snapshot", func(b *testing.B) {
		// Host-time cost of one checkpoint period on a 10^4-key engine:
		// 10^3 commits to existing keys, then the periodic snapshot that
		// retires them. Gated — the snapshot folds the records it retires,
		// and a return to sorting and copying every key measured ~30x
		// slower.
		const keys, commits = 10_000, 1_000
		const period = time.Millisecond
		s := sim.New(1)
		cfg := storage.DefaultConfig()
		cfg.SnapshotEvery = period
		e := storage.NewEngine(s, cfg, benchDisk{})
		e.Start()
		names := make([]string, keys)
		for i := range names {
			names[i] = fmt.Sprintf("k%d", i)
			e.Commit(names[i], 1, 64)
		}
		// The first snapshot retires the preload, outside the timed region.
		if err := s.RunUntil(period + period/2); err != nil {
			b.Fatal(err)
		}
		s.Spawn("writer", func(p *sim.Proc) {
			next := 0
			for i := 0; i < b.N; i++ {
				for j := 0; j < commits; j++ {
					e.Commit(names[next], 1, 64)
					next = (next + 1) % keys
				}
				p.Sleep(period)
			}
			s.Stop()
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		s.Shutdown()
	})
	add("CacheAdmit", func(b *testing.B) {
		// Host-time cost of one hot-key admission decision against a full
		// 512-entry switch table (internal/switchcache's
		// BenchmarkCacheAdmission/index/C=512): 12 sampled misses per 5
		// decisions over a zipfian key space 8x the table, the victim from
		// the sketch's index, replaced when the candidate is hotter, the
		// sketch halved every 16384 decisions. Gated — the detector runs
		// this on every fetch reply of every cache arm.
		const capacity = 512
		s := switchcache.NewSketch(4, 1024)
		keys := make([]string, 8*capacity)
		for i := range keys {
			keys[i] = fmt.Sprintf("user%d", i)
		}
		resident := make(map[string]bool, capacity)
		for _, k := range keys[len(keys)-capacity:] {
			s.Track(k)
			resident[k] = true
		}
		rng, zipf := rand.New(rand.NewSource(1)), workload.NewZipfian(len(keys))
		stream := make([]int32, 1<<16)
		for i := range stream {
			stream[i] = int32(zipf.Next(rng))
		}
		pos := 0
		decide := func(n int) {
			if n%16384 == 16383 {
				s.Halve()
			}
			var cand string
			for samples := 2 + (n%5)/3; samples > 0; { // 2, 2, 2, 3, 3
				cand = keys[stream[pos]]
				pos = (pos + 1) % len(stream)
				if !resident[cand] { // a resident key hits at the switch
					s.Add(cand)
					samples--
				}
			}
			if victim, cold := s.Coldest(); cold < uint64(s.Estimate(cand)) {
				s.Untrack(victim)
				delete(resident, victim)
				s.Track(cand)
				resident[cand] = true
			}
		}
		for i := 0; i < 4*capacity; i++ {
			decide(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decide(i)
		}
	})
	add("WatchdogRearm", func(b *testing.B) {
		// One 5 ms watchdog pushed back by every packet of a 10 µs train
		// (an ack wait, a retransmission timer) beside 256 unrelated
		// pending timers: Cancel + At2 per packet in one continuous run, so
		// the figure includes whatever a cancelled timer costs the wheel
		// after the call — 500 re-arms fall inside each watchdog period,
		// which an arm-cancel-run loop on an empty wheel never sees.
		s := sim.New(1)
		for i := 0; i < 256; i++ {
			s.After(time.Hour+time.Duration(i)*time.Millisecond, func() {})
		}
		expired := func(_, _ any) { b.Error("watchdog fired inside the train") }
		var watchdog sim.Event
		left := b.N
		var packet func(_, _ any)
		packet = func(_, _ any) {
			watchdog.Cancel()
			if left--; left == 0 {
				s.Stop()
				return
			}
			watchdog = s.At2(s.Now()+5*time.Millisecond, expired, nil, nil)
			s.At2(s.Now()+10*time.Microsecond, packet, nil, nil)
		}
		s.At2(0, packet, nil, nil)
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	add("NearTimer", func(b *testing.B) {
		// 128 packets in flight, each delivered 12 µs after it was sent
		// (one MTU at 1 Gbps) and sent straight on: every event is
		// scheduled behind 127 earlier ones, so none of them takes the
		// front cache — an op is one bucket insert and one bucket pop, the
		// link-delivery pattern EventChurn's lone timer never sees.
		const inflight = 128
		const hopDelay = 12 * time.Microsecond
		s := sim.New(1)
		left := b.N
		var hop func(_, _ any)
		hop = func(_, _ any) {
			if left--; left <= 0 {
				s.Stop()
				return
			}
			s.At2(s.Now()+hopDelay, hop, nil, nil)
		}
		for i := 0; i < inflight; i++ {
			s.At2(hopDelay*time.Duration(i)/inflight, hop, nil, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	add("LookupRepeat", func(b *testing.B) {
		// A flow's packets arrive back to back: 750 consecutive lookups of
		// one header tuple (a 1 MB transfer's chunks) before the next flow,
		// on the 32-node controller rule mix.
		const train = 750
		t := openflow.NewFlowTable()
		for _, r := range openflow.SyntheticRules(32, false) {
			t.Add(r)
		}
		pkts := openflow.SyntheticPackets(32, 1024, false, 7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if t.Lookup(&pkts[i/train%len(pkts)], 2) == nil {
				b.Fatal("table miss: every synthetic packet has a covering rule")
			}
		}
	})
	mcastPut, shutdown := mcastPutBenchmark()
	add("McastPut", mcastPut)
	shutdown()
	streamMsg, shutdown := streamMsgBenchmark()
	add("StreamMsg", streamMsg)
	shutdown()
	nicePut, shutdown := nicePutBenchmark(false)
	add("NicePut", nicePut)
	shutdown()
	batchedPut, shutdown := nicePutBenchmark(true)
	add("BatchedPut", batchedPut)
	shutdown()
	niceGet, shutdown := niceGetBenchmark()
	add("NiceGet", niceGet)
	shutdown()
	add("NetHostToHost", func(b *testing.B) {
		s := sim.New(1)
		n := netsim.NewNetwork(s)
		a := n.NewHost("a", netsim.MustParseIP("10.0.0.1"))
		c := n.NewHost("c", netsim.MustParseIP("10.0.0.2"))
		n.Connect(a.Port(), c.Port(), netsim.Gbps(10, time.Microsecond))
		c.SetHandler(func(pkt *netsim.Packet) { n.RecyclePacket(pkt) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pkt := n.NewPacket()
			pkt.DstIP = c.IP()
			pkt.DstMAC = c.MAC()
			pkt.Proto = netsim.ProtoUDP
			pkt.Size = 1400
			a.Send(pkt)
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return out
}

// benchStar cables the given number of hosts, each with a transport stack
// and built as in NetHostToHost, to one switch whose static pipeline fans
// group out to every host but the first and forwards unicast by address,
// in pooled copies.
func benchStar(hosts int, group netsim.IP) (*sim.Simulator, []*transport.Stack) {
	s := sim.New(1)
	n := netsim.NewNetwork(s)
	sw := n.NewSwitch("sw", hosts, time.Microsecond)
	var stacks []*transport.Stack
	for i := 0; i < hosts; i++ {
		h := n.NewHost(fmt.Sprintf("h%d", i), netsim.IPv4(10, 0, 0, byte(i+1)))
		n.Connect(h.Port(), sw.Port(i), netsim.Gbps(10, time.Microsecond))
		stacks = append(stacks, transport.NewStack(h))
	}
	all := n.Hosts()
	sw.SetPipeline(netsim.PipelineFunc(func(sw *netsim.Switch, pkt *netsim.Packet, in int) {
		if pkt.DstIP == group {
			for o := 1; o < len(all); o++ {
				c := n.ClonePacket(pkt)
				c.DstMAC = netsim.BroadcastMAC
				sw.Output(o, c)
			}
			n.RecyclePacket(pkt)
			return
		}
		for o, h := range all {
			if h.IP() == pkt.DstIP {
				pkt.DstMAC = h.MAC()
				sw.Output(o, pkt)
				return
			}
		}
		sw.Drop(pkt)
	}))
	return s, stacks
}

// mcastPutBenchmark times one 1 KB reliable multicast to three receivers
// on a four-host benchStar: a put's transfer, chunk, DONEs and all. The
// fixture outlives the benchmark's rounds: it is warmed once past the
// receivers' 8192-transfer finished rings, so neither a ring nor a
// transfer table grows in a timed send and the count per op is exact — the
// send state alone. shutdown ends the fixture's procs.
func mcastPutBenchmark() (bench func(b *testing.B), shutdown func()) {
	group := netsim.MustParseIP("239.1.1.1")
	s, stacks := benchStar(4, group)
	for _, st := range stacks[1:] {
		st.Host().JoinMulticast(group)
		rx := st.MustBindMulticast(cluster.DataPort)
		s.Spawn("rx", func(p *sim.Proc) {
			for {
				if _, ok := rx.Recv(p); !ok {
					return
				}
			}
		})
	}
	start := sim.NewQueue[struct{}](s)
	var failure error
	s.Spawn("tx", func(p *sim.Proc) {
		for {
			if _, ok := start.Pop(p); !ok {
				return
			}
			if _, err := stacks[0].SendMulticast(p, transport.McastOpts{
				To: group, ToPort: cluster.DataPort, Data: "v", Size: 1024, Receivers: 3,
			}); err != nil && failure == nil {
				failure = err
			}
		}
	})
	put := func() {
		start.Push(struct{}{})
		if err := s.Run(); err != nil && failure == nil {
			failure = err
		}
	}
	for i := 0; i < 10_000; i++ {
		put()
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			put()
		}
		if failure != nil {
			b.Fatal(failure)
		}
	}, s.Shutdown
}

// streamMsgBenchmark times one 64 KB message on an established stream
// between two hosts of a benchStar: 47 segments, their acks and the
// delivery. The stream is dialled and warmed once, so the count per op is
// a message's own: none, since its descriptors live in the connection.
// shutdown ends the fixture's procs.
func streamMsgBenchmark() (bench func(b *testing.B), shutdown func()) {
	s, stacks := benchStar(2, 0)
	ln := stacks[1].MustListen(cluster.DataPort)
	s.Spawn("rx", func(p *sim.Proc) {
		c, ok := ln.Accept(p)
		for ok {
			_, ok = c.Recv(p)
		}
	})
	start := sim.NewQueue[struct{}](s)
	var failure error
	s.Spawn("tx", func(p *sim.Proc) {
		c, err := stacks[0].Dial(p, stacks[1].IP(), cluster.DataPort)
		if err != nil {
			failure = err
			return
		}
		for {
			if _, ok := start.Pop(p); !ok {
				return
			}
			if err := c.Send(p, "m", 64<<10); err != nil && failure == nil {
				failure = err
			}
		}
	})
	send := func() {
		start.Push(struct{}{})
		if err := s.Run(); err != nil && failure == nil {
			failure = err
		}
	}
	for i := 0; i < 1000; i++ {
		send()
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			send()
		}
		if failure != nil {
			b.Fatal(failure)
		}
	}, s.Shutdown
}

// nicePutBenchmark times one 1 KB put by one client on a 3-node, R=3
// cluster.NewNICE deployment: the prepare multicast, both NICE-2PC phases
// on every replica and the reply. Heartbeats are an hour apart, so a
// round is the put and what it leaves behind. The fixture is warmed past
// the nodes' committedCap-entry dedup rings and the receivers'
// finished-transfer rings, with every free list full, so the count per
// op is the put path's exact budget. With batched, the put takes the
// durable-write workload's path: the durable engine with group commit,
// the prepare combiner and the commit accumulator, each gathering 100 µs;
// a lone client's put leads every gather and batch it reaches, so the row
// counts their pools. shutdown ends the fixture's procs.
func nicePutBenchmark(batched bool) (bench func(b *testing.B), shutdown func()) {
	opts := cluster.DefaultOptions()
	opts.Nodes, opts.R = 3, 3
	opts.Heartbeat = time.Hour
	if batched {
		opts.DurableStore, opts.GroupCommit = true, true
		opts.MaxSyncDelay = 100 * time.Microsecond
		opts.PutBatchWindow = 100 * time.Microsecond
	}
	d := cluster.NewNICE(opts)
	failure := d.Settle()
	start := sim.NewQueue[struct{}](d.Sim)
	d.Sim.Spawn("client", func(p *sim.Proc) {
		for {
			if _, ok := start.Pop(p); !ok {
				return
			}
			if _, err := d.Clients[0].Put(p, "k", "v", 1024); err != nil && failure == nil {
				failure = err
			}
			d.Sim.Stop()
		}
	})
	put := func() {
		start.Push(struct{}{})
		if err := d.Sim.Run(); err != nil && failure == nil {
			failure = err
		}
	}
	for i := 0; i < 10_000; i++ {
		put()
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			put()
		}
		if failure != nil {
			b.Fatal(failure)
		}
	}, d.Close
}

// niceGetBenchmark times the serving side of two gets on a 3-node, R=3
// cluster.NewNICE deployment with the in-switch cache: one the switch
// answers from its table, one it mirrors as a miss and a storage node
// serves from memory. The requester is a bare socket pair that reuses its
// two requests and frees their reply rooms, as the traffic engine does,
// so the count per op is the serving side's alone. The hot key is
// installed directly into a one-entry table and the detector's threshold
// is out of reach, so the missed key is sampled but never fetched;
// heartbeats are an hour apart. shutdown ends the fixture's procs.
func niceGetBenchmark() (bench func(b *testing.B), shutdown func()) {
	const replyPort = 8100
	opts := cluster.DefaultOptions()
	opts.Nodes, opts.R = 3, 3
	opts.Heartbeat = time.Hour
	opts.Cache = true
	opts.CacheCapacity = 1
	opts.CacheHotThreshold = math.MaxUint32
	d := cluster.NewNICE(opts)
	failure := d.Settle()
	st := d.CStacks[0]
	reqs := []*core.GetRequest{{Key: "hot", ReqID: 1}, {Key: "cold", ReqID: 2}}
	d.Sim.Spawn("preload", func(p *sim.Proc) {
		for _, r := range reqs {
			res, err := d.Clients[0].Put(p, r.Key, "v", 1024)
			if err != nil && failure == nil {
				failure = err
			}
			if r.Key == "hot" {
				d.Cache.InstallAs(0, r.Key, "v", 1024, res.Version)
			}
			r.Client, r.ClientPort = st.IP(), replyPort
		}
		p.Sleep(time.Millisecond) // the install rides the control channel
		d.Sim.Stop()
	})
	if err := d.Sim.Run(); err != nil && failure == nil {
		failure = err
	}
	pending := 0
	answered := func(data any) {
		rep, ok := data.(*core.GetReply)
		if !ok || rep.ReqID == 0 || rep.ReqID > uint64(len(reqs)) || !rep.Found {
			if failure == nil {
				failure = fmt.Errorf("NiceGet: unexpected reply %#v", data)
			}
			return
		}
		reqs[rep.ReqID-1].FreeReply(rep)
		if pending--; pending == 0 {
			d.Sim.Stop()
		}
	}
	udp := st.MustBindUDP(replyPort)
	d.Sim.Spawn("udp-replies", func(p *sim.Proc) {
		for {
			dg, ok := udp.Recv(p)
			if !ok {
				return
			}
			answered(dg.Data)
		}
	})
	ln := st.MustListen(replyPort)
	d.Sim.Spawn("stream-replies", func(p *sim.Proc) {
		c, ok := ln.Accept(p)
		for ok {
			var m transport.Message
			if m, ok = c.Recv(p); ok {
				answered(m.Data)
			}
		}
	})
	get := func() {
		pending = len(reqs)
		for _, r := range reqs {
			udp.SendTo(d.Unicast.AddrOfKey(r.Key), cluster.DataPort, r, core.GetReqSize)
		}
		if err := d.Sim.Run(); err != nil && failure == nil {
			failure = err
		}
	}
	for i := 0; i < 10_000; i++ {
		get()
	}
	if hits := d.Cache.Stats().Hits; failure == nil && hits != 10_000 {
		failure = fmt.Errorf("NiceGet: %d of 10000 hot gets hit the switch cache", hits)
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get()
		}
		if failure != nil {
			b.Fatal(failure)
		}
	}, d.Close
}
