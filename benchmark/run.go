package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/checker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// setupReps is how many times a closed-loop run builds, settles and
// preloads its deployment; setup_s is the median, the last instance is
// measured. (An open-loop run sets up once per offered rate.)
const setupReps = 3

// hostSegments is how many equal slices of a closed-loop measured phase
// are timed separately; host_us_per_op is their median, so a neighbour's
// burst on a shared box moves a slice, not the metric. (An open-loop run
// takes the median over its offered rates instead.)
const hostSegments = 20

// recorder collects what the measured system returns: the op history the
// correctness gate checks, latencies, and host-clock marks.
type recorder struct {
	hist     checker.History
	lat      [2][]sim.Time // measured-phase latencies, by checker.OpKind
	preload  []sim.Time    // preload put latencies
	measured bool          // false while preloading

	attempted, failed, notFound, retries int

	tr *tracer // set for the measured phase of a traced run

	markEvery int // completed measured ops per host-clock mark
	marks     []time.Time
}

// do issues one operation through the public client API and records it.
func (r *recorder) do(p *sim.Proc, cl *core.Client, c int, put bool, key string, size int) {
	kind := checker.OpGet
	if put {
		kind = checker.OpPut
	}
	start := p.Now()
	if r.tr != nil {
		r.tr.begin(c, kind, start)
	}
	var res core.OpResult
	var err error
	if put {
		res, err = cl.Put(p, key, "v", size)
	} else {
		res, err = cl.Get(p, key)
	}
	end := p.Now()
	if r.tr != nil {
		r.tr.end(c, end, res.Latency, err == nil)
	}
	r.hist.Record(checker.Event{
		Client: c, Kind: kind, Key: key, Invoke: start, Return: end,
		OK: err == nil, Found: res.Found, Ver: res.Version,
	})
	if !r.measured {
		if err != nil {
			r.failed++
		}
		r.preload = append(r.preload, end-start)
		return
	}
	r.attempted++
	r.retries += res.Retries
	switch {
	case err != nil:
		r.failed++
	case !put && !res.Found:
		r.notFound++ // every measured key was preloaded
	default:
		r.lat[kind] = append(r.lat[kind], end-start)
	}
	if done := r.attempted; r.markEvery > 0 && done%r.markEvery == 0 {
		r.marks = append(r.marks, time.Now())
	}
}

// drive runs body once per client as concurrent sim procs and returns
// when all have finished. Virtual clients are sim procs, not OS threads:
// the simulator runs one at a time.
func drive(d *cluster.NICE, n int, body func(p *sim.Proc, c int)) error {
	g := sim.NewGroup(d.Sim)
	for c := 0; c < n; c++ {
		g.Add(1)
		d.Sim.Spawn(fmt.Sprintf("bench-client%d", c), func(p *sim.Proc) {
			defer g.Done()
			body(p, c)
		})
	}
	d.Sim.Spawn("bench-driver", func(p *sim.Proc) {
		g.Wait(p)
		d.Sim.Stop()
	})
	return d.Sim.Run()
}

// deploy builds the workload's deployment (and, open loop, the traffic
// engine offering rate) through the cluster package's constructors.
func deploy(sp spec, seed int64, rate float64) (*cluster.NICE, *cluster.TrafficEngine) {
	opts := sp.options()
	opts.Seed = seed
	opts.Clients = sp.clients
	if !sp.open {
		return cluster.NewNICE(opts), nil
	}
	d := cluster.NewNICELeafSpine(opts, openLeaves)
	return d, cluster.NewTrafficEngine(d, cluster.TrafficOptions{
		Clients: sp.vclients, Rate: rate, Duration: sp.duration,
		Records: sp.keys, ValueSize: sp.valueSize, Tick: openTick, Seed: seed,
	})
}

// setup builds, settles and preloads one deployment and reports the host
// time that took.
func setup(sp spec, seed int64, rate float64, keys []string, rec *recorder) (*cluster.NICE, *cluster.TrafficEngine, float64, error) {
	t0 := time.Now()
	d, eng := deploy(sp, seed, rate)
	if err := d.Settle(); err != nil {
		return nil, nil, 0, fmt.Errorf("settle: %w", err)
	}
	rec.measured = false
	failedBefore := rec.failed
	err := drive(d, sp.clients, func(p *sim.Proc, c int) {
		for i := c; i < len(keys); i += sp.clients {
			rec.do(p, d.Clients[c], c, true, keys[i], sp.valueSize)
		}
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("preload: %w", err)
	}
	if rec.failed != failedBefore {
		return nil, nil, 0, fmt.Errorf("preload: %d puts failed", rec.failed-failedBefore)
	}
	return d, eng, time.Since(t0).Seconds(), nil
}

// rateResult is one open-loop offered rate's outcome.
type rateResult struct {
	Rate        float64 `json:"rate_rps"`
	Issued      int64   `json:"issued"`
	Completed   int64   `json:"completed"`
	TimedOut    int64   `json:"timed_out"`
	NotFound    int64   `json:"not_found"`
	Achieved    float64 `json:"achieved_rps"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
	TimeoutFrac float64 `json:"timeout_frac"`
	MeetsSLO    bool    `json:"meets_slo"`
}

// raw is everything one run measured, before it is reduced to metrics.
type raw struct {
	sp   spec
	seed int64

	ops               int // completed in the measured phase
	attempted, failed int
	notFound, retries int
	lat               [2][]sim.Time
	preloadPut        []sim.Time
	rates             []rateResult // open loop only

	phase                  // the measured phase (open loop: summed over rates)
	segUsPerOp   []float64 // host us/op of each timed slice (open loop: each rate) of it
	basisUsPerOp float64   // see report.basisUsPerOp
	setupSec     []float64

	histHash   uint64
	violations []checker.Violation
	spans      *spanTable
}

// runOnce sets the workload up and measures it. A traced run taps the
// network and CPU-profiles the measured phase; an open-loop traced run
// covers the headline rate only.
func runOnce(sp spec, seed int64, traced bool) (*raw, error) {
	r := &raw{sp: sp, seed: seed}
	var err error
	if sp.open {
		err = r.runOpen(traced)
	} else {
		err = r.runClosed(traced)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
	}
	return r, nil
}

func (r *raw) runClosed(traced bool) error {
	sp := r.sp
	in := makeInputs(sp, r.seed)
	total := sp.clients * sp.opsPerClient
	var d *cluster.NICE
	var rec *recorder
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.Close()
		}
		rec = &recorder{}
		rec.hist.Events = make([]checker.Event, 0, sp.keys+total)
		rec.preload = make([]sim.Time, 0, sp.keys)
		var sec float64
		var err error
		if d, _, sec, err = setup(sp, r.seed, 0, in.keys, rec); err != nil {
			return err
		}
		r.setupSec = append(r.setupSec, sec)
	}
	defer d.Close()
	for k := range rec.lat {
		rec.lat[k] = make([]sim.Time, 0, total)
	}
	rec.markEvery = max(total/hostSegments, 1)
	rec.marks = make([]time.Time, 0, hostSegments+2)
	rec.measured = true
	if traced {
		rec.tr = newTracer(d, false)
		defer d.Net.AddTap(rec.tr.tap)()
	}

	m, err := startMeasure(d, traced)
	if err != nil {
		return err
	}
	rec.marks = append(rec.marks, m.t0)
	err = drive(d, sp.clients, func(p *sim.Proc, c int) {
		for _, o := range in.perClient[c] {
			rec.do(p, d.Clients[c], c, o.put, in.keys[o.key], sp.valueSize)
		}
	})
	if err != nil {
		return err
	}
	r.phase = m.stop(d)

	r.attempted, r.failed = rec.attempted, rec.failed
	r.notFound, r.retries = rec.notFound, rec.retries
	r.ops = rec.attempted - rec.failed
	r.basisUsPerOp = ratio(r.hostSec*1e6, float64(r.ops))
	r.lat = rec.lat
	r.preloadPut = rec.preload
	for i := 1; i < len(rec.marks); i++ {
		us := rec.marks[i].Sub(rec.marks[i-1]).Seconds() * 1e6
		r.segUsPerOp = append(r.segUsPerOp, us/float64(rec.markEvery))
	}
	r.histHash = rec.hist.Hash()
	r.violations = rec.hist.Check()
	if rec.tr != nil {
		r.spans = rec.tr.table()
	}
	return nil
}

func (r *raw) runOpen(traced bool) error {
	keys := renderKeys(r.sp.keys)
	for _, rate := range r.sp.rates {
		if traced && rate != headlineRate {
			continue // the traced run covers the headline rate only
		}
		if err := r.runRate(rate, keys, traced); err != nil {
			return err
		}
	}
	return nil
}

// runRate offers one rate to a fresh deployment for the workload's
// duration and adds the outcome to the run.
func (r *raw) runRate(rate float64, keys []string, traced bool) error {
	sp := r.sp
	rec := &recorder{}
	d, eng, sec, err := setup(sp, r.seed, rate, keys, rec)
	if err != nil {
		return err
	}
	defer d.Close()
	r.setupSec = append(r.setupSec, sec)
	var tr *tracer
	if traced {
		tr = newTracer(d, true)
		defer d.Net.AddTap(tr.tap)()
	}

	m, err := startMeasure(d, traced)
	if err != nil {
		return err
	}
	var res cluster.TrafficResult
	d.Sim.Spawn("bench-driver", func(p *sim.Proc) {
		res = eng.Run(p)
		d.Sim.Stop()
	})
	if err := d.Sim.Run(); err != nil {
		return err
	}
	ph := m.stop(d)
	// The issue window is the phase; the drain after it carries no
	// arrivals and would dilute every per-second figure.
	ph.vElapsed, ph.counts.elapsed = sp.duration, sp.duration

	rr := rateResult{
		Rate: rate, Issued: res.Issued, Completed: res.Completed,
		TimedOut: res.TimedOut, NotFound: res.NotFound, Achieved: res.Achieved,
		P50Micros: micros(res.P50), P99Micros: micros(res.P99),
		TimeoutFrac: ratio(float64(res.TimedOut), float64(res.Issued)),
	}
	rr.MeetsSLO = meetsSLO(rr)
	r.rates = append(r.rates, rr)

	r.ops += int(res.Completed)
	r.attempted += int(res.Issued)
	r.failed += int(res.TimedOut)
	r.notFound += int(res.NotFound)
	r.phase.add(ph)
	usPerOp := ratio(ph.hostSec*1e6, float64(res.Completed))
	r.segUsPerOp = append(r.segUsPerOp, usPerOp)
	if rate != headlineRate {
		return nil
	}
	r.preloadPut = rec.preload
	r.histHash = rec.hist.Hash()
	r.violations = rec.hist.Check()
	r.counts, r.profile = ph.counts, ph.profile
	r.basisUsPerOp = usPerOp
	if tr != nil {
		r.spans = tr.table()
		return tr.matches(res)
	}
	return nil
}

// phase is what a measured phase cost on both clocks.
type phase struct {
	vElapsed   sim.Time // virtual time covered
	linkBytes  int64    // Network.TotalLinkBytes delta
	hostSec    float64  // wall clock
	allocBytes uint64   // MemStats.TotalAlloc delta
	counts     counts   // per-layer counter deltas
	profile    []byte   // CPU profile of the phase (traced runs)
}

func (a *phase) add(b phase) {
	a.vElapsed += b.vElapsed
	a.linkBytes += b.linkBytes
	a.hostSec += b.hostSec
	a.allocBytes += b.allocBytes
}

// meter brackets a measured phase.
type meter struct {
	t0     time.Time
	v0     sim.Time
	link0  int64
	alloc0 uint64
	before counts
	prof   *bytes.Buffer
}

func startMeasure(d *cluster.NICE, profile bool) (*meter, error) {
	m := &meter{v0: d.Sim.Now(), link0: d.Net.TotalLinkBytes(), before: snapshot(d)}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0 = ms.TotalAlloc
	if profile {
		m.prof = &bytes.Buffer{}
		if err := pprof.StartCPUProfile(m.prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	m.t0 = time.Now()
	return m, nil
}

func (m *meter) stop(d *cluster.NICE) phase {
	ph := phase{hostSec: time.Since(m.t0).Seconds()}
	if m.prof != nil {
		pprof.StopCPUProfile()
		ph.profile = m.prof.Bytes()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.allocBytes = ms.TotalAlloc - m.alloc0
	ph.vElapsed = d.Sim.Now() - m.v0
	ph.linkBytes = d.Net.TotalLinkBytes() - m.link0
	ph.counts = snapshot(d).since(m.before, ph.vElapsed)
	return ph
}

func micros(t sim.Time) float64 { return float64(t) / 1e3 }

// tailPercentile is the highest of p99, p95, p90 that has at least ten
// samples beyond it, falling back to the median: a tail read from fewer
// samples is noise, not a percentile.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1 // metrics.Histogram's rule
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func sortedMicros(ts []sim.Time) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = micros(t)
	}
	sort.Float64s(out)
	return out
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meetsSLO judges one offered rate: the tail within the limit, almost no
// timeouts, and completions keeping up with arrivals (no growing backlog).
func meetsSLO(r rateResult) bool {
	return r.Issued > 0 &&
		r.P99Micros <= micros(sloP99) &&
		r.TimeoutFrac <= sloTimeoutFrac &&
		r.Achieved >= sloMinAchieved*r.Rate
}

// maxRateUnderSLO is the highest offered rate that met the SLO, 0 if none.
func maxRateUnderSLO(rates []rateResult) float64 {
	best := 0.0
	for _, r := range rates {
		if r.MeetsSLO && r.Rate > best {
			best = r.Rate
		}
	}
	return best
}
