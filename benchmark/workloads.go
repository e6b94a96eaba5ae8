package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// spec is one workload at scale 1, which is what --seconds 10 runs. The
// sizes are fixed op counts, never a wall-clock budget: virtual-time
// metrics must be a pure function of (workload, seed, seconds), so
// --seconds only scales the counts (see scaled). They were calibrated so
// the measured phase takes about ten seconds on a 2-core shared box.
type spec struct {
	name string
	why  string

	// Closed loop: clients procs, each issuing opsPerClient operations
	// one at a time, putPct of every 100 being puts.
	clients      int
	opsPerClient int
	putPct       int
	valueSize    int
	keys         int  // preloaded keyspace
	zipf         bool // zipfian theta=0.99 key choice (else uniform)

	// Open loop (open == true): vclients virtual clients offer each of
	// rates for duration of virtual time; keys and valueSize size the
	// preloaded records, clients the preloaders.
	open     bool
	vclients int
	rates    []float64
	duration sim.Time

	options func() cluster.Options
}

// The four workloads. Names are fixed: later issues cite them.
var specs = []spec{
	{
		name:    "small-mixed",
		why:     "paper's default path: 2PC-over-multicast 1KB puts beside LB-routed gets; core and transport do the work, storage and switchcache none",
		clients: 12, opsPerClient: 20000, putPct: 50, valueSize: 1024, keys: 10000, zipf: true,
		options: func() cluster.Options {
			o := cluster.DefaultOptions()
			o.LoadBalance = true
			return o
		},
	},
	{
		name:    "large-object",
		why:     "paper's headline: 1MB multicast puts, ~1000 switch packets per op, so netsim links set virtual latency and per-packet sim/netsim/transport cost sets host time",
		clients: 4, opsPerClient: 1500, putPct: 80, valueSize: 1 << 20, keys: 64,
		options: cluster.DefaultOptions,
	},
	{
		name: "open-read-skew",
		why:  "open-loop zipfian gets from 20000 virtual clients on leaf-spine with the switch cache 8x smaller than the working set; the put path, multicast and WAL are bypassed",
		open: true, vclients: 20000, rates: openRates, duration: 2 * time.Second,
		// Three preloaders, one per load-balancing division: a fourth would
		// sit at client-space offset 2, the synthesized source address of one
		// virtual client, and the cache-hit replies to that address would be
		// routed to the preloader and counted as timeouts.
		clients: 3, valueSize: 512, keys: 4096,
		options: func() cluster.Options {
			o := cluster.DefaultOptions()
			o.Nodes = 6
			o.CPUPerOp = 10 * time.Microsecond
			o.TrafficGateways = true
			o.LoadBalance = true
			o.Cache = true
			o.CacheCapacity = 512
			return o
		},
	},
	{
		name:    "durable-write",
		why:     "small-mixed's put path on the durable engine with group commit and a memory tier 5x smaller than the replicated working set: time is in WAL, fsync, LRU and disk reads",
		clients: 16, opsPerClient: 8000, putPct: 80, valueSize: 512, keys: 20000, zipf: true,
		options: func() cluster.Options {
			o := cluster.DefaultOptions()
			o.Nodes = 6
			o.DurableStore = true
			o.GroupCommit = true
			o.MaxSyncDelay = 100 * time.Microsecond
			o.PutBatchWindow = 100 * time.Microsecond
			o.CoalesceGets = true
			o.StoreMemoryBudget = 1 << 20
			return o
		},
	},
}

// Open-loop rates and the service-level objective max_rate_under_slo_rps
// is judged by. headlineRate is the rate get_p50_us/get_p99_us report.
var openRates = []float64{60000, 90000, 120000, 150000}

const (
	headlineRate   = 90000
	openLeaves     = 4
	openTick       = 50 * time.Microsecond
	sloP99         = 1000 * time.Microsecond
	sloTimeoutFrac = 0.001
	sloMinAchieved = 0.98
)

func findSpec(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled sizes the workload for a measured phase of about seconds of host
// time: op counts and open-loop durations scale linearly from the
// ten-second sizes; keyspaces, clients and rates do not.
func (sp spec) scaled(seconds float64) spec {
	f := seconds / 10
	sp.opsPerClient = int(math.Max(1, math.Round(float64(sp.opsPerClient)*f)))
	sp.duration = sim.Time(float64(sp.duration) * f)
	return sp
}

// smoke shrinks a workload about twentyfold, keyspace and fleet included,
// so all four run in a few seconds for tests and -smoke.
func (sp spec) smoke() spec {
	sp = sp.scaled(0.5)
	sp.keys = max(sp.keys/8, 32)
	sp.vclients /= 4
	return sp
}

// op is one generated client operation.
type op struct {
	put bool
	key int32
}

// inputs are everything a closed-loop run feeds the system, generated
// from the seed alone: the same seed gives the same inputs.
type inputs struct {
	keys      []string
	perClient [][]op
}

// renderKeys pre-renders the keyspace in the traffic engine's own naming,
// so the open-loop preload and the engine agree on key strings.
func renderKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%d", i)
	}
	return keys
}

// makeInputs deals each client a shuffled deck holding exactly putPct
// percent puts — a fixed mix, so link_bytes_per_op does not carry the
// binomial noise of a coin flip per op — and draws keys from the chooser.
func makeInputs(sp spec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	var chooser workload.KeyChooser = workload.Uniform{N: sp.keys}
	if sp.zipf {
		chooser = workload.NewZipfian(sp.keys)
	}
	in := &inputs{keys: renderKeys(sp.keys), perClient: make([][]op, sp.clients)}
	for c := range in.perClient {
		ops := make([]op, sp.opsPerClient)
		puts := (sp.opsPerClient*sp.putPct + 50) / 100
		for i := range ops {
			ops[i] = op{put: i < puts, key: int32(chooser.Next(rng))}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i].put, ops[j].put = ops[j].put, ops[i].put })
		in.perClient[c] = ops
	}
	return in
}
