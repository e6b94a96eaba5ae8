package cluster

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/noob"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/transport"
)

// This file is the one experiment harness every figure, sweep and chaos
// cell runs on (DESIGN.md §7.1). The paper's §6 is one experiment shape
// repeated — the same closed-loop put/get workload with a different
// system on one axis — so the shape lives here once:
//
//   - resolveArm turns a system name ("NICEKV+LB+durable", "NOOB+2PC")
//     into deployment options through the armFeatures table;
//   - bench is the deployment-neutral face of a NICE or NOOB cluster
//     (clients behind one put/get interface), and withBench owns its
//     lifecycle: build, settle, run, always close;
//   - RunClients is the closed-loop phase driver: spawn one proc per
//     client, join them all, stop the simulator, first error wins;
//   - grid runs a typed cell function over a row-major axis product on
//     the RunCells pool;
//   - a sweep backs its sentences with Claims, each a value and its band.
//
// Adding an experiment is one cell function on top of these plus one
// registry row in cmd/nicebench.

// armFeatures is the single system-arm table: every "+feature" token a
// sweep, figure or chaos cell puts in a system name, as an options
// mutator. A feature only switches a subsystem on; sweep-specific
// constants (cache capacity, memory budgets, CPU charge) stay in each
// sweep's base options. NOOBOptions embeds Options, so one mutator type
// covers both deployments.
var armFeatures = map[string]func(*NOOBOptions){
	"lb": func(o *NOOBOptions) { o.LoadBalance = true },
	// The §8 rebalancer re-assigns the division rules "lb" installs.
	"dynamiclb": func(o *NOOBOptions) { o.LoadBalance, o.DynamicLB = true, true },
	"cache":     func(o *NOOBOptions) { o.Cache = true },
	"harmonia":  func(o *NOOBOptions) { o.Harmonia = true },
	"durable":   func(o *NOOBOptions) { o.DurableStore = true },
	// Group commit with a short gather window: concurrent commits on a
	// node share fsyncs without a lone writer noticing the linger.
	"groupcommit": func(o *NOOBOptions) { o.GroupCommit, o.MaxSyncDelay = true, 20*time.Microsecond },
	// The put accumulator and prepare combiner at durable-write's window,
	// and get coalescing (DESIGN.md §16).
	"batch":    func(o *NOOBOptions) { o.PutBatchWindow = 100 * time.Microsecond },
	"coalesce": func(o *NOOBOptions) { o.CoalesceGets = true },
	// Any-k puts acked by a majority of the R replicas.
	"quorum": func(o *NOOBOptions) {
		if o.R > 1 {
			o.QuorumK = o.R/2 + 1
		}
	},
	"standby": func(o *NOOBOptions) { o.Standby = true },
	"edgeovs": func(o *NOOBOptions) { o.EdgeOVS = true },
	// The NOOB baseline's §6.1/§6.2 access mechanisms and consistency.
	"rog":        func(o *NOOBOptions) { o.Access, o.Gateway = noob.ViaGateway, noob.ROG },
	"rag":        func(o *NOOBOptions) { o.Access, o.Gateway = noob.ViaGateway, noob.RAG },
	"rac":        func(o *NOOBOptions) { o.Access, o.Gateway = noob.RAC, noob.RAG },
	"2pc":        func(o *NOOBOptions) { o.Consistency = noob.TwoPC },
	"quorumrw":   func(o *NOOBOptions) { o.Consistency = noob.QuorumRW },
	"roundrobin": func(o *NOOBOptions) { o.Gets = noob.GetRoundRobin },
	"chain":      func(o *NOOBOptions) { o.Replication = noob.Chain },
}

// resolveArm is the one place a system name becomes deployment options.
// The token before the first '+' picks the deployment (NICE/NICEKV or
// NOOB, any case); every later token is an armFeatures key applied in
// order on top of base.
func resolveArm(arm string, base Options) (opts NOOBOptions, isNOOB bool, err error) {
	toks := strings.Split(strings.ToLower(arm), "+")
	opts = DefaultNOOBOptions()
	opts.Options = base
	switch toks[0] {
	case "nice", "nicekv":
	case "noob":
		isNOOB = true
	default:
		return opts, false, fmt.Errorf("cluster: system %q is neither NICE nor NOOB", arm)
	}
	for _, tok := range toks[1:] {
		feature, ok := armFeatures[tok]
		if !ok {
			return opts, false, fmt.Errorf("cluster: system %q: unknown feature %q", arm, tok)
		}
		feature(&opts)
	}
	return opts, isNOOB, nil
}

// system pairs the name a figure or report prints with the arm that
// builds it; the two differ where the paper's label ("NOOB 2PC") is not
// itself a feature list.
type system struct{ Name, Arm string }

func systemNames(ss []system) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}

// seededOptions is DefaultOptions under the cell's seed.
func seededOptions(seed int64) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	return opts
}

// opResult is what experiments read off a completed operation.
type opResult struct {
	Latency sim.Time
	Found   bool // gets: object existed
}

// kvClient is the deployment-neutral client: the slice of core.Client
// and noob.Client every workload is written against, and the seam where
// tests substitute a failing fake.
type kvClient interface {
	Put(p *sim.Proc, key string, value any, size int) (opResult, error)
	Get(p *sim.Proc, key string) (opResult, error)
}

type niceClient struct{ c *core.Client }

func (k niceClient) Put(p *sim.Proc, key string, value any, size int) (opResult, error) {
	r, err := k.c.Put(p, key, value, size)
	return opResult{r.Latency, r.Found}, err
}

func (k niceClient) Get(p *sim.Proc, key string) (opResult, error) {
	r, err := k.c.Get(p, key)
	return opResult{r.Latency, r.Found}, err
}

type noobClient struct{ c *noob.Client }

func (k noobClient) Put(p *sim.Proc, key string, value any, size int) (opResult, error) {
	r, err := k.c.Put(p, key, value, size)
	return opResult{r.Latency, r.Found}, err
}

func (k noobClient) Get(p *sim.Proc, key string) (opResult, error) {
	r, err := k.c.Get(p, key)
	return opResult{r.Latency, r.Found}, err
}

// bench is one deployment under the harness: the parts NICE and NOOB
// share, plus the concrete deployment for system-specific telemetry.
type bench struct {
	Sim     *sim.Simulator
	Net     *netsim.Network
	Space   ring.Space
	Stacks  []*transport.Stack // node stacks
	Clients []kvClient
	NICE    *NICE // exactly one of NICE and NOOB is set
	NOOB    *NOOB
	settled bool
}

// withBench resolves arm on base, builds the deployment (on a
// leaves-leaf spine fabric when leaves > 0), runs fn and always reaps
// the simulation's procs afterwards. fn receives the bench unsettled so
// it can throttle links or attach a traffic engine first; the first Run
// settles it.
func withBench(arm string, base Options, leaves int, fn func(b *bench) error) error {
	opts, isNOOB, err := resolveArm(arm, base)
	if err != nil {
		return err
	}
	b := &bench{}
	if isNOOB {
		d := NewNOOB(opts)
		b.NOOB, b.Sim, b.Net, b.Space, b.Stacks = d, d.Sim, d.Net, d.Space, d.Stacks
		for _, c := range d.Clients {
			b.Clients = append(b.Clients, noobClient{c})
		}
		b.settled = true // a static L3 fabric has no bootstrap to wait for
	} else {
		var d *NICE
		if leaves > 0 {
			d = NewNICELeafSpine(opts.Options, leaves)
		} else {
			d = NewNICE(opts.Options)
		}
		b.NICE, b.Sim, b.Net, b.Space, b.Stacks = d, d.Sim, d.Net, d.Space, d.Stacks
		for _, c := range d.Clients {
			b.Clients = append(b.Clients, niceClient{c})
		}
	}
	defer b.Sim.Shutdown()
	return fn(b)
}

// Settle lets bootstrap flow mods and view announcements land; it is
// idempotent, and Run calls it, so only cells that read controller state
// or install faults before their first phase call it themselves.
func (b *bench) Settle() error {
	if b.settled {
		return nil
	}
	b.settled = true
	return b.NICE.Settle()
}

// Run drives one closed-loop phase through RunClients on clients
// 0..n-1 and reports the virtual seconds it took.
func (b *bench) Run(n int, body func(c int, p *sim.Proc) error) (seconds float64, err error) {
	if err := b.Settle(); err != nil {
		return 0, err
	}
	start := b.Sim.Now()
	err = RunClients(b.Sim, n, body)
	return (b.Sim.Now() - start).Seconds(), err
}

// replicas returns the node indices holding partition part, primary
// first.
func (b *bench) replicas(part int) []int {
	if b.NOOB != nil {
		return b.NOOB.Placement.Replicas(part)
	}
	var out []int
	for _, r := range b.NICE.Service.View(part).Replicas {
		out = append(out, r.Index)
	}
	return out
}

// RunClients is the one closed-loop phase driver. It spawns body(c, p)
// as its own proc for every client c in [0, n), joins them all, stops
// the simulator — deployments with heartbeats never drain their event
// queue, so a phase that does not stop it spins forever — and returns
// the simulator's failure, else the first client error. Every client is
// joined and the simulator stopped whether or not a body fails.
func RunClients(s *sim.Simulator, n int, body func(c int, p *sim.Proc) error) error {
	var first error
	g := sim.NewGroup(s)
	for c := 0; c < n; c++ {
		g.Add(1)
		s.Spawn("client"+strconv.Itoa(c), func(p *sim.Proc) {
			defer g.Done()
			if err := body(c, p); err != nil && first == nil {
				first = err
			}
		})
	}
	s.Spawn("join", func(p *sim.Proc) { g.Wait(p); s.Stop() })
	if err := s.Run(); err != nil {
		return err
	}
	return first
}

// clientRNG is client c's private stream for one phase: seed +
// salt·(c+1), so streams differ across clients and, with distinct salts,
// across the phases of one cell.
func clientRNG(seed, salt int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed + salt*int64(c+1)))
}

// putEach puts every key once through c, recording latencies.
func putEach(c kvClient, p *sim.Proc, keys []string, size int, h *metrics.Histogram) error {
	for _, k := range keys {
		res, err := c.Put(p, k, "v", size)
		if err != nil {
			return err
		}
		h.Add(res.Latency)
	}
	return nil
}

// getRepeat gets key n times through c, recording latencies; a miss is
// an error (every caller wrote the key first).
func getRepeat(c kvClient, p *sim.Proc, key string, n int, h *metrics.Histogram) error {
	for i := 0; i < n; i++ {
		res, err := c.Get(p, key)
		if err != nil {
			return err
		}
		if !res.Found {
			return fmt.Errorf("cluster: get %q: not found", key)
		}
		h.Add(res.Latency)
	}
	return nil
}

// mixedPhase is the measured phase the read-mostly sweeps share: every
// client issues ops closed-loop operations on keys drawn by next from
// its salted stream — a put of size bytes with probability putFrac, else
// a get — and latencies land in puts/gets. It returns the phase's
// virtual seconds.
func (b *bench) mixedPhase(seed, salt int64, ops int, putFrac float64, size int,
	next func(*rand.Rand) string, gets, puts *metrics.Histogram) (float64, error) {

	return b.Run(len(b.Clients), func(c int, p *sim.Proc) error {
		rng := clientRNG(seed, salt, c)
		for n := 0; n < ops; n++ {
			k := next(rng)
			if rng.Float64() < putFrac {
				res, err := b.Clients[c].Put(p, k, "v", size)
				if err != nil {
					return err
				}
				puts.Add(res.Latency)
				continue
			}
			res, err := b.Clients[c].Get(p, k)
			if err != nil {
				return err
			}
			gets.Add(res.Latency)
		}
		return nil
	})
}

// grid is the typed cell executor: Cell runs once per point of the
// row-major product of Dims (last axis fastest) on the RunCells pool,
// each under its DeriveSeed(pr.Seed, flat index) seed.
type grid[T any] struct {
	Dims []int
	Cell func(pr Params, ix []int) (T, error)
}

// Run executes every cell and returns the results in grid order.
func (g grid[T]) Run(pr Params) ([]T, error) {
	n := 1
	for _, d := range g.Dims {
		n *= d
	}
	out := make([]T, n)
	err := RunCells(pr, n, func(i int, seed int64) (err error) {
		ix := make([]int, len(g.Dims))
		for a, j := len(g.Dims)-1, i; a >= 0; a-- {
			ix[a], j = j%g.Dims[a], j/g.Dims[a]
		}
		cell := pr
		cell.Seed = seed
		out[i], err = g.Cell(cell, ix)
		return err
	})
	return out, err
}

// Claim is one sentence a sweep exists to support, as the measured
// Value and the band [Lo, Hi] the sentence allows. Each sweep computes
// its claims from its cells, with the bands written beside them.
type Claim struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

// InBand reports whether the sentence holds: Lo <= Value <= Hi.
func (c Claim) InBand() bool { return c.Lo <= c.Value && c.Value <= c.Hi }

func (c Claim) String() string {
	s := fmt.Sprintf("%-30s %.4g in [%g, %g]", c.Name, c.Value, c.Lo, c.Hi)
	if !c.InBand() {
		s += "  OUT OF BAND"
	}
	return s
}

// seriesOf assembles one Series per name from a names x xs block of
// grid results (row-major), plotting value(cell).
func seriesOf[T any](names, xs []string, cells []T, value func(T) float64) []Series {
	out := make([]Series, len(names))
	for si, name := range names {
		out[si].System = name
		for xi, x := range xs {
			out[si].Points = append(out[si].Points, Point{X: x, Value: value(cells[si*len(xs)+xi])})
		}
	}
	return out
}

func identity(v float64) float64 { return v }

// labels renders an axis with format.
func labels[T any](format string, xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}
