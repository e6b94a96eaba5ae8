package cluster

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// The heavytraffic experiment: open-loop sweeps of the virtual-client
// fleet size across the three system arms the paper's evaluation
// compares — plain NICEKV, +switch load balancing, +in-switch caching —
// on a four-leaf spine fabric. Each cell offers the same aggregate load
// from a growing fleet (weak per-client rate, strong flow-count scaling),
// so what the sweep stresses is exactly what a million clients stress in
// practice: per-flow switch state, division spread, and the engine's own
// per-client bookkeeping.

// TrafficCell is one (system, fleet size) measurement.
type TrafficCell struct {
	System      string  `json:"system"`
	Clients     int     `json:"clients"`
	Offered     float64 `json:"offered_rps"`
	Achieved    float64 `json:"achieved_rps"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
	TimeoutFrac float64 `json:"timeout_frac"`
	CacheHit    float64 `json:"cache_hit_frac"`
	Issued      int64   `json:"issued"`
	// Storage-engine telemetry, populated only for durable-store arms
	// (the storagesweep's heavytraffic cell); omitted otherwise so the
	// legacy heavytraffic JSON is unchanged.
	MemHitFrac float64 `json:"mem_hit_frac,omitempty"`
	Evictions  int64   `json:"evictions,omitempty"`
}

// HeavyTrafficArms is the sweep's system axis.
var HeavyTrafficArms = []string{"nicekv", "nicekv+lb", "nicekv+lb+cache"}

// heavyRate and heavyDuration are the operating point of every
// heavytraffic arm (see HeavyTrafficSweep).
const (
	heavyRate     = 60_000
	heavyDuration = 400 * time.Millisecond
)

// heavyTrafficBase is the deployment under every open-loop cell.
func heavyTrafficBase(seed int64) Options {
	opts := seededOptions(seed)
	opts.Nodes = 6
	opts.R = 3
	opts.Clients = 4 // preloaders only; the fleet is virtual
	opts.CPUPerOp = 10 * time.Microsecond
	opts.TrafficGateways = true
	opts.CacheCapacity = 512
	return opts
}

// durableHeavyCell is the heavytraffic arm the storagesweep and the
// batchsweep append: an open-loop fleet (default 100k virtual clients)
// against a durable group-commit +LB deployment. The traffic engine
// preloads 4096 records x 512 B, replicated R=3 over 6 nodes = 1 MiB per
// node; budget half of it so the fleet's zipfian tail constantly
// promotes and evicts.
func durableHeavyCell(label string, seed int64, clients, batch int) (TrafficCell, error) {
	if clients <= 0 {
		clients = 100_000
	}
	base := heavyTrafficBase(seed)
	base.StoreMemoryBudget = 512 << 10
	return runTrafficCell(label, "nicekv+lb+durable+groupcommit", base, clients, heavyRate, heavyDuration, batch)
}

// RunHeavyTrafficCell builds one leaf-spine deployment, preloads the
// keyspace, offers rate req/s from a fleet of the given size for the
// given duration, and reports the cell.
func RunHeavyTrafficCell(system string, clients int, seed int64, rate float64, duration sim.Time) (TrafficCell, error) {
	return runTrafficCell(system, system, heavyTrafficBase(seed), clients, rate, duration, 0)
}

// runTrafficCell builds arm on a four-leaf spine deployment from base
// and drives the open-loop fleet against it (batch > 1 sets the engine's
// get batching) — the shared machinery behind the heavytraffic sweep and
// the storagesweep's and batchsweep's heavytraffic arms, which report
// under their own label.
func runTrafficCell(label, arm string, base Options, clients int, rate float64, duration sim.Time, batch int) (TrafficCell, error) {
	cell := TrafficCell{System: label, Clients: clients, Offered: rate}
	err := withBench(arm, base, 4, func(b *bench) error {
		d := b.NICE
		eng := NewTrafficEngine(d, TrafficOptions{
			Clients:   clients,
			Rate:      rate,
			Duration:  duration,
			Seed:      base.Seed,
			BatchSize: batch,
		})
		var res TrafficResult
		if _, err := b.Run(1, func(_ int, p *sim.Proc) error {
			if err := eng.Preload(p); err != nil {
				return fmt.Errorf("heavytraffic %s/%d preload: %w", label, clients, err)
			}
			res = eng.Run(p)
			return nil
		}); err != nil {
			return err
		}
		cell.Achieved = res.Achieved
		cell.P50Micros = float64(res.P50) / 1e3
		cell.P99Micros = float64(res.P99) / 1e3
		cell.Issued = res.Issued
		if res.Issued > 0 {
			cell.TimeoutFrac = float64(res.TimedOut) / float64(res.Issued)
		}
		if t := res.CacheHits + res.CacheMisses; t > 0 {
			cell.CacheHit = float64(res.CacheHits) / float64(t)
		}
		if d.Opts.DurableStore {
			sc := d.StorageCounters()
			cell.MemHitFrac = sc.MemHitRatio()
			cell.Evictions = sc.Evictions
		}
		return nil
	})
	return cell, err
}

// HeavyTrafficSweep runs the arms x sizes grid on the RunCells worker
// pool. Default shape (sizes nil): fleet sizes 10^4, 10^5, 10^6 at
// 60k req/s aggregate over 400ms — the offered load stays constant
// while the flow count scales two decades. 60k req/s puts the plain
// system at ~60% of its disk-bound service capacity (6 nodes x ~16k
// reads/s), so queueing is visible, load balancing measurably flattens
// it, and the in-switch cache removes most of it — without tipping the
// no-cache arms into unbounded backlog.
func HeavyTrafficSweep(pr Params, sizes []int) ([]TrafficCell, error) {
	if len(sizes) == 0 {
		sizes = []int{10_000, 100_000, 1_000_000}
	}
	return grid[TrafficCell]{
		Dims: []int{len(HeavyTrafficArms), len(sizes)},
		Cell: func(pr Params, ix []int) (TrafficCell, error) {
			return RunHeavyTrafficCell(HeavyTrafficArms[ix[0]], sizes[ix[1]], pr.Seed, heavyRate, heavyDuration)
		},
	}.Run(pr)
}
