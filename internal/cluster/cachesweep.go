package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The cachesweep experiment measures what the in-switch hot-key cache
// buys over the paper's load balancing: LB spreads a skewed get stream
// across the R replicas of a partition, so a single hot key is still
// bounded by R servers, while the cache answers it in the fabric. The
// sweep compares NICEKV, NICEKV+LB and NICEKV+cache along three axes —
// workload skew (Zipf theta), cluster size, and key distribution — and
// reports both aggregate get throughput and p99 get latency.

// cacheSweepSystems is the experiment's system axis.
var cacheSweepSystems = []string{"NICEKV", "NICEKV+LB", "NICEKV+cache"}

// CacheSweepThetas is the skew axis (YCSB's default is 0.99).
var CacheSweepThetas = []float64{0.5, 0.9, 0.99, 1.2}

// CacheSweepNodes is the cluster-size axis, swept at theta = 0.99.
var CacheSweepNodes = []int{4, 8, 16}

// cacheSweepRecords keeps the keyspace small enough that the hot head is
// hammered hard even at modest op counts.
const cacheSweepRecords = 256

// cacheCellResult is one (system, x) measurement.
type cacheCellResult struct {
	tput    float64 // measured gets per second, aggregate
	p99     float64 // get p99, seconds
	hitRate float64 // switch cache hit rate (0 for cacheless systems)
}

// cacheSweepBase is the deployment every cachesweep (and storagesweep)
// arm starts from, including how a "+cache" arm's switch cache behaves.
func cacheSweepBase(seed int64, nodes, clients int) Options {
	opts := seededOptions(seed)
	opts.Nodes = nodes
	opts.Clients = clients
	if opts.R > nodes {
		opts.R = nodes
	}
	opts.CacheCapacity = 64
	// Install quickly: the sweeps run far fewer ops than a production
	// trace, so the detector must react within the measured window.
	opts.CacheHotThreshold = 4
	opts.CacheDecayEvery = 10 * time.Second
	return opts
}

// userKeys adapts a record chooser to the sweeps' "user<i>" keyspace.
func userKeys(chooser workload.KeyChooser) func(*rand.Rand) string {
	return func(rng *rand.Rand) string { return fmt.Sprintf("user%d", chooser.Next(rng)) }
}

// loadUserKeys writes records user0..user<n-1> through client 0.
func (b *bench) loadUserKeys(n, size int) error {
	_, err := b.Run(1, func(_ int, p *sim.Proc) error {
		for i := 0; i < n; i++ {
			if _, err := b.Clients[0].Put(p, fmt.Sprintf("user%d", i), "v", size); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// cacheRun loads the keyspace, warms the detector, then drives a
// read-mostly phase measuring get throughput and latency.
func cacheRun(pr Params, system string, nodes, clients int,
	chooser workload.KeyChooser, putFrac float64) (out cacheCellResult, err error) {

	err = withBench(system, cacheSweepBase(pr.Seed, nodes, clients), 0, func(b *bench) error {
		const valueSize = workload.DefaultValueSize
		if err := b.loadUserKeys(cacheSweepRecords, valueSize); err != nil {
			return err
		}

		// Warm phase: unmeasured gets let the sampled miss stream push hot
		// keys over the detector threshold and the installs land.
		warm := max(pr.Ops/4, 32)
		next := userKeys(chooser)
		if _, err := b.Run(len(b.Clients), func(c int, p *sim.Proc) error {
			rng := clientRNG(pr.Seed, 1000, c)
			for n := 0; n < warm; n++ {
				if _, err := b.Clients[c].Get(p, next(rng)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}

		// Measured phase: read-mostly mixed traffic.
		var gets, puts metrics.Histogram
		seconds, err := b.mixedPhase(pr.Seed, 2000, pr.Ops, putFrac, valueSize, next, &gets, &puts)
		if err != nil {
			return err
		}
		out.p99 = gets.Percentile(99)
		if seconds > 0 {
			out.tput = float64(gets.N()) / seconds
		}
		if b.NICE.Cache != nil {
			out.hitRate = b.NICE.Cache.Stats().HitRate()
		}
		return nil
	})
	return out, err
}

// cacheGrid runs one sweep axis as a (system, x) grid.
func cacheGrid(pr Params, nx int,
	cell func(pr Params, system string, xi int) (cacheCellResult, error)) ([]cacheCellResult, error) {

	return grid[cacheCellResult]{
		Dims: []int{len(cacheSweepSystems), nx},
		Cell: func(pr Params, ix []int) (cacheCellResult, error) {
			return cell(pr, cacheSweepSystems[ix[0]], ix[1])
		},
	}.Run(pr)
}

// CacheSweep runs the full experiment. The sweeps are read-mostly
// (5% puts) so the write-through invalidation is exercised while reads
// dominate, as in the motivating serving workloads.
func CacheSweep(pr Params) ([]*Figure, error) {
	const (
		sweepNodes   = 6
		sweepClients = 3
		putFrac      = 0.05
		theta        = workload.ZipfTheta
	)

	// Axis 1: skew. Fixed cluster, rising Zipf theta.
	byTheta, err := cacheGrid(pr, len(CacheSweepThetas),
		func(pr Params, system string, xi int) (cacheCellResult, error) {
			ch := workload.NewZipfianTheta(cacheSweepRecords, CacheSweepThetas[xi])
			return cacheRun(pr, system, sweepNodes, sweepClients, ch, putFrac)
		})
	if err != nil {
		return nil, err
	}

	// Axis 2: cluster size at YCSB skew.
	byNodes, err := cacheGrid(pr, len(CacheSweepNodes),
		func(pr Params, system string, xi int) (cacheCellResult, error) {
			ch := workload.NewZipfianTheta(cacheSweepRecords, theta)
			return cacheRun(pr, system, CacheSweepNodes[xi], sweepClients, ch, putFrac)
		})
	if err != nil {
		return nil, err
	}

	// Axis 3: distribution shape.
	distXs := []string{"uniform", "zipf-0.99", "hotspot-90/10"}
	choosers := []workload.KeyChooser{
		workload.Uniform{N: cacheSweepRecords},
		workload.NewZipfianTheta(cacheSweepRecords, theta),
		workload.NewHotSpot(cacheSweepRecords, 0.9, 0.1),
	}
	byDist, err := cacheGrid(pr, len(distXs),
		func(pr Params, system string, xi int) (cacheCellResult, error) {
			return cacheRun(pr, system, sweepNodes, sweepClients, choosers[xi], putFrac)
		})
	if err != nil {
		return nil, err
	}

	tput := func(r cacheCellResult) float64 { return r.tput }
	thetaXs := labels("%.2f", CacheSweepThetas)
	figs := []*Figure{
		{
			ID:     "cache-theta",
			Title:  "In-switch caching vs load balancing under rising skew",
			XLabel: "zipf theta",
			YLabel: "gets per second, aggregate",
			Series: seriesOf(cacheSweepSystems, thetaXs, byTheta, tput),
			Notes: []string{
				fmt.Sprintf("%d nodes, %d clients, %d keys, 5%% puts; cache: 64 entries, write-invalidate",
					sweepNodes, sweepClients, cacheSweepRecords),
				"LB spreads a hot key over R replicas; the cache answers it at the switch",
			},
		},
		{
			ID:     "cache-theta-p99",
			Title:  "Get tail latency under rising skew",
			XLabel: "zipf theta",
			YLabel: "get p99 latency, ms",
			Series: seriesOf(cacheSweepSystems, thetaXs, byTheta, func(r cacheCellResult) float64 { return r.p99 * 1e3 }),
		},
		{
			ID:     "cache-nodes",
			Title:  "In-switch caching vs cluster size (theta = 0.99)",
			XLabel: "nodes",
			YLabel: "gets per second, aggregate",
			Series: seriesOf(cacheSweepSystems, labels("%d", CacheSweepNodes), byNodes, tput),
			Notes:  []string{"hot-key throughput with the cache is decoupled from node count"},
		},
		{
			ID:     "cache-dist",
			Title:  "In-switch caching across key distributions",
			XLabel: "distribution",
			YLabel: "gets per second, aggregate",
			Series: seriesOf(cacheSweepSystems, distXs, byDist, tput),
		},
	}
	return figs, nil
}
