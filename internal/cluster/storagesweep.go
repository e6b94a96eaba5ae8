package cluster

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// The storagesweep experiment characterizes the durable storage engine
// under memory pressure: every arm runs with the engine on (WAL +
// fsync-on-ack + snapshots), and the sweep scales the working-set-size ÷
// memory-budget ratio from 0.5x (everything fits, eviction never fires)
// to 8x (only an eighth of the set is resident, most gets pay a disk
// read). The system axis — NICEKV, +LB, +cache — shows how much the
// switch layers mask the storage tier: load balancing spreads the
// disk-read misses over R replicas, and the in-switch cache absorbs the
// hot head before it reaches a server at all. A heavytraffic arm drives
// the same durable engine with a 10^5-virtual-client open-loop fleet.

// StorageRatios is the working-set-size ÷ memory-budget axis.
var StorageRatios = []float64{0.5, 1, 2, 4, 8}

const (
	storageSweepRecords = 256
	storageSweepValue   = 1024
	storageSweepNodes   = 6
	storageSweepClients = 3
	storageSweepPutFrac = 0.05
)

// StorageCell is one (system, ratio) measurement.
type StorageCell struct {
	System       string  `json:"system"`
	Ratio        float64 `json:"ws_over_budget"`
	BudgetBytes  int64   `json:"budget_bytes"` // per node
	Tput         float64 `json:"ops_per_sec"`
	GetP99Micros float64 `json:"get_p99_us"`
	PutP99Micros float64 `json:"put_p99_us"`
	MemHitRatio  float64 `json:"mem_hit_ratio"`
	Evictions    int64   `json:"evictions"`
	WALAppends   int64   `json:"wal_appends"`
	Fsyncs       int64   `json:"fsyncs"`
	Snapshots    int64   `json:"snapshots"`
	CacheHit     float64 `json:"cache_hit_frac,omitempty"`
}

// StorageReport is the BENCH_storage.json payload.
type StorageReport struct {
	Records   int           `json:"records"`
	ValueSize int           `json:"value_size"`
	Nodes     int           `json:"nodes"`
	Cells     []StorageCell `json:"cells"`
	Heavy     []TrafficCell `json:"heavytraffic"`
}

// storageBudget sizes a node's memory budget so the expected resident
// share of the replicated working set is 1/ratio: each of the nodes
// holds records*value*R/nodes bytes of committed data on average.
func storageBudget(ratio float64) int64 {
	perNode := float64(storageSweepRecords*storageSweepValue*3) / float64(storageSweepNodes)
	return int64(perNode / ratio)
}

// runStorageCell loads the keyspace, then drives a read-mostly measured
// phase and reports throughput, tails and the engine counters. Every
// arm is the cachesweep system variant with the durable group-commit
// engine layered under it.
func runStorageCell(pr Params, system string, ratio float64) (StorageCell, error) {
	cell := StorageCell{System: system, Ratio: ratio, BudgetBytes: storageBudget(ratio)}
	opts := cacheSweepBase(pr.Seed, storageSweepNodes, storageSweepClients)
	opts.StoreMemoryBudget = cell.BudgetBytes
	// Snapshot aggressively relative to the short measured window so the
	// sweep includes checkpoint-write interference, not just fsyncs.
	opts.StoreSnapshotEvery = 20 * time.Millisecond
	err := withBench(system+"+durable+groupcommit", opts, 0, func(b *bench) error {
		// Load phase: filling the engines overflows the smaller budgets
		// into the disk tier.
		if err := b.loadUserKeys(storageSweepRecords, storageSweepValue); err != nil {
			return err
		}

		// Measured phase: read-mostly mixed traffic against the zipfian head.
		var gets, puts metrics.Histogram
		next := userKeys(workload.NewZipfianTheta(storageSweepRecords, workload.ZipfTheta))
		seconds, err := b.mixedPhase(pr.Seed, 2000, pr.Ops, storageSweepPutFrac, storageSweepValue, next, &gets, &puts)
		if err != nil {
			return err
		}
		if seconds > 0 {
			cell.Tput = float64(gets.N()+puts.N()) / seconds
		}
		cell.GetP99Micros = gets.Percentile(99) * 1e6
		cell.PutP99Micros = puts.Percentile(99) * 1e6
		sc := b.NICE.StorageCounters()
		cell.MemHitRatio = sc.MemHitRatio()
		cell.Evictions = sc.Evictions
		cell.WALAppends = sc.WALAppends
		cell.Fsyncs = sc.Fsyncs
		cell.Snapshots = sc.Snapshots
		if b.NICE.Cache != nil {
			cell.CacheHit = b.NICE.Cache.Stats().HitRate()
		}
		return nil
	})
	return cell, err
}

// StorageSweep runs the (system, ratio) grid on the RunCells worker
// pool, then the heavytraffic arm (durableHeavyCell) under the seed of
// the grid position after the last cell.
func StorageSweep(pr Params, heavyClients int) (*StorageReport, error) {
	rep := &StorageReport{
		Records:   storageSweepRecords,
		ValueSize: storageSweepValue,
		Nodes:     storageSweepNodes,
	}
	var err error
	rep.Cells, err = grid[StorageCell]{
		Dims: []int{len(cacheSweepSystems), len(StorageRatios)},
		Cell: func(pr Params, ix []int) (StorageCell, error) {
			return runStorageCell(pr, cacheSweepSystems[ix[0]], StorageRatios[ix[1]])
		},
	}.Run(pr)
	if err != nil {
		return nil, err
	}
	heavy, err := durableHeavyCell("nicekv+lb+durable", DeriveSeed(pr.Seed, len(rep.Cells)), heavyClients, 0)
	if err != nil {
		return nil, err
	}
	rep.Heavy = append(rep.Heavy, heavy)
	return rep, nil
}
