package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The batchsweep experiment characterizes the end-to-end batching stack
// (DESIGN.md §16): client-side MultiPut/MultiGet wire batching, the
// primaries' per-partition put accumulator, duplicate-get coalescing,
// and WAL group commit. The grid is batch size x fsync-coalescing x
// system; batch=1 with group commit off is the bit-identical legacy
// path, so every other cell reads as a delta against it. The headline
// number is the durable arm: per-op fsyncs serialize on each node's
// disk, so batching the commit pipeline and coalescing the fsyncs is
// where the write path has the most to recover. A heavytraffic arm
// drives the durable engine with a 10^5-virtual-client open-loop fleet
// issuing batched gets.

// BatchSizes is the end-to-end batching-degree axis: ops per MultiPut /
// MultiGet, and (scaled) the server-side accumulator cap.
var BatchSizes = []int{1, 4, 16}

// batchSweepSystems is the system axis.
var batchSweepSystems = []string{"NICEKV", "NICEKV+LB", "NICEKV+LB+durable"}

const (
	batchSweepNodes   = 6
	batchSweepClients = 16
	batchSweepValue   = 512
	batchSweepHotKeys = 64
)

// BatchCell is one (system, batch, group-commit) measurement.
type BatchCell struct {
	System      string `json:"system"`
	Batch       int    `json:"batch"`
	GroupCommit bool   `json:"group_commit"`

	PutTput      float64 `json:"puts_per_sec"`
	PutP50Micros float64 `json:"put_p50_us"`
	PutP99Micros float64 `json:"put_p99_us"`
	GetTput      float64 `json:"gets_per_sec"`
	GetP50Micros float64 `json:"get_p50_us"`
	GetP99Micros float64 `json:"get_p99_us"`

	// Server-side batching telemetry.
	BatchCommits  int64   `json:"batch_commits,omitempty"`
	MeanPutBatch  float64 `json:"mean_put_batch,omitempty"`
	GetsCoalesced int64   `json:"gets_coalesced,omitempty"`

	// Storage-engine telemetry (durable arm only).
	WALAppends     int64   `json:"wal_appends,omitempty"`
	Fsyncs         int64   `json:"fsyncs,omitempty"`
	CoalescedSyncs int64   `json:"coalesced_fsyncs,omitempty"`
	MeanSyncBatch  float64 `json:"mean_sync_batch,omitempty"`
}

// BatchReport is the BENCH_batch.json payload.
type BatchReport struct {
	Nodes        int           `json:"nodes"`
	Clients      int           `json:"clients"`
	ValueSize    int           `json:"value_size"`
	OpsPerClient int           `json:"ops_per_client"`
	Cells        []BatchCell   `json:"cells"`
	Heavy        []TrafficCell `json:"heavytraffic"`
	// DurableSpeedup is the best durable cell's put throughput over the
	// durable per-op-fsync baseline (batch=1, group commit off).
	DurableSpeedup float64 `json:"durable_put_speedup"`
	// DeterminismOK records the recheck: the baseline durable cell re-run
	// under the same seed must reproduce its counters bit-identically.
	DeterminismOK bool `json:"determinism_ok"`
}

// batchGrid enumerates the grid. Group commit is a durable-engine knob,
// so the legacy arms run only the off column instead of duplicating
// cells that cannot differ.
func batchGrid() []BatchCell {
	var grid []BatchCell
	for _, sys := range batchSweepSystems {
		for _, b := range BatchSizes {
			grid = append(grid, BatchCell{System: sys, Batch: b})
			if sys == "NICEKV+LB+durable" {
				grid = append(grid, BatchCell{System: sys, Batch: b, GroupCommit: true})
			}
		}
	}
	return grid
}

// batchSweepBase builds one cell's base deployment; the cell's system
// arm (plus "+groupcommit" for that column) is applied on top.
func batchSweepBase(cell BatchCell, seed int64) Options {
	opts := seededOptions(seed)
	opts.Nodes = batchSweepNodes
	opts.Clients = batchSweepClients
	// Keep the cells disk-bound, not CPU-bound (as the heavytraffic sweep
	// does): the default 100us/op CPU charge admits at most one request
	// per disk-read time, which would serialize the very co-arrivals the
	// batching stack exists to exploit.
	opts.CPUPerOp = 10 * time.Microsecond
	// "+durable" arms: budget under even the hot set so the measured phase
	// is disk-bound on both sides: puts queue on WAL writes (what the
	// accumulator and group commit recover) and hot-set gets keep faulting
	// in from disk (the window duplicate-get coalescing collapses —
	// memory-tier hits are free and need no coalescing).
	opts.StoreMemoryBudget = 8 << 10
	if cell.Batch > 1 {
		// Batch > 1 arms the whole server-side stack alongside the client
		// API: the primaries' commit accumulator (sized past the client
		// batch so co-arriving clients share a drain) and get coalescing.
		// The linger window scales with the batch degree and must span a
		// few disk-write times (80us each): phase-one WAL appends serialize
		// on the shared per-node disk, so co-issued puts reach their commit
		// points spread apart by roughly the disk service time.
		opts.PutBatchWindow = time.Duration(cell.Batch) * 25 * time.Microsecond
		opts.PutBatchMax = 4 * cell.Batch
		opts.CoalesceGets = true
	}
	return opts
}

// runBatchCell drives one cell: a closed-loop put storm (every client
// writes its own key range, MultiPut batches of cell.Batch), then a
// zipfian-hot get storm (MultiGet batches against a shared hot set).
func runBatchCell(pr Params, cell BatchCell) (BatchCell, error) {
	arm := cell.System
	if cell.GroupCommit {
		arm += "+groupcommit"
	}
	err := withBench(arm, batchSweepBase(cell, pr.Seed), 0, func(b *bench) error {
		d := b.NICE
		perClient := max(pr.Ops, cell.Batch)
		key := func(c, i int) string { return fmt.Sprintf("batch%d-%d", c, i) }
		// storm drives every client closed-loop through perClient ops,
		// cell.Batch per call, and returns the phase's virtual seconds;
		// call issues client c's ops [lo, hi) and reports them per op.
		storm := func(h *metrics.Histogram,
			call func(c int, p *sim.Proc, rng *rand.Rand, lo, hi int) ([]core.OpResult, []error)) (float64, error) {
			return b.Run(len(d.Clients), func(c int, p *sim.Proc) error {
				rng := clientRNG(pr.Seed, 3000, c)
				for lo := 0; lo < perClient; lo += cell.Batch {
					results, errs := call(c, p, rng, lo, min(lo+cell.Batch, perClient))
					for oi := range results {
						if errs[oi] != nil {
							return errs[oi]
						}
						h.Add(results[oi].Latency)
					}
				}
				return nil
			})
		}

		// Put storm: concurrent across the real clients — the concurrency is
		// what gives the accumulator and group commit something to coalesce.
		// Distinct per-client keys keep the protocol free of lock conflicts,
		// so the cell measures batching, not contention. Batch 1 stays on the
		// single-op API: it is the bit-identical legacy path.
		var putHist, getHist metrics.Histogram
		seconds, err := storm(&putHist, func(c int, p *sim.Proc, _ *rand.Rand, lo, hi int) ([]core.OpResult, []error) {
			if cell.Batch == 1 {
				res, err := d.Clients[c].Put(p, key(c, lo), "v", batchSweepValue)
				return []core.OpResult{res}, []error{err}
			}
			ops := make([]core.PutOp, 0, hi-lo)
			for j := lo; j < hi; j++ {
				ops = append(ops, core.PutOp{Key: key(c, j), Value: "v", Size: batchSweepValue})
			}
			return d.Clients[c].MultiPut(p, ops)
		})
		if err != nil {
			return err
		}
		if seconds > 0 {
			cell.PutTput = float64(len(d.Clients)*perClient) / seconds
		}
		cell.PutP50Micros = putHist.Percentile(50) * 1e6
		cell.PutP99Micros = putHist.Percentile(99) * 1e6

		// Get storm: every client reads the zipfian head of client 0's key
		// range, so concurrent same-key reads pile onto the same nodes —
		// exactly the thundering herd get coalescing exists to absorb.
		chooser := workload.NewZipfian(min(batchSweepHotKeys, perClient))
		seconds, err = storm(&getHist, func(c int, p *sim.Proc, rng *rand.Rand, lo, hi int) ([]core.OpResult, []error) {
			if cell.Batch == 1 {
				res, err := d.Clients[c].Get(p, key(0, chooser.Next(rng)))
				return []core.OpResult{res}, []error{err}
			}
			keys := make([]string, 0, hi-lo)
			for j := lo; j < hi; j++ {
				keys = append(keys, key(0, chooser.Next(rng)))
			}
			return d.Clients[c].MultiGet(p, keys)
		})
		if err != nil {
			return err
		}
		if seconds > 0 {
			cell.GetTput = float64(len(d.Clients)*perClient) / seconds
		}
		cell.GetP50Micros = getHist.Percentile(50) * 1e6
		cell.GetP99Micros = getHist.Percentile(99) * 1e6

		var batched int64
		for _, n := range d.Nodes {
			st := n.Stats()
			cell.BatchCommits += st.BatchCommits
			batched += st.BatchedPuts
			cell.GetsCoalesced += st.GetsCoalesced
		}
		if cell.BatchCommits > 0 {
			cell.MeanPutBatch = float64(batched) / float64(cell.BatchCommits)
		}
		sc := d.StorageCounters()
		cell.WALAppends = sc.WALAppends
		cell.Fsyncs = sc.Fsyncs
		cell.CoalescedSyncs = sc.CoalescedSyncs
		cell.MeanSyncBatch = sc.MeanSyncBatch()
		return nil
	})
	return cell, err
}

// BatchSweep runs the grid on the RunCells worker pool, re-runs the
// durable baseline cell to recheck determinism, and appends the
// heavytraffic arm: heavyClients virtual clients issuing batched gets
// against a durable group-commit deployment.
func BatchSweep(pr Params, heavyClients int) (*BatchReport, error) {
	cells := batchGrid()
	g := grid[BatchCell]{
		Dims: []int{len(cells)},
		Cell: func(pr Params, ix []int) (BatchCell, error) { return runBatchCell(pr, cells[ix[0]]) },
	}
	rep := &BatchReport{
		Nodes:        batchSweepNodes,
		Clients:      batchSweepClients,
		ValueSize:    batchSweepValue,
		OpsPerClient: pr.Ops,
	}
	var err error
	if rep.Cells, err = g.Run(pr); err != nil {
		return nil, err
	}

	// Headline ratio: best durable put throughput over the durable
	// per-op-fsync baseline.
	var base, best float64
	var baseIdx = -1
	for i, c := range rep.Cells {
		if c.System != "NICEKV+LB+durable" {
			continue
		}
		if c.Batch == 1 && !c.GroupCommit {
			base = c.PutTput
			baseIdx = i
		}
		if c.PutTput > best {
			best = c.PutTput
		}
	}
	if base > 0 {
		rep.DurableSpeedup = best / base
	}

	// Determinism recheck: the same cell under the same seed must
	// reproduce every number bit-identically — batching must not have
	// introduced scheduling nondeterminism.
	if baseIdx >= 0 {
		again, err := g.Rerun(pr, baseIdx)
		if err != nil {
			return nil, err
		}
		rep.DeterminismOK = again == rep.Cells[baseIdx]
	}

	heavy, err := durableHeavyCell("nicekv+lb+durable+batch", DeriveSeed(pr.Seed, len(cells)), heavyClients, 16)
	if err != nil {
		return nil, err
	}
	rep.Heavy = append(rep.Heavy, heavy)
	return rep, nil
}
