package cluster

import (
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The readscale experiment measures how aggregate get throughput scales
// with the replication factor when the working set is concentrated on a
// single partition — the regime where a primary-reads design is bound by
// one server's CPU no matter how many replicas hold the data.
//
//   - NICEKV           2PC writes, primary reads: the flat baseline.
//   - NICEKV+quorum    any-k writes, primary reads: faster writes, same
//                      read bottleneck.
//   - NICEKV+LB        the paper's switch load balancing: reads spread by
//                      client source division, no write-conflict tracking.
//   - NICEKV+harmonia  in-network conflict detection: clean-key reads
//                      spread over every live replica, dirty keys pinned
//                      to the primary (internal/harmonia).
//
// The sweep crosses replication factor x write ratio x system. Near-
// linear scaling means the R=8 read-only harmonia cell approaches 8x the
// primary-reads baseline; the write-ratio rows show the scaling erode as
// dirty-key fallbacks and replica write work grow.

// readScaleSystems is the experiment's system axis.
var readScaleSystems = []string{"NICEKV", "NICEKV+quorum", "NICEKV+LB", "NICEKV+harmonia"}

// ReadScaleReplicas is the replication-factor axis.
var ReadScaleReplicas = []int{1, 2, 4, 8}

// ReadScalePutFracs is the write-ratio axis.
var ReadScalePutFracs = []float64{0, 0.05, 0.20}

const (
	readScaleNodes   = 10 // fixed fabric: only R varies
	readScaleClients = 32 // enough closed-loop demand to saturate 8 replicas
	readScaleKeys    = 16 // working set, all on one partition
)

// ReadScaleCell is one (system, R, putFrac) measurement.
type ReadScaleCell struct {
	System        string  `json:"system"`
	R             int     `json:"r"`
	PutFrac       float64 `json:"put_frac"`
	GetTput       float64 `json:"gets_per_sec"`
	GetP99Micros  float64 `json:"get_p99_us"`
	ServedLocal   int64   `json:"served_local"`   // gets answered by partition primaries
	ServedReplica int64   `json:"served_replica"` // gets answered by non-primary replicas
	Routed        int64   `json:"harmonia_routed"`
	Fallbacks     int64   `json:"harmonia_fallbacks"`
}

// readScaleRun measures one cell: load the working set, let the write
// in-flight state drain, then drive a closed-loop mixed workload.
func readScaleRun(pr Params, system string, r int, putFrac float64) (ReadScaleCell, error) {
	cell := ReadScaleCell{System: system, R: r, PutFrac: putFrac}
	opts := seededOptions(pr.Seed)
	opts.Nodes = readScaleNodes
	opts.R = r
	opts.Clients = readScaleClients
	err := withBench(system, opts, 0, func(b *bench) error {
		d := b.NICE
		// Every key hashes to one partition, so every get competes for the
		// same primary when reads are not spread.
		keys := keysIn(b.Space.PartitionOf, "rs-%d", b.Space.PartitionOf("rs-0"), readScaleKeys)
		const valueSize = workload.DefaultValueSize

		// Load phase, then a drain sleep: with harmonia every loaded key must
		// leave the dirty set before the measured reads start.
		var sink metrics.Histogram
		if _, err := b.Run(1, func(_ int, p *sim.Proc) error {
			err := putEach(b.Clients[0], p, keys, valueSize, &sink)
			p.Sleep(20 * time.Millisecond)
			return err
		}); err != nil {
			return err
		}
		served := func() (local, replica int64) {
			for _, n := range d.Nodes {
				ns := n.Stats()
				local += ns.GetsServedLocal
				replica += ns.GetsServedAsReplica
			}
			return local, replica
		}
		baseLocal, baseReplica := served()

		// Measured phase: closed-loop clients, uniform key choice over the
		// single-partition working set.
		perClient := max(pr.Ops/4, 50)
		var gets metrics.Histogram
		next := func(rng *rand.Rand) string { return keys[rng.Intn(len(keys))] }
		seconds, err := b.mixedPhase(pr.Seed, 7000, perClient, putFrac, valueSize, next, &gets, &sink)
		if err != nil {
			return err
		}
		if seconds > 0 {
			cell.GetTput = float64(gets.N()) / seconds
		}
		cell.GetP99Micros = gets.Percentile(99) * 1e6
		local, replica := served()
		cell.ServedLocal, cell.ServedReplica = local-baseLocal, replica-baseReplica
		if d.Harmonia != nil {
			st := d.Harmonia.Stats()
			cell.Routed = st.Routed
			cell.Fallbacks = st.DirtyFallbacks + st.TaintFallbacks
		}
		return nil
	})
	return cell, err
}

// ReadScaleSweep runs the full grid on the RunCells worker pool and
// returns its cells in grid order with the sweep's claims.
func ReadScaleSweep(pr Params) ([]ReadScaleCell, []Claim, error) {
	cells, err := grid[ReadScaleCell]{
		Dims: []int{len(readScaleSystems), len(ReadScaleReplicas), len(ReadScalePutFracs)},
		Cell: func(pr Params, ix []int) (ReadScaleCell, error) {
			return readScaleRun(pr, readScaleSystems[ix[0]], ReadScaleReplicas[ix[1]], ReadScalePutFracs[ix[2]])
		},
	}.Run(pr)
	if err != nil {
		return nil, nil, err
	}
	return cells, readScaleClaims(cells), nil
}

// readScaleClaims are the sentences the sweep backs, read off the
// read-only cells at the largest R against the primary-reads baseline
// (NICEKV) there: harmonia scales near-linearly, well past the 2x bar,
// with most reads served by non-primary replicas (7/8 if spread evenly
// over R=8); static LB, which spreads every read, sits at R; and only
// harmonia cells touch the harmonia counters.
func readScaleClaims(cells []ReadScaleCell) []Claim {
	maxR := ReadScaleReplicas[len(ReadScaleReplicas)-1]
	readOnly := make(map[string]ReadScaleCell)
	var foreign float64
	for _, c := range cells {
		if c.R == maxR && c.PutFrac == 0 {
			readOnly[c.System] = c
		}
		if c.System != "NICEKV+harmonia" {
			foreign += float64(c.Routed + c.Fallbacks)
		}
	}
	base, harm := readOnly["NICEKV"].GetTput, readOnly["NICEKV+harmonia"]
	return []Claim{
		{"harmonia_read_speedup_r8", harm.GetTput / base, 6, 8},
		{"lb_read_speedup_r8", readOnly["NICEKV+LB"].GetTput / base, 7.5, 8.1},
		{"harmonia_replica_share_r8", float64(harm.ServedReplica) / float64(harm.ServedLocal+harm.ServedReplica), 0.8, 0.9},
		{"harmonia_counters_elsewhere", foreign, 0, 0},
	}
}
