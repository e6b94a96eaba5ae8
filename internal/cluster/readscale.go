package cluster

import (
	"fmt"
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

// ReadScaleReport is the full sweep result.
type ReadScaleReport struct {
	Nodes    int             `json:"nodes"`
	Clients  int             `json:"clients"`
	Keys     int             `json:"keys"`
	Replicas []int           `json:"replicas"`
	PutFracs []float64       `json:"put_fracs"`
	Cells    []ReadScaleCell `json:"cells"`
	// SpeedupAtMaxR is each system's read-only throughput at the largest
	// replication factor, relative to the NICEKV baseline in the same row.
	SpeedupAtMaxR map[string]float64 `json:"speedup_at_max_r"`
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

// ReadScaleSweep runs the full grid on the RunCells worker pool.
func ReadScaleSweep(pr Params) (*ReadScaleReport, error) {
	rep := &ReadScaleReport{
		Nodes:    readScaleNodes,
		Clients:  readScaleClients,
		Keys:     readScaleKeys,
		Replicas: ReadScaleReplicas,
		PutFracs: ReadScalePutFracs,
	}
	var err error
	rep.Cells, err = grid[ReadScaleCell]{
		Dims: []int{len(readScaleSystems), len(ReadScaleReplicas), len(ReadScalePutFracs)},
		Cell: func(pr Params, ix []int) (ReadScaleCell, error) {
			return readScaleRun(pr, readScaleSystems[ix[0]], ReadScaleReplicas[ix[1]], ReadScalePutFracs[ix[2]])
		},
	}.Run(pr)
	if err != nil {
		return nil, err
	}

	rep.SpeedupAtMaxR = make(map[string]float64)
	maxR := ReadScaleReplicas[len(ReadScaleReplicas)-1]
	var base float64
	for _, c := range rep.Cells {
		if c.System == "NICEKV" && c.R == maxR && c.PutFrac == 0 {
			base = c.GetTput
		}
	}
	if base > 0 {
		for _, c := range rep.Cells {
			if c.R == maxR && c.PutFrac == 0 {
				rep.SpeedupAtMaxR[c.System] = c.GetTput / base
			}
		}
	}
	return rep, nil
}

// ReadScaleFigure renders the read-only scaling row as a figure, one
// series per system over the replication-factor axis.
func ReadScaleFigure(rep *ReadScaleReport) *Figure {
	var readOnly []ReadScaleCell // system-major, then R: the grid's order
	for _, c := range rep.Cells {
		if c.PutFrac == 0 {
			readOnly = append(readOnly, c)
		}
	}
	return &Figure{
		ID:     "readscale",
		Title:  "Get throughput vs replication factor (single-partition working set)",
		XLabel: "replication factor",
		YLabel: "gets per second, aggregate",
		Notes: []string{
			fmt.Sprintf("%d nodes, %d closed-loop clients, %d keys on one partition, read-only row",
				rep.Nodes, rep.Clients, rep.Keys),
			"harmonia: clean keys spread over all live replicas; dirty keys pinned to the primary",
		},
		Series: seriesOf(readScaleSystems, labels("%d", rep.Replicas), readOnly,
			func(c ReadScaleCell) float64 { return c.GetTput }),
	}
}
