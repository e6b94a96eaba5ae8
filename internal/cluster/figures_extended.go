package cluster

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Extended experiments beyond the paper's figures: the full YCSB core
// suite, and the abstract's scalability claim measured directly. Their
// cells run in sequence under pr.Seed itself rather than as a RunCells
// grid.

// YCSBAllWorkloads runs the remaining YCSB core workloads (A update-heavy,
// B read-mostly, D read-latest) alongside the paper's C and F, for NICE
// and both NOOB baselines.
func YCSBAllWorkloads(pr Params, clients int) (*Figure, error) {
	workloads := []string{"A", "B", "C", "D", "F"}
	tputs := make([]float64, len(lbSystems)*len(workloads))
	for wi, wl := range workloads {
		for si, sys := range lbSystems {
			tput, err := ycsbCell(pr, sys.Arm, clients, wl)
			if err != nil {
				return nil, err
			}
			tputs[si*len(workloads)+wi] = tput
		}
	}
	return &Figure{
		ID:     "ycsb-all",
		Title:  fmt.Sprintf("YCSB core suite (zipfian, 1KB, %d clients x %d ops)", clients, pr.Ops),
		XLabel: "workload",
		YLabel: "operations per second, aggregate",
		Series: seriesOf(systemNames(lbSystems), workloads, tputs, identity),
	}, nil
}

// ScaleOutThroughput measures the abstract's scalability claim: grow the
// cluster and offered load together (weak scaling) and watch aggregate
// put throughput. NICE has no shared chokepoint; NOOB routed through a
// gateway stops scaling at the gateway.
func ScaleOutThroughput(pr Params) (*Figure, error) {
	const objSize = 64 << 10
	sizes := []int{6, 12, 24}
	ss := []system{{"NICE", "NICE"}, {"NOOB+RAG (gateway)", "NOOB+RAG"}}
	tputs := make([]float64, len(ss)*len(sizes))
	for ni, n := range sizes {
		for si, sys := range ss {
			opts := seededOptions(pr.Seed)
			opts.Nodes = n
			opts.Clients = n / 2
			err := withBench(sys.Arm, opts, 0, func(b *bench) error {
				// Every client writes its own keys as fast as it can.
				seconds, err := b.Run(len(b.Clients), func(c int, p *sim.Proc) error {
					for k := 0; k < pr.Ops; k++ {
						if _, err := b.Clients[c].Put(p, fmt.Sprintf("c%d-k%d", c, k), "v", objSize); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				if seconds <= 0 {
					return fmt.Errorf("scale-out: no simulated time elapsed")
				}
				tputs[si*len(sizes)+ni] = float64(len(b.Clients)*pr.Ops) / seconds
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return &Figure{
		ID:     "scale-out",
		Title:  "Weak scaling: aggregate 64KB put throughput as nodes and clients double",
		XLabel: "nodes",
		YLabel: "puts per second, aggregate",
		Series: seriesOf(systemNames(ss), labels("%d", sizes), tputs, identity),
		Notes: []string{
			"weak scaling: clients = nodes/2, each issuing the same op count;",
			"flat or rising per-node throughput means no shared bottleneck (the abstract's scalability claim)"},
	}, nil
}

// FabricComparison contrasts the three supported fabrics on the same
// workload: single hardware switch (the paper's platform), client-edge
// OVS (§5.1 workaround), and leaf-spine (multi-switch, §6 note).
func FabricComparison(pr Params) (*Figure, error) {
	const size = 64 << 10
	fabrics := []struct {
		name, arm string
		leaves    int
	}{{"single-switch", "NICE", 0}, {"edge-ovs", "NICE+edgeovs", 0}, {"leaf-spine(3)", "NICE", 3}}
	puts := Series{System: "put"}
	gets := Series{System: "get"}
	for _, f := range fabrics {
		var ph, gh metrics.Histogram
		err := withBench(f.arm, seededOptions(pr.Seed), f.leaves, func(b *bench) error {
			_, err := b.Run(1, func(_ int, p *sim.Proc) error {
				for i := 0; i < pr.Ops; i++ {
					key := fmt.Sprintf("k%d", i)
					res, err := b.Clients[0].Put(p, key, "v", size)
					if err != nil {
						return err
					}
					ph.Add(res.Latency)
					if err := getRepeat(b.Clients[0], p, key, 1, &gh); err != nil {
						return err
					}
				}
				return nil
			})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fabric %s: %w", f.name, err)
		}
		puts.Points = append(puts.Points, Point{X: f.name, Value: ph.Mean()})
		gets.Points = append(gets.Points, Point{X: f.name, Value: gh.Mean()})
	}
	return &Figure{
		ID:     "fabric",
		Title:  "Fabric comparison: 64KB put/get latency across switch topologies",
		XLabel: "fabric",
		YLabel: "seconds per op, mean",
		Series: []Series{puts, gets},
	}, nil
}

// QuorumReadOverhead quantifies §3.3's motivation: majority-based
// designs (Paxos/Raft-style) must touch a majority of replicas on every
// read, while NICE's consistency-aware fault tolerance lets one replica
// answer. Reported per get: latency and total network bytes.
func QuorumReadOverhead(pr Params) (*Figure, error) {
	const size = 1 << 10
	fig := &Figure{
		ID:     "quorum-read",
		Title:  "Read-side cost of quorum consistency (R=5, 1KB objects)",
		XLabel: "metric",
		YLabel: "per-get value",
		Notes: []string{
			"§3.3: quorum designs pay a majority of replica touches on every read;",
			"consistency-aware fault tolerance answers from any single consistent replica"},
	}
	opts := seededOptions(pr.Seed)
	opts.R = 5
	for _, sys := range []system{{"NICE (1 replica/read)", "NICE+LB"}, {"NOOB quorum (majority/read)", "NOOB+quorumrw"}} {
		var h metrics.Histogram
		var linkBytes int64
		err := withBench(sys.Arm, opts, 0, func(b *bench) error {
			_, err := b.Run(1, func(_ int, p *sim.Proc) error {
				if _, err := b.Clients[0].Put(p, "q", "v", size); err != nil {
					return err
				}
				b.Net.ResetLinkStats()
				return getRepeat(b.Clients[0], p, "q", pr.Ops, &h)
			})
			linkBytes = b.Net.TotalLinkBytes()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("quorum-read %s: %w", sys.Arm, err)
		}
		fig.Series = append(fig.Series, Series{System: sys.Name, Points: []Point{
			{X: "latency-s", Value: h.Mean()}, {X: "net-bytes", Value: float64(linkBytes) / float64(pr.Ops)}}})
	}
	return fig, nil
}
