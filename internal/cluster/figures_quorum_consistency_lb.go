package cluster

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// QuorumSizes is Fig. 8's x-axis.
var QuorumSizes = []int{1, 3, 5, 7}

// quorumObjSize is Fig. 8's object size (1 MB).
const quorumObjSize = 1 << 20

// slowReplicas and slowLink reproduce Fig. 8's heterogeneity: three
// replicas throttled to 50 Mbps.
const slowReplicas = 3

func slowLink() netsim.LinkConfig { return netsim.Mbps(50, 5*time.Microsecond) }

// Fig8Quorum reproduces Fig. 8: put time (a) and achieved bandwidth (b)
// under quorum replication, R=7, three slow replicas, quorum size
// in {1,3,5,7}.
func Fig8Quorum(pr Params) (figTime, figBW *Figure, err error) {
	names := []string{"NICE", "NOOB"}
	lats, err := grid[float64]{
		Dims: []int{len(names), len(QuorumSizes)},
		Cell: func(pr Params, ix []int) (float64, error) {
			return quorumRun(pr, names[ix[0]], QuorumSizes[ix[1]])
		},
	}.Run(pr)
	if err != nil {
		return nil, nil, err
	}
	xs := labels("%d", QuorumSizes)
	figTime = &Figure{ID: "fig8a", Title: "Quorum replication: put time (R=7, 3 slow replicas)",
		XLabel: "quorum", YLabel: "seconds per put, mean",
		Series: seriesOf(names, xs, lats, identity)}
	figBW = &Figure{ID: "fig8b", Title: "Quorum replication: bandwidth (R=7, 3 slow replicas)",
		XLabel: "quorum", YLabel: "MB/s per put",
		Series: seriesOf(names, xs, lats, func(lat float64) float64 { return float64(quorumObjSize) / lat / 1e6 })}
	return figTime, figBW, nil
}

// quorumRun measures mean 1 MB any-k put latency into one partition
// whose last slowReplicas replicas sit behind throttled links.
func quorumRun(pr Params, arm string, k int) (float64, error) {
	opts := seededOptions(pr.Seed)
	opts.R = 7
	opts.QuorumK = k
	opts.OpTimeout = 5 * time.Second
	var h metrics.Histogram
	err := withBench(arm, opts, 0, func(b *bench) error {
		const part = 0
		reps := b.replicas(part)
		for _, idx := range reps[len(reps)-slowReplicas:] {
			b.Stacks[idx].Host().Port().Link().SetConfig(slowLink())
		}
		keys := keysIn(b.Space.PartitionOf, "obj-%d", part, pr.Ops)
		_, err := b.Run(1, func(_ int, p *sim.Proc) error {
			return putEach(b.Clients[0], p, keys, quorumObjSize, &h)
		})
		return err
	})
	return h.Mean(), err
}

// ReplicationLevels is Fig. 9/10's x-axis.
var ReplicationLevels = []int{1, 3, 5, 7, 9}

// ConsistencySizes are Fig. 9/10's two object sizes.
var ConsistencySizes = []int{4, 1 << 20}

// consistencyFigures runs a sizes x systems x replication-levels grid of
// mean latencies and renders one figure per object size from tmpl, whose
// ID and Title are formats taking the size label.
func consistencyFigures(pr Params, ss []system, tmpl Figure,
	cell func(pr Params, sys, r, size int) (float64, error)) (map[int]*Figure, error) {

	nr := len(ReplicationLevels)
	lats, err := grid[float64]{
		Dims: []int{len(ConsistencySizes), len(ss), nr},
		Cell: func(pr Params, ix []int) (float64, error) {
			return cell(pr, ix[1], ReplicationLevels[ix[2]], ConsistencySizes[ix[0]])
		},
	}.Run(pr)
	if err != nil {
		return nil, err
	}
	out := make(map[int]*Figure)
	for zi, size := range ConsistencySizes {
		fig := tmpl
		fig.ID = fmt.Sprintf(tmpl.ID, metrics.FormatSize(size))
		fig.Title = fmt.Sprintf(tmpl.Title, metrics.FormatSize(size))
		fig.Series = seriesOf(systemNames(ss), labels("%d", ReplicationLevels), lats[zi*len(ss)*nr:], identity)
		out[size] = &fig
	}
	return out, nil
}

// Fig9Consistency reproduces Fig. 9: put time vs replication level for
// NICE, NOOB primary-only, and NOOB 2PC (RAC routing), at 4 B and 1 MB.
func Fig9Consistency(pr Params) (map[int]*Figure, error) {
	ss := []system{{"NICE", "NICE"}, {"NOOB primary-only", "NOOB"}, {"NOOB 2PC", "NOOB+2PC"}}
	tmpl := Figure{ID: "fig9-%s", Title: "Consistency mechanism: put time, %s objects",
		XLabel: "R", YLabel: "seconds per put, mean"}
	return consistencyFigures(pr, ss, tmpl, func(pr Params, sys, r, size int) (float64, error) {
		return putLatency(pr, ss[sys].Arm, r, size)
	})
}

// putLatency measures the mean latency of pr.Ops puts of distinct keys
// at replication level r.
func putLatency(pr Params, arm string, r, size int) (float64, error) {
	opts := seededOptions(pr.Seed)
	opts.R = r
	keys := make([]string, pr.Ops)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%d", i)
	}
	var h metrics.Histogram
	err := withBench(arm, opts, 0, func(b *bench) error {
		_, err := b.Run(1, func(_ int, p *sim.Proc) error {
			return putEach(b.Clients[0], p, keys, size, &h)
		})
		return err
	})
	return h.Mean(), err
}

// lbSystems is the system axis of Figs. 10 and 12: every deployment
// spreads reads — NICE in the switch, the 2PC baseline through a
// replica-aware round-robin gateway (§6.5, §6.7: "added load-balancing
// latency").
var lbSystems = []system{{"NICE", "NICE+LB"}, {"NOOB primary-only", "NOOB"}, {"NOOB 2PC", "NOOB+2PC+RAG+roundrobin"}}

// Fig10LoadBalancing reproduces Fig. 10: weak scaling on one hot key —
// one put client plus R-1 get clients, all hammering the same object,
// with clients scaled alongside the replication level. The companion
// "get-only" series is the paper's line marker (workload without the put
// client). Values are mean operation latencies.
func Fig10LoadBalancing(pr Params) (map[int]*Figure, error) {
	// Every system is followed by its get-only marker row (odd indices).
	var ss []system
	for _, s := range lbSystems {
		ss = append(ss, s, system{s.Name + " get-only", s.Arm})
	}
	tmpl := Figure{ID: "fig10-%s", Title: "Load balancing weak scaling, %s objects",
		XLabel: "R (= clients)", YLabel: "seconds per op, mean",
		Notes: []string{
			"get-only rows are the paper's line markers (no put client); R=1 get-only has no clients and reads 0"}}
	return consistencyFigures(pr, ss, tmpl, func(pr Params, sys, r, size int) (float64, error) {
		return hotKeyCell(pr, ss[sys].Arm, r, size, sys%2 == 1)
	})
}

// hotKeyCell is one Fig. 10 cell: seed the hot object, then client 0 puts
// it (unless getOnly) while clients 1..r-1 get it, everyone pr.Ops times.
func hotKeyCell(pr Params, arm string, r, size int, getOnly bool) (float64, error) {
	opts := seededOptions(pr.Seed)
	opts.R = r
	opts.Clients = r
	var h metrics.Histogram
	err := withBench(arm, opts, 0, func(b *bench) error {
		const key = "hot"
		if _, err := b.Run(1, func(_ int, p *sim.Proc) error {
			_, err := b.Clients[0].Put(p, key, "v", size)
			return err
		}); err != nil {
			return fmt.Errorf("fig10 seed: %w", err)
		}
		first := 0
		if getOnly {
			first = 1
		}
		_, err := b.Run(r-first, func(c int, p *sim.Proc) error {
			if c += first; c > 0 {
				return getRepeat(b.Clients[c], p, key, pr.Ops, &h)
			}
			for i := 0; i < pr.Ops; i++ {
				res, err := b.Clients[0].Put(p, key, "v", size)
				if err != nil {
					return err
				}
				h.Add(res.Latency)
			}
			return nil
		})
		return err
	})
	if err != nil || h.N() == 0 {
		return 0, err
	}
	return h.Mean(), nil
}
