// Command nicekv boots a simulated NICEKV cluster, drives a configurable
// put/get workload against it, and prints per-operation statistics. It is
// the quickest way to see the whole stack — OpenFlow fabric, metadata
// service, storage nodes, clients — working end to end.
//
// Usage:
//
//	nicekv -nodes 15 -r 3 -ops 1000 -size 1024 -putratio 0.2 -lb
//	nicekv -cache        # serve hot keys from the switch (in-switch cache)
//	nicekv -harmonia     # spread clean-key reads over all replicas (in-network conflict detection)
//	nicekv -fail 2       # crash node 2 mid-run and watch recovery
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 15, "storage nodes")
		r           = flag.Int("r", 3, "replication level")
		clients     = flag.Int("clients", 2, "client hosts")
		ops         = flag.Int("ops", 1000, "operations per client")
		size        = flag.Int("size", 1024, "object size in bytes")
		putRatio    = flag.Float64("putratio", 0.2, "fraction of operations that are puts")
		lb          = flag.Bool("lb", false, "enable in-network get load balancing")
		cache       = flag.Bool("cache", false, "enable the in-switch hot-key cache")
		harmonia    = flag.Bool("harmonia", false, "enable in-network conflict detection (reads of clean keys spread over all replicas)")
		durable     = flag.Bool("durable", false, "enable the durable storage engine (WAL + snapshots + eviction)")
		budget      = flag.Int64("mem-budget", 0, "per-node memory budget in bytes for -durable (0 = unbounded)")
		groupCommit = flag.Bool("groupcommit", false, "coalesce concurrent WAL fsyncs into one forced write (with -durable)")
		batchWindow = flag.Duration("batchwindow", 0, "put accumulator gather window, e.g. 100us (0 = off)")
		coalesce    = flag.Bool("coalesce", false, "share one store read among concurrent gets of the same key")
		failNode    = flag.Int("fail", -1, "crash this node mid-run (and restart it later)")
		seed        = flag.Int64("seed", 1, "simulation seed")
		trace       = flag.Int("trace", 0, "print the first N packet events (0 = off)")
	)
	flag.Parse()

	opts := cluster.DefaultOptions()
	opts.Nodes = *nodes
	opts.R = *r
	opts.Clients = *clients
	opts.LoadBalance = *lb
	opts.Cache = *cache
	opts.Harmonia = *harmonia
	opts.DurableStore = *durable
	opts.StoreMemoryBudget = *budget
	opts.GroupCommit = *groupCommit
	if *groupCommit {
		opts.MaxSyncDelay = 20 * time.Microsecond
	}
	opts.PutBatchWindow = *batchWindow
	opts.CoalesceGets = *coalesce
	opts.Seed = *seed
	d := cluster.NewNICE(opts)
	if err := d.Settle(); err != nil {
		fmt.Fprintln(os.Stderr, "nicekv:", err)
		os.Exit(1)
	}
	d.Service.SetTrace(func(f string, a ...any) {
		fmt.Printf("  [metadata] "+f+"\n", a...)
	})
	if *trace > 0 {
		left := *trace
		d.Net.AddTap(func(ev netsim.TraceEvent) {
			if left > 0 {
				fmt.Println("  [pkt]", ev)
				left--
			}
		})
	}

	if *failNode >= 0 && *failNode < *nodes {
		d.Sim.After(100*time.Millisecond, func() {
			fmt.Printf("  [harness] crashing node %d\n", *failNode)
			d.Nodes[*failNode].Crash()
		})
		d.Sim.After(5*time.Second, func() {
			fmt.Printf("  [harness] restarting node %d\n", *failNode)
			d.Nodes[*failNode].Restart()
		})
	}
	var putLat, getLat metrics.Histogram
	var putFail, getFail int
	err := cluster.RunClients(d.Sim, *clients, func(i int, p *sim.Proc) error {
		c := d.Clients[i]
		rng := rand.New(rand.NewSource(*seed + int64(i)))
		stored := 0
		for n := 0; n < *ops; n++ {
			if stored == 0 || rng.Float64() < *putRatio {
				key := fmt.Sprintf("c%d-k%d", i, stored)
				if res, err := c.Put(p, key, n, *size); err != nil {
					putFail++
				} else {
					putLat.Add(res.Latency)
					stored++
				}
			} else {
				key := fmt.Sprintf("c%d-k%d", i, rng.Intn(stored))
				if res, err := c.Get(p, key); err != nil || !res.Found {
					getFail++
				} else {
					getLat.Add(res.Latency)
				}
			}
		}
		return nil // failed ops are counted, not fatal
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nicekv:", err)
		os.Exit(1)
	}

	fmt.Printf("\ncluster: %d nodes, R=%d, %d clients, lb=%v, cache=%v, harmonia=%v\n", *nodes, *r, *clients, *lb, *cache, *harmonia)
	fmt.Printf("simulated time: %v\n", d.Sim.Now())
	pr := func(name string, h *metrics.Histogram, fails int) {
		if h.N() == 0 {
			fmt.Printf("%-5s none\n", name)
			return
		}
		fmt.Printf("%-5s %s failed=%d\n", name, h.Summary(), fails)
	}
	pr("put", &putLat, putFail)
	pr("get", &getLat, getFail)
	if *batchWindow > 0 || *coalesce || *groupCommit {
		var commits, batched, coalGets, combined int64
		for _, n := range d.Nodes {
			ns := n.Stats()
			commits += ns.BatchCommits
			batched += ns.BatchedPuts
			coalGets += ns.GetsCoalesced
			combined += n.Store().Stats().CombinedWrites
		}
		meanBatch := 0.0
		if commits > 0 {
			meanBatch = float64(batched) / float64(commits)
		}
		fmt.Printf("batching: commit batches=%d mean batch=%.2f combined prepare writes=%d coalesced gets=%d\n",
			commits, meanBatch, combined, coalGets)
		if *durable {
			sc := d.StorageCounters()
			fmt.Printf("batching: fsyncs=%d coalesced fsyncs=%d records/fsync=%.2f\n",
				sc.Fsyncs, sc.CoalescedSyncs, sc.MeanSyncBatch())
		}
	}
	if d.Cache != nil {
		fmt.Printf("cache: %s\n", d.Cache.Stats())
	}
	if d.Harmonia != nil {
		var local, replica int64
		for _, n := range d.Nodes {
			ns := n.Stats()
			local += ns.GetsServedLocal
			replica += ns.GetsServedAsReplica
		}
		fmt.Printf("harmonia: %s\n", d.Harmonia.Stats())
		fmt.Printf("harmonia: gets served by primary=%d by other replicas=%d\n", local, replica)
	}
	if *durable {
		fmt.Printf("storage: %s\n", d.StorageCounters())
	}
	fmt.Printf("network: %s over all links, %d flow entries, %d groups\n",
		metrics.FormatBytes(d.Net.TotalLinkBytes()), d.Core.Table().Len(), d.Core.Groups().Len())
	d.Close()
}
