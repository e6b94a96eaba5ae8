// Hotspot demonstrates in-network load balancing (§4.5): a handful of
// clients hammer one extremely popular object. With load balancing off,
// every get lands on the primary replica; with the §4.5 source-division
// rules installed, the switch spreads the same requests across all
// replicas — no extra machines, no extra hops:
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/sim"
)

const (
	clients = 6
	gets    = 300
	objSize = 64 << 10
)

func run(lb bool) {
	opts := cluster.DefaultOptions()
	opts.Nodes = 6
	opts.R = 3
	opts.Clients = clients
	opts.LoadBalance = lb
	d := cluster.NewNICE(opts)
	if err := d.Settle(); err != nil {
		log.Fatal(err)
	}

	const key = "celebrity-profile"
	// Seed the hot object.
	err := cluster.RunClients(d.Sim, 1, func(_ int, p *sim.Proc) error {
		_, err := d.Clients[0].Put(p, key, "pic", objSize)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	start := d.Sim.Now()
	var total sim.Time
	err = cluster.RunClients(d.Sim, clients, func(c int, p *sim.Proc) error {
		for n := 0; n < gets; n++ {
			res, err := d.Clients[c].Get(p, key)
			if err != nil {
				return err
			}
			total += res.Latency
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	part := d.Space.PartitionOf(key)
	view := d.Service.View(part)
	fmt.Printf("load balancing %-3v  makespan=%-12v mean-get=%-10v served by:",
		lb, d.Sim.Now()-start, total/sim.Time(clients*gets))
	for _, r := range view.Replicas {
		fmt.Printf("  node%d=%d", r.Index, d.Nodes[r.Index].Stats().Gets)
	}
	fmt.Println()
	d.Close()
}

func main() {
	fmt.Printf("%d clients each reading one hot %dKB object %d times\n\n",
		clients, objSize>>10, gets)
	run(false)
	run(true)
}
