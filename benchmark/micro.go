package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Micro-drivers: host-time cost of one call into a layer's public
// functions, with inputs taken from the workload (its keys, its value
// size, its deployment's own flow table). They say what a layer costs
// per call; the host shares say how much of a run that adds up to.

// timeIt runs fn(n) three times and returns the best nanoseconds per
// iteration: the least-disturbed run is the one closest to the cost.
func timeIt(n int, fn func(n int)) float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		fn(n)
		if ns := float64(time.Since(t0).Nanoseconds()) / float64(n); rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// mustRun panics on a simulator failure: a micro-driver that cannot run
// is a bug in the benchmark, not a measurement.
func mustRun(s *sim.Simulator) {
	if err := s.Run(); err != nil {
		panic(fmt.Sprintf("benchmark: micro-driver: %v", err))
	}
}

// sink keeps the compiler from dropping a measured call's result.
var sink int

// microDisk charges the SSD model's fixed latencies.
type microDisk struct{}

func (microDisk) ReadDisk(p *sim.Proc, bytes int)  { p.Sleep(60 * time.Microsecond) }
func (microDisk) WriteDisk(p *sim.Proc, bytes int) { p.Sleep(80 * time.Microsecond) }

// microDrivers runs every micro-driver; scale shrinks the iteration
// counts (-smoke passes 0.1).
func microDrivers(sp spec, seed int64, scale float64) (map[string]float64, error) {
	m := map[string]float64{}
	timeIt := func(n int, fn func(n int)) float64 { return timeIt(max(int(float64(n)*scale), 8), fn) }
	keys := renderKeys(sp.keys)
	valueSize := sp.valueSize

	m["sim.event_ns"] = timeIt(200000, func(n int) {
		s := sim.New(1)
		for i := 0; i < n; i++ {
			s.After(time.Microsecond, func() {})
			mustRun(s)
		}
	})
	m["sim.sleepwake_ns"] = timeIt(200000, func(n int) {
		s := sim.New(1)
		s.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		mustRun(s)
	})
	m["sim.queue_handoff_ns"] = timeIt(200000, func(n int) {
		s := sim.New(1)
		q := sim.NewQueue[int](s)
		s.Spawn("consumer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Pop(p)
			}
		})
		s.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Push(i)
				p.Sleep(0)
			}
		})
		mustRun(s)
	})

	// One packet host -> switch -> host, at the workload's packet size.
	pktSize := valueSize
	if pktSize > transport.MTU {
		pktSize = transport.MTU
	}
	m["netsim.packet_hop_ns"] = timeIt(200000, func(n int) {
		s := sim.New(1)
		nw := netsim.NewNetwork(s)
		a := nw.NewHost("a", netsim.MustParseIP("10.0.0.1"))
		b := nw.NewHost("b", netsim.MustParseIP("10.0.0.2"))
		sw := nw.NewSwitch("sw", 2, 2*time.Microsecond)
		sw.SetPipeline(netsim.PipelineFunc(func(sw *netsim.Switch, pkt *netsim.Packet, in int) { sw.Output(1-in, pkt) }))
		nw.Connect(a.Port(), sw.Port(0), netsim.Gbps(1, 5*time.Microsecond))
		nw.Connect(b.Port(), sw.Port(1), netsim.Gbps(1, 5*time.Microsecond))
		b.SetHandler(func(pkt *netsim.Packet) { nw.RecyclePacket(pkt) })
		for i := 0; i < n; i++ {
			pkt := nw.NewPacket()
			pkt.DstIP, pkt.DstMAC = b.IP(), b.MAC()
			pkt.Proto, pkt.Size = netsim.ProtoUDP, pktSize+netsim.UDPHeaderSize
			a.Send(pkt)
			mustRun(s)
		}
	})

	// Lookup against the deployment's own populated core table, with the
	// get datagrams the workload's keys produce.
	d, _ := deploy(sp, seed, headlineRate)
	if err := d.Settle(); err != nil {
		d.Close()
		return nil, err
	}
	pkts := make([]netsim.Packet, len(keys))
	for i, k := range keys {
		pkts[i] = netsim.Packet{
			SrcIP: d.CStacks[0].IP(), DstIP: d.Unicast.AddrOfKey(k),
			Proto: netsim.ProtoUDP, DstPort: cluster.DataPort, Size: 64 + netsim.UDPHeaderSize,
		}
	}
	inPort := 0 // leaf-spine: the spine's port to leaf 0
	if !sp.open {
		inPort = d.Opts.Nodes + 1 // single switch: client 0's port
	}
	table := d.Core.Table()
	m["openflow.lookup_ns"] = timeIt(400000, func(n int) {
		for i := 0; i < n; i++ {
			table.Lookup(&pkts[i%len(pkts)], inPort)
		}
	})
	d.Close()

	// 1 MB to three receivers over a bare flooding switch, host MB/s.
	const mcastBytes, mcastXfers = 1 << 20, 8
	m["transport.mcast_mb_per_s"] = mcastBytes * 1e3 / timeIt(mcastXfers, func(n int) {
		s := sim.New(1)
		nw := netsim.NewNetwork(s)
		sw := nw.NewSwitch("sw", 4, 2*time.Microsecond)
		sw.SetPipeline(netsim.PipelineFunc(func(sw *netsim.Switch, pkt *netsim.Packet, in int) { sw.Flood(pkt, in) }))
		group := netsim.MustParseIP("239.1.1.1")
		var stacks []*transport.Stack
		for i := 0; i < 4; i++ {
			h := nw.NewHost(fmt.Sprintf("h%d", i), netsim.IPv4(10, 0, 0, byte(i+1)))
			nw.Connect(h.Port(), sw.Port(i), netsim.Gbps(1, 5*time.Microsecond))
			stacks = append(stacks, transport.NewStack(h))
		}
		for _, st := range stacks[1:] {
			st.Host().JoinMulticast(group)
			rx := st.MustBindMulticast(cluster.DataPort)
			s.Spawn("rx", func(p *sim.Proc) {
				for {
					if _, ok := rx.Recv(p); !ok {
						return
					}
				}
			})
		}
		s.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if _, err := stacks[0].SendMulticast(p, transport.McastOpts{
					To: group, ToPort: cluster.DataPort, Data: i, Size: mcastBytes, Receivers: 3,
				}); err != nil {
					panic(fmt.Sprintf("benchmark: micro-driver multicast: %v", err))
				}
			}
			s.Stop()
		})
		mustRun(s)
		s.Shutdown()
	}) // bytes per ns, times 1e3, is MB per second

	// One stream message of the workload's reply size, sender to receiver.
	m["transport.stream_msg_ns"] = timeIt(20000, func(n int) {
		s := sim.New(1)
		nw := netsim.NewNetwork(s)
		a := nw.NewHost("a", netsim.MustParseIP("10.0.0.1"))
		b := nw.NewHost("b", netsim.MustParseIP("10.0.0.2"))
		nw.Connect(a.Port(), b.Port(), netsim.Gbps(1, 5*time.Microsecond))
		sa, sb := transport.NewStack(a), transport.NewStack(b)
		ln := sb.MustListen(8000)
		s.Spawn("rx", func(p *sim.Proc) {
			conn, ok := ln.Accept(p)
			for ok {
				_, ok = conn.Recv(p)
			}
		})
		s.Spawn("tx", func(p *sim.Proc) {
			conn, err := sa.Dial(p, b.IP(), 8000)
			for i := 0; err == nil && i < n; i++ {
				err = conn.Send(p, i, pktSize)
			}
			if err != nil {
				panic(fmt.Sprintf("benchmark: micro-driver stream: %v", err))
			}
			s.Stop()
		})
		mustRun(s)
		s.Shutdown()
	})

	// Durable engine: commit+sync from eight concurrent writers (so syncs
	// coalesce, as under the workload), and a memory-tier get.
	const writers = 8
	m["storage.commit_sync_ns"] = timeIt(20000, func(n int) {
		s := sim.New(1)
		cfg := storage.DefaultConfig()
		cfg.SnapshotEvery = 0
		cfg.GroupCommit = true
		cfg.MaxSyncDelay = 100 * time.Microsecond
		e := storage.NewEngine(s, cfg, microDisk{})
		for w := 0; w < writers; w++ {
			s.Spawn("writer", func(p *sim.Proc) {
				for i := w; i < n; i += writers {
					e.Commit(keys[i%len(keys)], i, valueSize)
					e.Sync(p)
				}
			})
		}
		mustRun(s)
		s.Shutdown()
	})
	{
		s := sim.New(1)
		cfg := storage.DefaultConfig()
		cfg.SnapshotEvery = 0
		e := storage.NewEngine(s, cfg, microDisk{})
		for i, k := range keys {
			e.Commit(k, i, valueSize)
		}
		m["storage.get_mem_ns"] = timeIt(400000, func(n int) {
			s.Spawn("reader", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					e.Get(p, keys[i%len(keys)])
				}
			})
			mustRun(s)
		})
		s.Shutdown()
	}

	zipf := workload.NewZipfian(sp.keys)
	rng := rand.New(rand.NewSource(seed))
	m["workload.zipf_next_ns"] = timeIt(400000, func(n int) {
		for i := 0; i < n; i++ {
			sink += zipf.Next(rng)
		}
	})
	arr := workload.NewOpenLoop(20000, int64(time.Second)*20000/headlineRate, int64(openTick), seed)
	m["workload.openloop_arrival_ns"] = timeIt(400000, func(n int) {
		for got := 0; got < n; {
			got += arr.Tick(func(int32) {})
		}
	})
	space := ring.NewSpace(sp.options().Nodes)
	m["ring.partition_of_ns"] = timeIt(400000, func(n int) {
		for i := 0; i < n; i++ {
			sink += space.PartitionOf(keys[i%len(keys)])
		}
	})
	m["metrics.hist_add_ns"] = timeIt(400000, func(n int) {
		var h metrics.Histogram
		for i := 0; i < n; i++ {
			h.Add(sim.Time(i))
		}
	})
	// The sort-on-read: one percentile query after one more sample, on a
	// histogram already holding 100k.
	var h metrics.Histogram
	for i := 0; i < 100000; i++ {
		h.Add(sim.Time(rng.Int63n(int64(time.Millisecond))))
	}
	m["metrics.hist_percentile_ns"] = timeIt(10, func(n int) {
		for i := 0; i < n; i++ {
			h.Add(sim.Time(rng.Int63n(int64(time.Millisecond))))
			sink += int(h.Percentile(99) * 1e9)
		}
	})
	return m, nil
}
