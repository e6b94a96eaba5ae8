// Package repro's top-level benchmarks regenerate each figure of the
// paper at reduced scale (see cmd/nicebench for paper-scale runs). Each
// benchmark runs the experiment end to end and reports the headline
// simulated quantity via b.ReportMetric — e.g. the mean simulated put
// latency in microseconds — alongside the usual wall-clock ns/op of
// executing the whole experiment.
package repro

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/noob"
	"repro/internal/sim"
)

// benchParams keeps `go test -bench=.` quick; raise Ops via nicebench
// for paper-scale numbers.
var benchParams = cluster.Params{Ops: 20, Seed: 42}

func BenchmarkFig4RequestRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := cluster.Fig4RequestRouting(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		nice, _ := fig.SeriesValue("NICE", "4B")
		rog, _ := fig.SeriesValue("NOOB+ROG", "4B")
		b.ReportMetric(nice*1e6, "nice-get-us")
		b.ReportMetric(rog/nice, "speedup-vs-rog")
	}
}

func BenchmarkFig5Replication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f5, _, _, err := cluster.ReplicationFigures(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		nice, _ := f5.SeriesValue("NICE", "1MB")
		rog, _ := f5.SeriesValue("NOOB+ROG", "1MB")
		b.ReportMetric(nice*1e3, "nice-put-ms")
		b.ReportMetric(rog/nice, "speedup-vs-rog")
	}
}

func BenchmarkFig6NetworkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, f6, _, err := cluster.ReplicationFigures(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		nice, _ := f6.SeriesValue("NICE", "1MB")
		rac, _ := f6.SeriesValue("NOOB+RAC", "1MB")
		b.ReportMetric(nice/1e6, "nice-MB/put")
		b.ReportMetric(rac/nice, "load-reduction")
	}
}

func BenchmarkFig7LoadRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, f7, err := cluster.ReplicationFigures(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		nice, _ := f7.SeriesValue("NICE", "1MB")
		rac, _ := f7.SeriesValue("NOOB+RAC", "1MB")
		b.ReportMetric(nice, "nice-ratio")
		b.ReportMetric(rac, "noob-ratio")
	}
}

func BenchmarkFig8Quorum(b *testing.B) {
	pr := cluster.Params{Ops: 5, Seed: 42}
	for i := 0; i < b.N; i++ {
		figT, _, err := cluster.Fig8Quorum(pr)
		if err != nil {
			b.Fatal(err)
		}
		nice, _ := figT.SeriesValue("NICE", "1")
		noobV, _ := figT.SeriesValue("NOOB", "1")
		b.ReportMetric(nice*1e3, "nice-k1-ms")
		b.ReportMetric(noobV/nice, "speedup-k1")
	}
}

func BenchmarkFig9Consistency(b *testing.B) {
	pr := cluster.Params{Ops: 10, Seed: 42}
	for i := 0; i < b.N; i++ {
		figs, err := cluster.Fig9Consistency(pr)
		if err != nil {
			b.Fatal(err)
		}
		nice9, _ := figs[1<<20].SeriesValue("NICE", "9")
		noob9, _ := figs[1<<20].SeriesValue("NOOB primary-only", "9")
		b.ReportMetric(nice9*1e3, "nice-R9-1MB-ms")
		b.ReportMetric(noob9/nice9, "speedup-R9")
	}
}

func BenchmarkFig10LoadBalancing(b *testing.B) {
	pr := cluster.Params{Ops: 10, Seed: 42}
	for i := 0; i < b.N; i++ {
		figs, err := cluster.Fig10LoadBalancing(pr)
		if err != nil {
			b.Fatal(err)
		}
		nice9, _ := figs[1<<20].SeriesValue("NICE", "9")
		prim9, _ := figs[1<<20].SeriesValue("NOOB primary-only", "9")
		b.ReportMetric(nice9*1e3, "nice-R9-op-ms")
		b.ReportMetric(prim9/nice9, "speedup-R9")
	}
}

func BenchmarkFig11FaultTolerance(b *testing.B) {
	fp := cluster.DefaultFTParams()
	fp.Duration = 60 * time.Second
	fp.FailAt = 15 * time.Second
	fp.RejoinAt = 40 * time.Second
	fp.ThinkTime = 10 * time.Millisecond
	for i := 0; i < b.N; i++ {
		res, err := cluster.Fig11FaultTolerance(fp)
		if err != nil {
			b.Fatal(err)
		}
		// Put unavailability: seconds with zero successful puts after the
		// failure (paper: < 2s + the client's 2s retry back-off).
		outage := 0
		for s := 15; s < 40 && s < len(res.PutRate); s++ {
			if res.PutRate[s] == 0 {
				outage++
			}
		}
		b.ReportMetric(float64(outage), "put-outage-sec")
	}
}

func BenchmarkFig12YCSB(b *testing.B) {
	pr := cluster.Params{Ops: 300, Seed: 42}
	for i := 0; i < b.N; i++ {
		fig, err := cluster.Fig12YCSB(pr, 6)
		if err != nil {
			b.Fatal(err)
		}
		niceF, _ := fig.SeriesValue("NICE", "F")
		twopcF, _ := fig.SeriesValue("NOOB 2PC", "F")
		b.ReportMetric(niceF, "nice-F-ops/s")
		b.ReportMetric(niceF/twopcF, "speedup-F-vs-2pc")
	}
}

func BenchmarkSwitchScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := cluster.SwitchScalabilityTable()
		if err != nil {
			b.Fatal(err)
		}
		noLB, _ := fig.SeriesValue("max nodes @128K", "no LB")
		b.ReportMetric(noLB, "max-nodes-noLB")
	}
}

func BenchmarkMembershipScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := cluster.MembershipScalabilityTable()
		if err != nil {
			b.Fatal(err)
		}
		n30, _ := fig.SeriesValue("NICE node msgs", "30")
		noobN30, _ := fig.SeriesValue("NOOB msgs (full membership)", "30")
		b.ReportMetric(n30, "nice-msgs-N30")
		b.ReportMetric(noobN30, "noob-msgs-N30")
	}
}

// Ablation benches: the design choices DESIGN.md calls out.

// BenchmarkAblationReplicationStrategies compares the put path across
// switch multicast (NICE), concurrent unicast, and chain replication for
// a 1 MB object at R=3.
func BenchmarkAblationReplicationStrategies(b *testing.B) {
	const size = 1 << 20
	putOnce := func(d *cluster.NOOB) float64 {
		var lat sim.Time
		d.Sim.Spawn("driver", func(p *sim.Proc) {
			res, err := d.Clients[0].Put(p, "obj", "v", size)
			if err != nil {
				b.Fatal(err)
			}
			lat = res.Latency
			d.Sim.Stop()
		})
		if err := d.Sim.Run(); err != nil {
			b.Fatal(err)
		}
		d.Close()
		return lat.Seconds()
	}
	for i := 0; i < b.N; i++ {
		// NICE multicast.
		nopts := cluster.DefaultOptions()
		nd := cluster.NewNICE(nopts)
		if err := nd.Settle(); err != nil {
			b.Fatal(err)
		}
		var niceLat sim.Time
		nd.Sim.Spawn("driver", func(p *sim.Proc) {
			res, err := nd.Clients[0].Put(p, "obj", "v", size)
			if err != nil {
				b.Fatal(err)
			}
			niceLat = res.Latency
			nd.Sim.Stop()
		})
		if err := nd.Sim.Run(); err != nil {
			b.Fatal(err)
		}
		nd.Close()

		uo := cluster.DefaultNOOBOptions()
		unicast := putOnce(cluster.NewNOOB(uo))
		co := cluster.DefaultNOOBOptions()
		co.Replication = noob.Chain
		chain := putOnce(cluster.NewNOOB(co))

		b.ReportMetric(niceLat.Seconds()*1e3, "multicast-ms")
		b.ReportMetric(unicast*1e3, "unicast-ms")
		b.ReportMetric(chain*1e3, "chain-ms")
	}
}

// BenchmarkAblationEdgeOVS compares rewriting at the single hardware
// switch against the paper's §5.1 workaround (client-side Open vSwitch
// edges): the paper measured <4% loss for the workaround.
func BenchmarkAblationEdgeOVS(b *testing.B) {
	run := func(edge bool) float64 {
		opts := cluster.DefaultOptions()
		opts.EdgeOVS = edge
		d := cluster.NewNICE(opts)
		if err := d.Settle(); err != nil {
			b.Fatal(err)
		}
		var total sim.Time
		d.Sim.Spawn("driver", func(p *sim.Proc) {
			c := d.Clients[0]
			if _, err := c.Put(p, "k", "v", 64<<10); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				res, err := c.Get(p, "k")
				if err != nil {
					b.Fatal(err)
				}
				total += res.Latency
			}
			d.Sim.Stop()
		})
		if err := d.Sim.Run(); err != nil {
			b.Fatal(err)
		}
		d.Close()
		return (total / 20).Seconds()
	}
	for i := 0; i < b.N; i++ {
		hw := run(false)
		ovs := run(true)
		b.ReportMetric(hw*1e6, "hw-rewrite-us")
		b.ReportMetric(ovs*1e6, "edge-ovs-us")
		b.ReportMetric((ovs-hw)/hw*100, "ovs-overhead-pct")
	}
}

// BenchmarkAblationLoadBalancing isolates the §4.5 source-division rules:
// the same hot-object get workload with and without them.
func BenchmarkAblationLoadBalancing(b *testing.B) {
	run := func(lb bool) float64 {
		opts := cluster.DefaultOptions()
		opts.Nodes = 6
		opts.Clients = 3
		opts.LoadBalance = lb
		d := cluster.NewNICE(opts)
		if err := d.Settle(); err != nil {
			b.Fatal(err)
		}
		d.Sim.Spawn("seed", func(p *sim.Proc) {
			if _, err := d.Clients[0].Put(p, "hot", "v", 256<<10); err != nil {
				b.Fatal(err)
			}
			d.Sim.Stop()
		})
		if err := d.Sim.Run(); err != nil {
			b.Fatal(err)
		}
		start := d.Sim.Now()
		g := sim.NewGroup(d.Sim)
		for i := 0; i < 3; i++ {
			c := d.Clients[i]
			g.Add(1)
			d.Sim.Spawn("getter", func(p *sim.Proc) {
				defer g.Done()
				for n := 0; n < 30; n++ {
					if _, err := c.Get(p, "hot"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		d.Sim.Spawn("join", func(p *sim.Proc) { g.Wait(p); d.Sim.Stop() })
		if err := d.Sim.Run(); err != nil {
			b.Fatal(err)
		}
		makespan := (d.Sim.Now() - start).Seconds()
		d.Close()
		return makespan
	}
	for i := 0; i < b.N; i++ {
		off := run(false)
		on := run(true)
		b.ReportMetric(off*1e3, "lb-off-ms")
		b.ReportMetric(on*1e3, "lb-on-ms")
		b.ReportMetric(off/on, "lb-speedup")
	}
}

// BenchmarkSimulatorThroughput measures the raw event rate of the
// deterministic kernel: packets forwarded per wall-clock second through a
// hot switch path.
func BenchmarkSimulatorThroughput(b *testing.B) {
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	a := nw.NewHost("a", netsim.MustParseIP("10.0.0.1"))
	c := nw.NewHost("b", netsim.MustParseIP("10.0.0.2"))
	swt := nw.NewSwitch("sw", 2, time.Microsecond)
	nw.Connect(a.Port(), swt.Port(0), netsim.Gbps(10, 0))
	nw.Connect(c.Port(), swt.Port(1), netsim.Gbps(10, 0))
	swt.SetPipeline(netsim.PipelineFunc(func(sw *netsim.Switch, pkt *netsim.Packet, in int) {
		sw.Output(1-in, pkt)
	}))
	got := 0
	c.SetHandler(func(pkt *netsim.Packet) { got++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(&netsim.Packet{DstIP: c.IP(), Proto: netsim.ProtoUDP, Size: 1400})
		if i%1024 == 0 {
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if got == 0 {
		b.Fatal("no packets delivered")
	}
}

// BenchmarkAblationDynamicLB compares the paper's static R-division load
// balancing with the §8 future-work dynamic rebalancer under a skewed
// client population: two heavy clients whose divisions collide under the
// static mapping.
func BenchmarkAblationDynamicLB(b *testing.B) {
	run := func(dynamic bool) float64 {
		opts := cluster.DefaultOptions()
		opts.Nodes = 6
		opts.R = 3
		opts.Clients = 4
		opts.LoadBalance = true
		opts.DynamicLB = dynamic
		// Two heavy clients in 192.168.0.0/19 and 192.168.32.0/19: the
		// static /18 division maps both onto the same replica; the
		// dynamic /19 divisions can be split.
		opts.ClientIPs = []netsim.IP{
			netsim.MustParseIP("192.168.0.1"),
			netsim.MustParseIP("192.168.32.1"),
			netsim.MustParseIP("192.168.64.1"),
			netsim.MustParseIP("192.168.128.1"),
		}
		d := cluster.NewNICE(opts)
		if err := d.Settle(); err != nil {
			b.Fatal(err)
		}
		const key = "hot"
		d.Sim.Spawn("seed", func(p *sim.Proc) {
			if _, err := d.Clients[0].Put(p, key, "v", 256<<10); err != nil {
				b.Fatal(err)
			}
			d.Sim.Stop()
		})
		if err := d.Sim.Run(); err != nil {
			b.Fatal(err)
		}
		// Clients 0 and 1 are heavy and share a static division; run long
		// enough for the 2s rebalance period to act, and measure only the
		// tail of the run.
		var total sim.Time
		var ops int
		g := sim.NewGroup(d.Sim)
		for i, weight := range []int{6, 6, 1, 1} {
			c := d.Clients[i]
			n := 250 * weight
			g.Add(1)
			d.Sim.Spawn("getter", func(p *sim.Proc) {
				defer g.Done()
				for k := 0; k < n; k++ {
					res, err := c.Get(p, key)
					if err != nil {
						b.Fatal(err)
					}
					if p.Now() > 3*time.Second {
						total += res.Latency
						ops++
					}
				}
			})
		}
		d.Sim.Spawn("join", func(p *sim.Proc) { g.Wait(p); d.Sim.Stop() })
		if err := d.Sim.Run(); err != nil {
			b.Fatal(err)
		}
		if ops == 0 {
			d.Close()
			return 0
		}
		mean := (total / sim.Time(ops)).Seconds()
		d.Close()
		return mean
	}
	for i := 0; i < b.N; i++ {
		static := run(false)
		dyn := run(true)
		b.ReportMetric(static*1e6, "static-get-us")
		b.ReportMetric(dyn*1e6, "dynamic-get-us")
		b.ReportMetric(static/dyn, "dynamic-speedup")
	}
}
