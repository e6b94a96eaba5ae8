package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/noob"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FTParams shapes the Fig. 11 scenario: a secondary fails at FailAt and
// rejoins at RejoinAt; three clients run a 20/80 put/get mix on one
// partition with 1 KB objects.
type FTParams struct {
	Duration  sim.Time
	FailAt    sim.Time
	RejoinAt  sim.Time
	Clients   int
	ThinkTime sim.Time // pause between client operations
	Seed      int64
}

// DefaultFTParams mirrors the paper's 120-second run.
func DefaultFTParams() FTParams {
	return FTParams{
		Duration:  120 * time.Second,
		FailAt:    30 * time.Second,
		RejoinAt:  90 * time.Second,
		Clients:   3,
		ThinkTime: 5 * time.Millisecond,
		Seed:      42,
	}
}

// FTResult is the Fig. 11 timeline.
type FTResult struct {
	PutRate  []float64 // ops/sec per one-second bucket
	GetRate  []float64
	FailRate []float64 // failed put attempts/sec
	Events   []string  // controller membership trace
}

// Figure renders the timeline as a figure (one row per second).
func (r *FTResult) Figure() *Figure {
	fig := &Figure{
		ID:     "fig11",
		Title:  "Fault tolerance: ops/sec timeline (secondary fails at 30s, rejoins at 90s)",
		XLabel: "second",
		YLabel: "operations per second",
		Notes:  r.Events,
	}
	n := max(len(r.PutRate), len(r.GetRate))
	for _, s := range []struct {
		name string
		rate []float64
	}{{"puts/s", r.PutRate}, {"gets/s", r.GetRate}, {"failed-puts/s", r.FailRate}} {
		series := Series{System: s.name}
		for i := 0; i < n; i++ {
			pt := Point{X: fmt.Sprintf("%d", i)}
			if i < len(s.rate) {
				pt.Value = s.rate[i]
			}
			series.Points = append(series.Points, pt)
		}
		fig.Series = append(fig.Series, series)
	}
	return fig
}

// Fig11FaultTolerance reproduces Fig. 11 on a NICE deployment. The
// clients run against the clock, not an op count, so the run ends at the
// simulator's time limit instead of a client join.
func Fig11FaultTolerance(fp FTParams) (*FTResult, error) {
	opts := seededOptions(fp.Seed)
	opts.Clients = fp.Clients
	res := &FTResult{}
	// +LB: gets spread over replicas, including the handoff.
	err := withBench("NICE+LB", opts, 0, func(b *bench) error {
		d := b.NICE
		d.Service.SetTrace(func(f string, a ...any) {
			res.Events = append(res.Events, fmt.Sprintf(f, a...))
		})
		if err := b.Settle(); err != nil {
			return err
		}

		const part = 0
		victim := b.replicas(part)[1] // a secondary
		keys := d.keysInPartition(part, 200)

		puts := metrics.NewTimeSeries(time.Second)
		gets := metrics.NewTimeSeries(time.Second)
		fails := metrics.NewTimeSeries(time.Second)

		for i := 0; i < fp.Clients; i++ {
			c := b.Clients[i]
			rng := rand.New(rand.NewSource(fp.Seed + int64(i)))
			d.Sim.Spawn(fmt.Sprintf("ft-client%d", i), func(p *sim.Proc) {
				if _, err := c.Put(p, keys[0], 0, 1<<10); err != nil {
					return
				}
				for p.Now() < fp.Duration {
					k := keys[rng.Intn(len(keys))]
					if rng.Float64() < 0.2 {
						if _, err := c.Put(p, k, 1, 1<<10); err != nil {
							fails.Add(p.Now(), 1)
						} else {
							puts.Add(p.Now(), 1)
						}
					} else {
						if _, err := c.Get(p, k); err == nil {
							gets.Add(p.Now(), 1)
						}
					}
					p.Sleep(fp.ThinkTime)
				}
			})
		}
		d.Sim.At(fp.FailAt, func() { d.Nodes[victim].Crash() })
		d.Sim.At(fp.RejoinAt, func() { d.Nodes[victim].Restart() })
		d.Sim.SetLimit(fp.Duration + time.Second)
		if err := d.Sim.Run(); err != nil {
			return err
		}
		res.PutRate = puts.Values()
		res.GetRate = gets.Values()
		res.FailRate = fails.Values()
		return nil
	})
	return res, err
}

// YCSBWorkloads are the paper's §6.7 choices.
var YCSBWorkloads = []string{"C", "F"}

// YCSBRecords is the preloaded record count (YCSB default).
const YCSBRecords = 1000

// Fig12YCSB reproduces Fig. 12: aggregate throughput under YCSB C and F
// for NICE, NOOB primary-only, and NOOB 2PC. pr.Ops is per client;
// the paper uses 10 clients x 20K operations on 1 KB objects.
func Fig12YCSB(pr Params, clients int) (*Figure, error) {
	tputs, err := grid[float64]{
		Dims: []int{len(lbSystems), len(YCSBWorkloads)},
		Cell: func(pr Params, ix []int) (float64, error) {
			return ycsbCell(pr, lbSystems[ix[0]].Arm, clients, YCSBWorkloads[ix[1]])
		},
	}.Run(pr)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "fig12",
		Title:  fmt.Sprintf("YCSB (zipfian, 1KB objects, %d clients x %d ops)", clients, pr.Ops),
		XLabel: "workload",
		YLabel: "operations per second, aggregate",
		Series: seriesOf(systemNames(lbSystems), YCSBWorkloads, tputs, identity),
	}, nil
}

// ycsbCell runs one workload on one system with `clients` clients.
func ycsbCell(pr Params, arm string, clients int, wlName string) (tput float64, err error) {
	opts := seededOptions(pr.Seed)
	opts.Clients = clients
	err = withBench(arm, opts, 0, func(b *bench) error {
		tput, err = ycsbRun(b, pr, wlName)
		return err
	})
	return tput, err
}

// ycsbRun loads the records through client 0, then drives every client
// through pr.Ops workload operations and returns aggregate throughput
// (ops/sec of simulated time).
func ycsbRun(b *bench, pr Params, wlName string) (float64, error) {
	w := workload.MustDefine(wlName, YCSBRecords)
	if _, err := b.Run(1, func(_ int, p *sim.Proc) error {
		for i := 0; i < YCSBRecords; i++ {
			if _, err := b.Clients[0].Put(p, w.Key(i), "v", w.ValueSize); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}

	seconds, err := b.Run(len(b.Clients), func(c int, p *sim.Proc) error {
		rng := rand.New(rand.NewSource(pr.Seed + int64(c)))
		cw := workload.MustDefine(wlName, YCSBRecords)
		cl := b.Clients[c]
		for n := 0; n < pr.Ops; n++ {
			op := cw.Next(rng)
			var err error
			switch op.Type {
			case workload.Read:
				_, err = cl.Get(p, op.Key)
			case workload.Update, workload.Insert:
				_, err = cl.Put(p, op.Key, "v", cw.ValueSize)
			case workload.ReadModifyWrite:
				if _, err = cl.Get(p, op.Key); err == nil {
					_, err = cl.Put(p, op.Key, "v", cw.ValueSize)
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(len(b.Clients)*pr.Ops) / seconds, nil
}

// SwitchScalabilityTable reproduces the §4.6 arithmetic with measured
// flow-table occupancy: entries per partition with and without load
// balancing, and the node count a 128K-entry switch supports.
func SwitchScalabilityTable() (*Figure, error) {
	fig := &Figure{
		ID:     "tab-switch",
		Title:  "Switch scalability (§4.6): forwarding entries per partition",
		XLabel: "config",
		YLabel: "entries (measured) / max nodes at 128K entries",
	}
	const tableCapacity = 128 * 1024
	entries := Series{System: "entries/partition"}
	maxNodes := Series{System: "max nodes @128K"}
	opts := DefaultOptions()
	for _, sys := range []system{{"no LB", "NICE"}, {fmt.Sprintf("LB, R=%d", opts.R), "NICE+LB"}} {
		err := withBench(sys.Arm, opts, 0, func(b *bench) error {
			if err := b.Settle(); err != nil {
				return err
			}
			per := b.NICE.Service.Stats().RulesPerPart
			entries.Points = append(entries.Points, Point{X: sys.Name, Value: float64(per)})
			maxNodes.Points = append(maxNodes.Points, Point{X: sys.Name, Value: float64(tableCapacity / per)})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	fig.Series = []Series{entries, maxNodes}
	fig.Notes = append(fig.Notes,
		"paper: 2N entries without LB (64K nodes), (R+1)N with LB (32K nodes at R=3);",
		"this implementation keeps the default primary rule alongside the R division rules, hence R+2")
	return fig, nil
}

// MembershipScalabilityTable measures the §4.1 claim: the cost of one
// membership change in messages, as the cluster grows. NICE needs O(S)
// switch updates + O(R) node messages; NOOB full membership needs O(N).
func MembershipScalabilityTable() (*Figure, error) {
	fig := &Figure{
		ID:     "tab-membership",
		Title:  "Membership maintenance cost per node failure",
		XLabel: "N",
		YLabel: "messages",
	}
	niceNode := Series{System: "NICE node msgs"}
	niceFlow := Series{System: "NICE switch msgs"}
	noobMsgs := Series{System: "NOOB msgs (full membership)"}
	gossipMsgs := Series{System: "NOOB msgs (epidemic)"}
	gossipRounds := Series{System: "NOOB gossip rounds"}
	for _, n := range []int{5, 15, 30} {
		x := fmt.Sprintf("%d", n)
		opts := DefaultOptions()
		opts.Nodes = n
		opts.Heartbeat = 100 * time.Millisecond // NICE only: the NOOB baseline has no heartbeats
		err := withBench("NICE", opts, 0, func(b *bench) error {
			if err := b.Settle(); err != nil {
				return err
			}
			d := b.NICE
			mods := func() int64 { return d.Core.Stats().FlowMods + d.Core.Stats().GroupMods }
			beforeMsgs, beforeFlow := d.Service.Stats().NodeMsgs, mods()
			d.Nodes[1].Crash()
			if err := d.Sim.RunUntil(d.Sim.Now() + time.Second); err != nil {
				return err
			}
			st := d.Service.Stats()
			if st.Failures != 1 {
				return fmt.Errorf("membership table: failure not detected at N=%d", n)
			}
			niceNode.Points = append(niceNode.Points, Point{X: x, Value: float64(st.NodeMsgs - beforeMsgs)})
			niceFlow.Points = append(niceFlow.Points, Point{X: x, Value: float64(mods() - beforeFlow)})
			return nil
		})
		if err == nil {
			err = withBench("NOOB", opts, 0, func(b *bench) error {
				b.NOOB.Member.BroadcastChange([]int{1})
				noobMsgs.Points = append(noobMsgs.Points, Point{X: x, Value: float64(b.NOOB.Member.MsgsSent())})
				return nil
			})
		}
		if err == nil {
			err = withBench("NOOB", opts, 0, func(b *bench) error {
				msgs, rounds, err := gossipDissemination(b.NOOB)
				gossipMsgs.Points = append(gossipMsgs.Points, Point{X: x, Value: float64(msgs)})
				gossipRounds.Points = append(gossipRounds.Points, Point{X: x, Value: float64(rounds)})
				return err
			})
		}
		if err != nil {
			return nil, err
		}
	}
	fig.Series = []Series{niceNode, niceFlow, noobMsgs, gossipMsgs, gossipRounds}
	fig.Notes = append(fig.Notes,
		"NICE columns must stay flat as N grows; the full-membership column grows linearly;",
		"the epidemic alternative ([41]) converges in O(log N) rounds but sends over O(N) messages")
	return fig, nil
}

// gossipDissemination measures one epidemic membership change on d:
// total messages and the simulated rounds until every member knows.
func gossipDissemination(d *NOOB) (msgs int64, rounds int, err error) {
	n := len(d.Stacks)
	var ips []netsim.IP
	for _, st := range d.Stacks {
		ips = append(ips, st.IP())
	}
	var members []*noob.GossipMember
	for i, st := range d.Stacks {
		g := noob.NewGossipMember(st, i, ips, 7100)
		g.Start()
		members = append(members, g)
	}
	members[0].Announce([]int{1})
	deadline := d.Sim.Now()
	allKnow := -1
	for step := 1; step <= 4*len(members); step++ {
		deadline += noob.GossipPeriod
		if err := d.Sim.RunUntil(deadline); err != nil {
			return 0, 0, err
		}
		know := 0
		for _, g := range members {
			if g.Epoch() >= 1 {
				know++
			}
		}
		if know == n {
			allKnow = step
			break
		}
	}
	if allKnow < 0 {
		return 0, 0, fmt.Errorf("gossip did not converge at N=%d", n)
	}
	// Drain the tail of the epidemic so the message count is final.
	if err := d.Sim.RunUntil(d.Sim.Now() + 5*time.Second); err != nil {
		return 0, 0, err
	}
	for _, g := range members {
		msgs += g.MsgsSent()
	}
	return msgs, allKnow, nil
}
