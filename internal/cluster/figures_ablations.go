package cluster

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Ablations: the design choices DESIGN.md §6 calls out, each measured as
// the same small workload with one mechanism swapped — the arm is the
// only thing that differs between a figure's columns, so both columns
// run under pr.Seed itself. Each ablation has a fixed full size; pr.Ops
// below it shrinks the run (smoke configurations).
const (
	ablEdgeGets = 20  // abl-edgeovs: gets of the one object
	ablLBGets   = 30  // abl-lb: gets per client
	ablDynGets  = 250 // abl-dynamiclb: gets per unit of client weight
	// ablDynWarmup is one rebalance period plus a second of slack: the
	// measured tail starts after the rebalancer has acted.
	ablDynWarmup = controller.RebalanceEvery + time.Second
)

// Ablations runs the four ablations: replication strategy, edge-OVS
// rewriting, the §4.5 division rules, and the §8 dynamic rebalancer.
func Ablations(pr Params) ([]*Figure, error) {
	var figs []*Figure
	for _, run := range []func(Params) (*Figure, error){ablReplication, ablEdgeOVS, ablLoadBalancing, ablDynamicLB} {
		fig, err := run(pr)
		if err != nil {
			return nil, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// ablation runs cell once per system — the mechanism under study first —
// and renders the one-row figure, noting every alternative's value over
// the first system's.
func ablation(fig Figure, x string, ss []system, cell func(arm string) (float64, error)) (*Figure, error) {
	vals := make([]float64, len(ss))
	for i, s := range ss {
		v, err := cell(s.Arm)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", fig.ID, s.Arm, err)
		}
		vals[i] = v
	}
	fig.Series = seriesOf(systemNames(ss), []string{x}, vals, identity)
	for i := 1; i < len(ss) && vals[0] > 0; i++ {
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s / %s = %.4g", ss[i].Name, ss[0].Name, vals[i]/vals[0]))
	}
	return &fig, nil
}

// ablReplication compares the put path across switch multicast (NICE),
// concurrent unicast and chain replication: one 1 MB put at R=3 into a
// cold cluster.
func ablReplication(pr Params) (*Figure, error) {
	const size, r = 1 << 20, 3
	pr.Ops = 1
	ss := []system{{"multicast", "NICE"}, {"unicast", "NOOB"}, {"chain", "NOOB+chain"}}
	return ablation(Figure{ID: "abl-replication", Title: "Replication strategy: one 1MB put, R=3",
		XLabel: "size", YLabel: "seconds per put"}, metrics.FormatSize(size), ss,
		func(arm string) (float64, error) { return putLatency(pr, arm, r, size) })
}

// ablEdgeOVS compares rewriting at the single hardware switch against the
// paper's §5.1 workaround, client-side Open vSwitch edges (the paper
// measured < 4 % loss for the workaround): mean latency of gets of one
// 64 KB object.
func ablEdgeOVS(pr Params) (*Figure, error) {
	const size = 64 << 10
	pr.Ops = min(pr.Ops, ablEdgeGets)
	ss := []system{{"hw-rewrite", "NICE"}, {"edge-ovs", "NICE+edgeovs"}}
	return ablation(Figure{ID: "abl-edgeovs", Title: "Rewrite placement: get latency, hardware switch vs client-edge OVS",
		XLabel: "size", YLabel: "seconds per get, mean"}, metrics.FormatSize(size), ss,
		func(arm string) (float64, error) { return getLatencyCell(pr, arm, size) })
}

// ablLoadBalancing isolates the §4.5 source-division rules: three
// clients in three divisions get one hot 256 KB object, with and without
// the rules; the value is the get phase's makespan.
func ablLoadBalancing(pr Params) (*Figure, error) {
	opts := seededOptions(pr.Seed)
	opts.Nodes, opts.Clients = 6, 3
	gets := min(pr.Ops, ablLBGets)
	ss := []system{{"lb-on", "NICE+LB"}, {"lb-off", "NICE"}}
	return ablation(Figure{ID: "abl-lb", Title: "Load-balancing rules: 3 clients reading one hot 256KB object",
		XLabel: "metric", YLabel: "seconds, get-phase makespan"}, "makespan", ss,
		func(arm string) (float64, error) {
			makespan, _, err := hotGetCell(arm, opts, func(int) int { return gets }, 0)
			return makespan, err
		})
}

// ablDynamicLB compares the static R-division rules with the §8 dynamic
// rebalancer under a skewed client population: two heavy clients whose
// divisions collide under the static mapping (192.168.0.0/19 and
// 192.168.32.0/19 share a /18; the dynamic /19 divisions can be split)
// beside two light ones. The run must outlast the 2 s rebalance period,
// so only gets that complete after ablDynWarmup count — by then the
// light clients are done and the mean is the heavy pair's. A run that
// ends inside the warm-up measures nothing and reads 0.
func ablDynamicLB(pr Params) (*Figure, error) {
	opts := seededOptions(pr.Seed)
	opts.Nodes, opts.Clients = 6, 4
	opts.ClientIPs = []netsim.IP{
		netsim.MustParseIP("192.168.0.1"),
		netsim.MustParseIP("192.168.32.1"),
		netsim.MustParseIP("192.168.64.1"),
		netsim.MustParseIP("192.168.128.1"),
	}
	weights := []int{6, 6, 1, 1}
	unit := min(pr.Ops, ablDynGets)
	ss := []system{{"dynamic", "NICE+dynamiclb"}, {"static", "NICE+LB"}}
	fig, err := ablation(Figure{ID: "abl-dynamiclb", Title: "Dynamic vs static divisions: two heavy clients colliding in one static division",
		XLabel: "metric", YLabel: "seconds per get, mean after the 3 s warm-up"}, "get", ss,
		func(arm string) (float64, error) {
			_, mean, err := hotGetCell(arm, opts, func(c int) int { return unit * weights[c] }, ablDynWarmup)
			return mean, err
		})
	if err == nil && unit < ablDynGets {
		fig.Notes = append(fig.Notes, fmt.Sprintf("reduced size (full size is -ops %d): a run that ends inside the warm-up reads 0", ablDynGets))
	}
	return fig, err
}

// hotGetCell seeds one hot 256 KB object through client 0, then every
// client c gets it gets(c) times. It returns the get phase's virtual
// seconds and the mean latency of the gets that completed after virtual
// time warmup.
func hotGetCell(arm string, opts Options, gets func(c int) int, warmup sim.Time) (makespan, mean float64, err error) {
	const key = "hot"
	var h metrics.Histogram
	err = withBench(arm, opts, 0, func(b *bench) (err error) {
		if _, err := b.Run(1, func(_ int, p *sim.Proc) error {
			_, err := b.Clients[0].Put(p, key, "v", 256<<10)
			return err
		}); err != nil {
			return err
		}
		makespan, err = b.Run(len(b.Clients), func(c int, p *sim.Proc) error {
			for n := gets(c); n > 0; n-- {
				res, err := b.Clients[c].Get(p, key)
				if err != nil {
					return err
				}
				if p.Now() > warmup {
					h.Add(res.Latency)
				}
			}
			return nil
		})
		return err
	})
	return makespan, h.Mean(), err
}
