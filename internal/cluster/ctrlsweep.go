package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// The ctrlsweep experiment measures what a controller crash actually
// costs: at t0 the active metadata host fail-stops and, in the same
// instant, one storage replica of partition 0 crashes — the worst
// moment to lose the brain, because only a controller can install the
// handoff that restores put availability for that partition. Two arms
// differ only in the control plane:
//
//   - none:    a single controller, no replica. The partition never
//              heals; the arm is the negative control.
//   - standby: the §4.1 hot standby. It restores views, statuses and
//              cache install records from the NetChain-style replicated
//              store it shares with the primary (internal/ctrlchain)
//              and fences the zombie.
//
// t0 falls at a seed-drawn offset inside a heartbeat period: how long
// the standby's watchdog takes to notice depends on where in its period
// the pings stop, so the takeover latency is a distribution across
// seeds, not one number.
//
// Every arm runs the in-switch cache with a hair trigger so the sweep
// also times how long the cache stays headless: a key made hot only
// after t0 cannot be installed until a live controller manages the
// switch again.

// ctrlSweepCap bounds how long one cell waits for recovery; a metric
// that misses the cap is reported in Unrecovered, not in the summary.
const ctrlSweepCap = 3 * time.Second

// ctrlArms lists the sweep arms in report order; every arm runs the
// in-switch cache.
var ctrlArms = []system{
	{"none", "NICEKV+cache"},
	{"standby", "NICEKV+cache+standby"},
}

// ctrlCell is one (arm, seed) measurement; negative latencies mean the
// event never happened before ctrlSweepCap.
type ctrlCell struct {
	takeover, handoff, put, cache sim.Time
}

// CtrlArmResult aggregates one arm across seeds. All summaries are in
// seconds and cover only the seeds where the event occurred; Seeds
// minus a summary's N is how often it never did.
type CtrlArmResult struct {
	Arm   string `json:"arm"`
	Seeds int    `json:"seeds"`
	// Recovered counts seeds where partition 0 accepted a put again.
	Recovered int `json:"recovered"`
	// Takeover: controller death -> standby promoted.
	Takeover metrics.Summary `json:"takeover"`
	// Handoff: controller death -> replacement view (crashed replica
	// out, handoff in) installed by the new controller.
	Handoff metrics.Summary `json:"handoff"`
	// Put: controller death -> first acked put to the orphaned
	// partition.
	Put metrics.Summary `json:"put"`
	// CacheInstall: controller death -> first post-takeover switch
	// cache install of a key made hot after the crash.
	CacheInstall metrics.Summary `json:"cache_install"`
}

// CtrlReport is the ctrlsweep outcome, one result per arm.
type CtrlReport struct {
	Seeds int             `json:"seeds_per_arm"`
	Arms  []CtrlArmResult `json:"arms"`
}

// ctrlSweepBase is the cell deployment: the chaos cluster shape with
// the hair-trigger cache and fast failure detection.
func ctrlSweepBase(seed int64) Options {
	opts := chaosOptions(seed)
	opts.Clients = 1
	// One attempt per probe call: the prober loop does its own retrying,
	// and a small per-op budget keeps the recovery timestamp fine-grained
	// instead of quantized by the client's internal backoff.
	opts.MaxRetries = 1
	opts.RetryWait = 2 * time.Millisecond
	opts.RetryMaxWait = 4 * time.Millisecond
	opts.CacheHotThreshold = 4
	return opts
}

// runCtrlCell executes one (arm, seed) failover measurement.
func runCtrlCell(pr Params, arm string) (ctrlCell, error) {
	cell := ctrlCell{takeover: -1, handoff: -1, put: -1, cache: -1}
	base := ctrlSweepBase(pr.Seed)
	crashPhase := sim.Time(rand.New(rand.NewSource(pr.Seed)).Int63n(int64(base.Heartbeat)))
	err := withBench(arm, base, 0, func(b *bench) error {
		if err := b.Settle(); err != nil {
			return err
		}
		d := b.NICE
		const part = 0
		victim := b.replicas(part)[0] // partition primary
		keys := d.keysInPartition(part, 4)
		hotKey := d.keysInPartition(1, 1)[0] // healthy partition: cache target

		_, err := b.Run(1, func(_ int, p *sim.Proc) error {
			c := b.Clients[0]
			for _, k := range append(keys, hotKey) {
				if _, err := c.Put(p, k, "warm", chaosValSize); err != nil {
					return fmt.Errorf("warmup put: %w", err)
				}
			}
			p.Sleep(crashPhase)
			t0 := p.Now()
			d.MetaHost.SetDown(true)
			d.Nodes[victim].Crash()

			// Watcher: promotion and the replacement view, polled fine-grained
			// so the put prober's timeouts don't quantize them.
			if d.Standby != nil {
				d.Sim.Spawn("ctrlsweep-watch", func(wp *sim.Proc) {
					for wp.Now()-t0 < sim.Time(ctrlSweepCap) {
						if svc := d.Standby.Promoted(); svc != nil {
							if cell.takeover < 0 {
								cell.takeover = wp.Now() - t0
							}
							v := svc.View(part)
							if v != nil && !v.HasReplica(victim) && v.Handoff != nil {
								cell.handoff = wp.Now() - t0
								return
							}
						}
						wp.Sleep(500 * time.Microsecond)
					}
				})
			}

			// Put prober: availability of the orphaned partition.
			for p.Now()-t0 < sim.Time(ctrlSweepCap) {
				if _, err := c.Put(p, keys[0], "probe", chaosValSize); err == nil {
					cell.put = p.Now() - t0
					break
				}
				p.Sleep(5 * time.Millisecond)
			}
			if cell.put < 0 {
				return nil // never recovered; cache metric is moot
			}

			// Cache prober: heat hotKey from cold. Installs recorded after
			// promotion can only come from the new controller's manager — the
			// zombie's in-flight installs are fenced at the switch.
			base := d.Cache.Stats().Installs
			for p.Now()-t0 < sim.Time(ctrlSweepCap) {
				if _, err := c.Get(p, hotKey); err != nil {
					p.Sleep(time.Millisecond)
					continue
				}
				if d.Cache.Stats().Installs > base {
					cell.cache = p.Now() - t0
					return nil
				}
				p.Sleep(time.Millisecond)
			}
			return nil
		})
		return err
	})
	return cell, err
}

// CtrlFailoverSweep runs `seeds` failover measurements per arm on the
// RunCells worker pool.
func CtrlFailoverSweep(pr Params, seeds int) (*CtrlReport, error) {
	if seeds <= 0 {
		seeds = 10
	}
	cells, err := grid[ctrlCell]{
		Dims: []int{len(ctrlArms), seeds},
		Cell: func(pr Params, ix []int) (ctrlCell, error) { return runCtrlCell(pr, ctrlArms[ix[0]].Arm) },
	}.Run(pr)
	if err != nil {
		return nil, err
	}
	rep := &CtrlReport{Seeds: seeds}
	for ai, arm := range ctrlArms {
		// summarize covers only the seeds where the event happened.
		summarize := func(latency func(ctrlCell) sim.Time) metrics.Summary {
			var h metrics.Histogram
			for _, c := range cells[ai*seeds : (ai+1)*seeds] {
				if v := latency(c); v >= 0 {
					h.Add(v)
				}
			}
			return h.Summary()
		}
		res := CtrlArmResult{
			Arm:          arm.Name,
			Seeds:        seeds,
			Takeover:     summarize(func(c ctrlCell) sim.Time { return c.takeover }),
			Handoff:      summarize(func(c ctrlCell) sim.Time { return c.handoff }),
			Put:          summarize(func(c ctrlCell) sim.Time { return c.put }),
			CacheInstall: summarize(func(c ctrlCell) sim.Time { return c.cache }),
		}
		res.Recovered = res.Put.N
		rep.Arms = append(rep.Arms, res)
	}
	return rep, nil
}

// Fprint renders the sweep, one arm per block.
func (r *CtrlReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== ctrlsweep: controller death + partition-0 replica crash, %d seeds per arm ==\n", r.Seeds)
	for _, a := range r.Arms {
		fmt.Fprintf(w, "%-12s recovered %d/%d\n", a.Arm, a.Recovered, a.Seeds)
		if a.Takeover.N > 0 {
			fmt.Fprintf(w, "  takeover      %s\n", a.Takeover)
		}
		if a.Handoff.N > 0 {
			fmt.Fprintf(w, "  handoff       %s\n", a.Handoff)
		}
		if a.Put.N > 0 {
			fmt.Fprintf(w, "  put-recovery  %s\n", a.Put)
		}
		if a.CacheInstall.N > 0 {
			fmt.Fprintf(w, "  cache-install %s\n", a.CacheInstall)
		}
	}
}
