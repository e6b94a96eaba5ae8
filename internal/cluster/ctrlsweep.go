package cluster

import (
	"fmt"
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

// ctrlSweepCap bounds how long one cell waits for recovery; each arm is
// measured at ctrlSweepSeeds crash phases.
const (
	ctrlSweepCap   = 3 * time.Second
	ctrlSweepSeeds = 10
)

// ctrlArms lists the sweep arms in grid order; every arm runs the
// in-switch cache.
var ctrlArms = []system{
	{"none", "NICEKV+cache"},
	{"standby", "NICEKV+cache+standby"},
}

// CtrlCell is one (arm, seed) measurement. Each latency runs from the
// controller's death; a negative one means the event never happened
// before ctrlSweepCap.
type CtrlCell struct {
	Arm string `json:"arm"`
	// Takeover: the standby promoted.
	Takeover sim.Time `json:"takeover_ns"`
	// Handoff: the replacement view (crashed replica out, handoff in)
	// installed by the new controller.
	Handoff sim.Time `json:"handoff_ns"`
	// Put: the first acked put to the orphaned partition.
	Put sim.Time `json:"put_ns"`
	// CacheInstall: the first post-takeover switch cache install of a
	// key made hot after the crash.
	CacheInstall sim.Time `json:"cache_install_ns"`
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
func runCtrlCell(pr Params, arm system) (CtrlCell, error) {
	cell := CtrlCell{Arm: arm.Name, Takeover: -1, Handoff: -1, Put: -1, CacheInstall: -1}
	base := ctrlSweepBase(pr.Seed)
	crashPhase := sim.Time(rand.New(rand.NewSource(pr.Seed)).Int63n(int64(base.Heartbeat)))
	err := withBench(arm.Arm, base, 0, func(b *bench) error {
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
							if cell.Takeover < 0 {
								cell.Takeover = wp.Now() - t0
							}
							v := svc.View(part)
							if v != nil && !v.HasReplica(victim) && v.Handoff != nil {
								cell.Handoff = wp.Now() - t0
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
					cell.Put = p.Now() - t0
					break
				}
				p.Sleep(5 * time.Millisecond)
			}
			if cell.Put < 0 {
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
					cell.CacheInstall = p.Now() - t0
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

// CtrlFailoverSweep runs ctrlSweepSeeds failover measurements per arm
// on the RunCells worker pool and returns the cells arm-major, with the
// sweep's claims.
func CtrlFailoverSweep(pr Params) ([]CtrlCell, []Claim, error) {
	cells, err := grid[CtrlCell]{
		Dims: []int{len(ctrlArms), ctrlSweepSeeds},
		Cell: func(pr Params, ix []int) (CtrlCell, error) { return runCtrlCell(pr, ctrlArms[ix[0]]) },
	}.Run(pr)
	if err != nil {
		return nil, nil, err
	}
	return cells, ctrlClaims(cells), nil
}

// ctrlClaims: without a replica the orphaned partition never heals;
// with the standby it heals at every crash phase, and the standby takes
// over after its watchdog misses three to four 20 ms heartbeats
// (60-80 ms), depending on where in a period the pings stopped.
func ctrlClaims(cells []CtrlCell) []Claim {
	recovered := make(map[string]float64)
	var takeover metrics.Histogram
	for _, c := range cells {
		if c.Put >= 0 {
			recovered[c.Arm]++
		}
		if c.Arm == "standby" && c.Takeover >= 0 {
			takeover.Add(c.Takeover)
		}
	}
	return []Claim{
		{"none_recovered", recovered["none"], 0, 0},
		{"standby_recovered", recovered["standby"], ctrlSweepSeeds, ctrlSweepSeeds},
		{"standby_takeover_p50_ms", takeover.Percentile(50) * 1e3, 60, 80},
	}
}
