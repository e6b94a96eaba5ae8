package cluster

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/ctrlchain"
	"repro/internal/faultinject"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// The chaos experiment runs randomized fault schedules
// (internal/faultinject) against small NICEKV deployments while clients
// record an operation history the consistency checker
// (internal/checker) verifies afterwards. Every cell is deterministic:
// the schedule, the simulator and the workload all derive from one
// seed, so a violation prints a one-line repro ("system :: schedule")
// that replays the exact execution via ReplayChaos.

// chaosHorizon is the workload duration of one chaos cell; faults land
// in [horizon/10, horizon*7/10] and the longest outage is horizon/5, so
// the tail of every run observes a healed cluster.
const chaosHorizon = 800 * time.Millisecond

// chaosThink paces the clients (one op roughly every think time).
const chaosThink = 2 * time.Millisecond

const chaosValSize = 128

// chaosKeys is the shared working set. Three clients cycling through it
// with different phases gives every key cross-client read/write traffic.
var chaosKeys = []string{
	"chaos-0", "chaos-1", "chaos-2", "chaos-3",
	"chaos-4", "chaos-5", "chaos-6", "chaos-7",
}

// chaosSystem is one system configuration under test.
type chaosSystem struct {
	// name labels the cell in reports and repro lines; arm is the feature
	// list resolveArm builds it from, on top of chaosCellOptions.
	name, arm string
	// maxOutages overrides the generator's concurrent-outage cap when
	// non-zero.
	maxOutages int
	// traffic builds the cell on the four-leaf spine fabric and runs the
	// open-loop engine offering background load while the chaos clients
	// record the checked history.
	traffic bool
	// weights reshapes the generator's fault mix (index by
	// faultinject.Kind); nil keeps the default bias.
	weights []int
	// chainNodes is the control-chain replica count; non-zero lets the
	// generator draw chainkill targets (standby systems only).
	chainNodes int
}

// chaosSystems returns the tested configurations. The quorum system runs
// without load balancing: an any-k put is acked before the laggard
// secondary commits, so a balanced get to that secondary may legally
// return the previous version — the acked-put floor only holds on the
// primary read path. It also caps the generator at one concurrent
// outage: an any-k put is durable on the primary plus k-1 secondaries
// only, so two overlapping outages can make every copy of an
// acknowledged put unreachable while the view moves on — a data-loss
// window the protocol does not claim to survive.
func chaosSystems() []chaosSystem {
	return []chaosSystem{
		// The plain cell runs arm NICEKV+LB: a recovered replica serves
		// gets through the division rules as soon as it reports
		// consistent, so the recovery rule is exercised without any
		// in-switch stage. It keeps its name so that old repro lines
		// still parse.
		{name: "NICEKV/2PC", arm: "NICEKV+LB"},
		{name: "NICEKV+cache", arm: "NICEKV+LB+cache"},
		{name: "NICEKV+quorum", arm: "NICEKV+quorum", maxOutages: 1},
		// The heavytraffic cell answers "does the open-loop engine change
		// what the checker sees?": same invariants, but every fault lands
		// while thousands of virtual-client gets are crossing the same
		// leaf-spine fabric as the recorded history.
		{name: "NICEKV+heavytraffic", arm: "NICEKV+LB", traffic: true},
		// The durable cell puts the storage engine under the harshest mix
		// it faces: a crash really wipes memory and the unfsynced WAL tail
		// (no state resurrection — recovery is snapshot + log replay), the
		// memory budget covers only half the working set so eviction and
		// promotion churn constantly, and the fault mix is reshaped toward
		// crash and slowdisk. The post-run durability audit (CheckDurability
		// against the union of the nodes' final stores) holds in addition
		// to the standard invariants. Group commit stays on under chaos:
		// coalesced fsyncs must not weaken fsync-before-ack (a crash
		// mid-batch tears the whole batch), and the durability audit proves
		// it. Appended last: cell seeds derive from sweep position, so
		// inserting mid-list would reseed the longstanding systems'
		// schedules.
		{name: "NICEKV+durable", arm: "NICEKV+LB+durable+groupcommit", weights: durableWeights()},
		// The ctrlchain cell kills the control plane itself: the active
		// metadata host crashes mid-run (ctrlcrash), chain replicas
		// fail-stop under it (chainkill), and storage nodes crash alongside
		// — all while the hot standby must take over from the chain tail
		// and fence the returning zombie. The in-switch cache is on with a
		// hair trigger so takeovers land mid-install. The cell keeps the
		// name it had when the chain was an option of its own, so old repro
		// lines still parse. Appended last: cell seeds derive from sweep
		// position (see the durable cell's note).
		{name: "NICEKV+ctrlchain", arm: "NICEKV+LB+cache+standby", weights: ctrlWeights(), chainNodes: ctrlchain.Replicas},
		// The harmonia cell routes reads through the in-switch dirty set
		// under the mode's most adversarial write protocol: any-k quorum
		// puts, where an acknowledged commit can leave laggard replicas
		// behind — exactly the copies a clean-key rewrite must never read
		// stale from. Outages capped at one for the same any-k durability
		// reason as the quorum cell. Appended last: cell seeds derive from
		// sweep position (see the durable cell's note).
		{name: "NICEKV+harmonia", arm: "NICEKV+harmonia+quorum", maxOutages: 1},
	}
}

// durableWeights biases the durable cell's schedules toward the faults
// the storage engine exists to survive.
func durableWeights() []int {
	w := faultinject.DefaultWeights()
	w[faultinject.NodeCrash] = 60
	w[faultinject.SlowDisk] = 20
	w[faultinject.Partition] = 0
	w[faultinject.LinkDown] = 5
	w[faultinject.LinkLoss] = 10
	w[faultinject.DelaySpike] = 5
	w[faultinject.SlowNIC] = 5
	w[faultinject.CtrlFault] = 5
	return w
}

// ctrlWeights biases the ctrlchain cell's schedules toward the faults
// the replicated control plane exists to survive: controller crashes,
// chain replica fail-stops, and the node crashes whose handoffs the
// promoted controller must drive from restored state.
func ctrlWeights() []int {
	w := faultinject.DefaultWeights()
	w[faultinject.NodeCrash] = 30
	w[faultinject.CtrlCrash] = 40
	w[faultinject.ChainKill] = 25
	w[faultinject.Partition] = 0
	w[faultinject.LinkDown] = 5
	w[faultinject.LinkLoss] = 10
	w[faultinject.DelaySpike] = 5
	w[faultinject.SlowNIC] = 5
	w[faultinject.SlowDisk] = 5
	w[faultinject.CtrlFault] = 10
	return w
}

// chaosOptions is the cell deployment: small cluster, fast failure
// detection, tight client timeouts with capped-backoff retries sized so
// an op can outlive a detection + handoff window.
func chaosOptions(seed int64) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Nodes = 5
	opts.R = 3
	opts.Clients = 3
	opts.Heartbeat = 20 * time.Millisecond
	opts.AckTimeout = 5 * time.Millisecond
	opts.OpTimeout = 10 * time.Millisecond
	opts.RetryWait = 5 * time.Millisecond
	opts.RetryMaxWait = 40 * time.Millisecond
	opts.MaxRetries = 8
	return opts
}

// chaosCellOptions adds how each subsystem behaves when a chaos system's
// arm switches it on: a hair-trigger cache detector, and a durable engine
// whose memory budget covers half the working set.
func chaosCellOptions(seed int64) Options {
	opts := chaosOptions(seed)
	opts.CacheHotThreshold = 4
	opts.CacheDecayEvery = 200 * time.Millisecond
	opts.StoreMemoryBudget = int64(len(chaosKeys) * chaosValSize / 2)
	opts.StoreShards = 2
	opts.StoreSnapshotEvery = 100 * time.Millisecond
	return opts
}

// chaosGenConfig builds the generator bounds for one system. ctrlBias
// (the -chaos-ctrl knob; 0 or 1 = neutral) scales the controller-fault
// weights of systems that opted into them — systems without
// controller faults keep weight zero regardless, so their longstanding
// schedules stay byte-identical whatever the knob says.
func chaosGenConfig(sys chaosSystem, ctrlBias float64) faultinject.GenConfig {
	cfg := faultinject.DefaultGenConfig(chaosOptions(0).Nodes, chaosHorizon)
	if sys.maxOutages > 0 {
		cfg.MaxOutages = sys.maxOutages
	}
	cfg.ChainNodes = sys.chainNodes
	cfg.Weights = sys.weights
	if ctrlBias > 0 && ctrlBias != 1 && sys.weights != nil {
		w := append([]int(nil), sys.weights...)
		for _, k := range []faultinject.Kind{faultinject.CtrlCrash, faultinject.ChainKill} {
			if w[k] > 0 {
				w[k] = int(float64(w[k]) * ctrlBias)
				if w[k] < 1 {
					w[k] = 1
				}
			}
		}
		cfg.Weights = w
	}
	return cfg
}

// niceFabric adapts a NICE deployment to faultinject.Fabric. Base link
// and disk configurations are captured at construction so degradations
// revert exactly; the generator serializes faults per node, so a revert
// never clobbers another active fault's state.
type niceFabric struct {
	d     *NICE
	disks []kvstore.DiskConfig
}

func newNiceFabric(d *NICE) *niceFabric {
	f := &niceFabric{d: d}
	for _, n := range d.Nodes {
		f.disks = append(f.disks, n.Store().Disk())
	}
	return f
}

func (f *niceFabric) Crash(n int)   { f.d.Nodes[n].Crash() }
func (f *niceFabric) Restart(n int) { f.d.Nodes[n].Restart() }

func (f *niceFabric) SetLinkDown(n int, down bool) { f.d.NodeLinks[n].SetDown(down) }

func (f *niceFabric) SetLinkLoss(n int, rate float64) { f.d.NodeLinks[n].SetLossRate(rate) }

func (f *niceFabric) SetLinkDelayFactor(n int, factor float64) {
	cfg := platformLink
	cfg.Delay = sim.Time(float64(cfg.Delay) * factor)
	f.d.NodeLinks[n].SetConfig(cfg)
}

func (f *niceFabric) SetNICFactor(n int, factor float64) {
	cfg := platformLink
	cfg.BandwidthBps /= factor
	f.d.NodeLinks[n].SetConfig(cfg)
}

func (f *niceFabric) SetDiskFactor(n int, factor float64) {
	base := f.disks[n]
	cfg := f.d.Nodes[n].Store().Disk()
	cfg.WriteLatency = sim.Time(float64(base.WriteLatency) * factor)
	cfg.WriteBps = base.WriteBps / factor
	cfg.ReadLatency = sim.Time(float64(base.ReadLatency) * factor)
	cfg.ReadBps = base.ReadBps / factor
	f.d.Nodes[n].Store().SetDisk(cfg)
}

func (f *niceFabric) SetCtrlFault(extra sim.Time, drop float64) {
	f.d.Core.SetControlFault(extra, drop)
}

// CrashCtrl fail-stops the active metadata host: heartbeats, standby
// pings and control responses all stop dead, exactly like a kernel
// panic on the controller machine. The hot standby's watchdog is what
// notices.
func (f *niceFabric) CrashCtrl() { f.d.MetaHost.SetDown(true) }

// RestartCtrl revives the old primary's host — the zombie returns with
// its pre-crash state and must be fenced, not obeyed.
func (f *niceFabric) RestartCtrl() { f.d.MetaHost.SetDown(false) }

// SetChainDown fail-stops (or revives) one control-chain replica.
func (f *niceFabric) SetChainDown(i int, down bool) {
	if f.d.Chain != nil {
		f.d.Chain.SetDown(i, down)
	}
}

// ChaosCell is the outcome of one (system, schedule) run.
type ChaosCell struct {
	System   string
	Schedule faultinject.Schedule
	// Ops counts completed client operations; Failed those that
	// exhausted their retry budget (legal under faults — failed ops
	// constrain nothing).
	Ops, Failed int
	// Hash digests the recorded history; equal seeds must produce equal
	// hashes.
	Hash       uint64
	Violations []checker.Violation
	// TrafficOps counts open-loop engine requests issued alongside the
	// chaos clients (zero for systems without background traffic); it is
	// part of the determinism recheck.
	TrafficOps int64
	// Recoveries / Replayed sum the durable engines' crash recoveries and
	// WAL records replayed (zero for legacy-store systems); they witness
	// that recovery really was snapshot + log replay and are part of the
	// determinism recheck.
	Recoveries int64
	Replayed   int64
	// Takeovers counts standby promotions (0 or 1 per cell); Fenced sums
	// the zombie writes rejected at the state store, the chain head and
	// the switches. Both join the determinism recheck for ctrlchain
	// systems: a replay must fence the exact same writes.
	Takeovers int64
	Fenced    int64
	// Harmonia read-routing telemetry (zero for systems without the
	// dirty-set stage); all four join the determinism recheck — a replay
	// must make the identical routing decision for every read.
	HarmoniaRouted      int64 // clean reads rewritten at the switch
	HarmoniaReplicaGets int64 // reads the nodes answered as non-primaries
	HarmoniaFallbacks   int64 // reads punted to the primary (dirty key or taint)
	HarmoniaFlushes     int64 // dirty entries stickied by view-change installs
}

// Repro is the one-line reproduction command for this cell.
func (c *ChaosCell) Repro() string {
	return fmt.Sprintf("%s :: %s", c.System, c.Schedule)
}

// probeChaosPanicSeed, when non-zero, plants a simulation failure in the
// chaos cell whose schedule carries that seed: its first client panics
// (test instrumentation, like probeDropInvalidate).
var probeChaosPanicSeed int64

// runChaosCell executes one fault schedule against one system. The
// simulator seed is the schedule seed, so the whole cell derives from
// one number. A simulation that fails once the deployment is built (a
// proc panicked) is that cell's finding, recorded as a "sim-failure"
// violation with its repro line, not an error: one bad schedule must
// not cost a sweep its other cells. Only a deployment that cannot be
// built is an error.
func runChaosCell(sys chaosSystem, sched faultinject.Schedule) (ChaosCell, error) {
	cell := ChaosCell{System: sys.name, Schedule: sched}
	opts := chaosCellOptions(sched.Seed)
	leaves := 0
	if sys.traffic {
		opts.TrafficGateways = true
		leaves = 4
	}
	built := false
	err := withBench(sys.arm, opts, leaves, func(b *bench) error {
		built = true
		d := b.NICE
		if err := b.Settle(); err != nil {
			return err
		}
		faultinject.Install(d.Sim, newNiceFabric(d), sched)

		var eng *TrafficEngine
		if sys.traffic {
			eng = NewTrafficEngine(d, TrafficOptions{
				Clients:  2000,
				Rate:     20_000,
				Duration: chaosHorizon,
				Records:  512,
				Seed:     sched.Seed,
			})
			d.Sim.Spawn("chaos-traffic", func(p *sim.Proc) {
				// Preload shares the chaos clients (ops multiplex by ReqID);
				// if faults beat it, the cell still runs its checked workload.
				if eng.Preload(p) != nil {
					return
				}
				eng.Run(p)
			})
		}

		hist := &checker.History{}
		if _, err := b.Run(len(d.Clients), func(ci int, p *sim.Proc) error {
			cl := d.Clients[ci]
			start := p.Now()
			if ci == 0 && probeChaosPanicSeed != 0 && sched.Seed == probeChaosPanicSeed {
				panic("chaos: planted simulation failure")
			}
			for j := 0; p.Now()-start < chaosHorizon; j++ {
				key := chaosKeys[(ci+j)%len(chaosKeys)]
				ev := checker.Event{Client: ci, Kind: checker.OpGet, Key: key, Invoke: p.Now()}
				var res core.OpResult
				var err error
				if j%2 == 0 {
					ev.Kind = checker.OpPut
					res, err = cl.Put(p, key, fmt.Sprintf("c%d-%d", ci, j), chaosValSize)
				} else {
					res, err = cl.Get(p, key)
					ev.Found = res.Found
				}
				ev.Return, ev.OK, ev.Ver = p.Now(), err == nil, res.Version
				hist.Record(ev)
				if err != nil {
					// Legal under faults: a failed op constrains nothing.
					cell.Failed++
				}
				p.Sleep(chaosThink)
			}
			return nil
		}); err != nil {
			return err
		}
		// Drain recoveries and trailing acks.
		if err := d.Sim.RunUntil(d.Sim.Now() + 150*time.Millisecond); err != nil {
			return err
		}
		cell.Ops = hist.Len()
		cell.Hash = hist.Hash()
		cell.Violations = hist.Check()
		if eng != nil {
			cell.TrafficOps = eng.issued
		}
		if d.Opts.DurableStore {
			// Durability audit: the newest committed version of every chaos
			// key anywhere in the cluster (main namespaces and handoff
			// directories) must cover every acked put — what snapshot + log
			// replay recovery promises.
			final := map[string]uint64{}
			observe := func(key string, ver uint64) {
				if ver > final[key] {
					final[key] = ver
				}
			}
			for _, n := range d.Nodes {
				st := n.Store()
				for _, key := range chaosKeys {
					if obj, ok := st.Peek(key); ok {
						observe(key, obj.Version.PrimarySeq)
					}
				}
				for _, obj := range st.HandoffObjects() {
					observe(obj.Key, obj.Version.PrimarySeq)
				}
				if es, ok := st.StorageStats(); ok {
					cell.Recoveries += es.Recoveries
					cell.Replayed += es.ReplayedRecords
				}
			}
			cell.Violations = append(cell.Violations, hist.CheckDurability(final)...)
		}
		if d.Harmonia != nil {
			hs := d.Harmonia.Stats()
			cell.HarmoniaRouted = hs.Routed
			cell.HarmoniaFallbacks = hs.DirtyFallbacks + hs.TaintFallbacks
			cell.HarmoniaFlushes = hs.Flushes
			for _, n := range d.Nodes {
				cell.HarmoniaReplicaGets += n.Stats().GetsServedAsReplica
			}
		}
		if d.Standby != nil {
			cell.Fenced = d.Service.Stats().FencedWrites + d.Core.Stats().FencedMods + d.Chain.Stats().Fenced
			if promoted := d.Standby.Promoted(); promoted != nil {
				cell.Takeovers = 1
				cell.Fenced += promoted.Stats().FencedWrites
			}
		}
		return nil
	})
	if err != nil && built {
		cell.Violations = append(cell.Violations, checker.Violation{Invariant: "sim-failure", Detail: err.Error()})
		err = nil
	}
	return cell, err
}

// ReplayChaos re-executes a repro line printed by a chaos run
// ("system :: seed=N | fault ... ") and returns the replayed cell.
func ReplayChaos(repro string) (ChaosCell, error) {
	sysName, schedText, ok := strings.Cut(repro, "::")
	if !ok {
		return ChaosCell{}, fmt.Errorf("chaos: repro %q is not \"system :: schedule\"", repro)
	}
	sysName = strings.TrimSpace(sysName)
	sched, err := faultinject.ParseSchedule(strings.TrimSpace(schedText))
	if err != nil {
		return ChaosCell{}, err
	}
	for _, sys := range chaosSystems() {
		if sys.name == sysName {
			return runChaosCell(sys, sched)
		}
	}
	return ChaosCell{}, fmt.Errorf("chaos: unknown system %q", sysName)
}

// ChaosReport aggregates a chaos sweep.
type ChaosReport struct {
	Schedules int
	Systems   []string
	Cells     []ChaosCell
	// DeterminismOK reports the post-sweep recheck: schedule 0 of every
	// system replayed and its history hash compared.
	DeterminismOK bool
	Mismatches    []string
}

// Violating returns the cells whose histories broke an invariant.
func (r *ChaosReport) Violating() []*ChaosCell {
	var out []*ChaosCell
	for i := range r.Cells {
		if len(r.Cells[i].Violations) > 0 {
			out = append(out, &r.Cells[i])
		}
	}
	return out
}

// Fprint renders the sweep summary, one row per system, then any
// violations with their repro lines.
func (r *ChaosReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== chaos: %d fault schedules per system ==\n", r.Schedules)
	for si, name := range r.Systems {
		var sum ChaosCell
		faults, bad := 0, 0
		for _, c := range r.Cells[si*r.Schedules : (si+1)*r.Schedules] {
			faults += len(c.Schedule.Events)
			bad += len(c.Violations)
			sum.Ops += c.Ops
			sum.Failed += c.Failed
			sum.TrafficOps += c.TrafficOps
			sum.Recoveries += c.Recoveries
			sum.Replayed += c.Replayed
			sum.Takeovers += c.Takeovers
			sum.Fenced += c.Fenced
			sum.HarmoniaRouted += c.HarmoniaRouted
			sum.HarmoniaReplicaGets += c.HarmoniaReplicaGets
			sum.HarmoniaFallbacks += c.HarmoniaFallbacks
			sum.HarmoniaFlushes += c.HarmoniaFlushes
		}
		fmt.Fprintf(w, "%-20s ops=%-6d failed=%-5d faults=%-4d violations=%d",
			name, sum.Ops, sum.Failed, faults, bad)
		if sum.TrafficOps > 0 {
			fmt.Fprintf(w, " traffic=%d", sum.TrafficOps)
		}
		if sum.Recoveries > 0 {
			fmt.Fprintf(w, " recoveries=%d replayed=%d", sum.Recoveries, sum.Replayed)
		}
		if sum.Takeovers > 0 {
			fmt.Fprintf(w, " takeovers=%d fenced=%d", sum.Takeovers, sum.Fenced)
		}
		if sum.HarmoniaRouted > 0 || sum.HarmoniaFallbacks > 0 {
			fmt.Fprintf(w, " routed=%d replica-gets=%d fallbacks=%d flushes=%d",
				sum.HarmoniaRouted, sum.HarmoniaReplicaGets, sum.HarmoniaFallbacks, sum.HarmoniaFlushes)
		}
		fmt.Fprintln(w)
	}
	if r.DeterminismOK {
		fmt.Fprintf(w, "determinism: replayed schedule 0 of each system, histories identical\n")
	} else {
		fmt.Fprintf(w, "determinism: FAILED\n")
		for _, m := range r.Mismatches {
			fmt.Fprintf(w, "  %s\n", m)
		}
	}
	for _, c := range r.Violating() {
		fmt.Fprintf(w, "VIOLATION repro: %s\n", c.Repro())
		for _, v := range c.Violations {
			fmt.Fprintf(w, "  %s\n", v)
		}
	}
}

// RunChaos sweeps `schedules` randomized fault schedules over every
// chaos system on the RunCells worker pool, then replays schedule 0 of
// each system to confirm determinism. ctrlBias scales the
// controller-fault weights of the systems that use them (the
// -chaos-ctrl knob; 0 or 1 leaves the default mix).
func RunChaos(pr Params, schedules int, ctrlBias float64) (*ChaosReport, error) {
	systems := chaosSystems()
	rep := &ChaosReport{Schedules: schedules}
	for _, s := range systems {
		rep.Systems = append(rep.Systems, s.name)
	}
	g := grid[ChaosCell]{
		Dims: []int{len(systems), schedules},
		Cell: func(pr Params, ix []int) (ChaosCell, error) {
			sys := systems[ix[0]]
			return runChaosCell(sys, faultinject.Generate(pr.Seed, chaosGenConfig(sys, ctrlBias)))
		},
	}
	var err error
	if rep.Cells, err = g.Run(pr); err != nil {
		return nil, err
	}
	rep.DeterminismOK = true
	for si, sys := range systems {
		first := &rep.Cells[si*schedules]
		again, err := g.Rerun(pr, si*schedules)
		if err != nil {
			return nil, err
		}
		// The replay must reproduce the history hash and every telemetry
		// counter of the cell.
		if !reflect.DeepEqual(*first, again) {
			rep.DeterminismOK = false
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("%s: %+v vs replay %+v (%s)", sys.name, *first, again, first.Repro()))
		}
	}
	return rep, nil
}
