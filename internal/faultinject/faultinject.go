// Package faultinject is a deterministic fault-schedule engine for the
// simulated cluster: it generates, serializes and replays schedules of
// network, node, disk and control-plane faults against any deployment
// exposing the Fabric surface. Everything is a pure function of the
// schedule seed — the same seed produces the same schedule, and because
// the simulator itself is deterministic, the same (seed, schedule) pair
// produces the same execution, which is what makes a one-line repro
// string possible when the consistency checker flags a violation.
//
// Fault taxonomy (DESIGN.md §9):
//
//   - crash      node fail-stop + restart through the §4.4 rejoin
//   - linkdown   access link severed and later restored
//   - partition  several access links severed together
//   - loss       packet-loss burst on an access link
//   - delayspike propagation-latency multiplier on an access link
//   - slownic    gray NIC: bandwidth divided by a factor
//   - slowdisk   gray disk: latency multiplied / throughput divided
//   - ctrl       control-channel fault: extra delay on every exchange
//     plus a drop rate on packet-carrying messages
//   - ctrlcrash  active metadata controller fail-stop; the revert
//     brings the host back as a zombie if a standby promoted meanwhile
//   - chainkill  one replica of the control-plane state chain
//     (internal/ctrlchain) fail-stops; the revert revives it and the
//     chain re-splices it in at the tail
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// Kind enumerates the fault classes.
type Kind int

const (
	NodeCrash Kind = iota
	LinkDown
	Partition
	LinkLoss
	DelaySpike
	SlowNIC
	SlowDisk
	CtrlFault
	CtrlCrash
	ChainKill
	numKinds
)

var kindNames = [numKinds]string{
	NodeCrash:  "crash",
	LinkDown:   "linkdown",
	Partition:  "partition",
	LinkLoss:   "loss",
	DelaySpike: "delayspike",
	SlowNIC:    "slownic",
	SlowDisk:   "slowdisk",
	CtrlFault:  "ctrl",
	CtrlCrash:  "ctrlcrash",
	ChainKill:  "chainkill",
}

// String returns the kind's schedule-format name.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one scheduled fault: it starts At (relative to installation),
// holds for For, then reverts.
type Event struct {
	Kind Kind
	At   sim.Time
	For  sim.Time
	// Node is the target: a storage node for most kinds, a chain
	// replica index for ChainKill, unused for Partition, CtrlFault and
	// CtrlCrash.
	Node int
	// Nodes are the Partition targets.
	Nodes []int
	// Rate is the LinkLoss probability, or the CtrlFault drop rate.
	Rate float64
	// Factor is the DelaySpike / SlowNIC / SlowDisk degradation multiple.
	Factor float64
	// Delay is the CtrlFault extra latency.
	Delay sim.Time
}

// Schedule is a seed plus its fault events, ordered by start time.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Fabric is the deployment surface the engine drives. Implementations
// (cluster.NICE's adapter, test fakes) apply each mutation immediately;
// the engine owns all timing. Factor/rate arguments of 1 and 0 restore
// health.
type Fabric interface {
	// Crash fail-stops a node; Restart brings it back through recovery.
	Crash(node int)
	Restart(node int)
	// SetLinkDown severs or restores the node's access link.
	SetLinkDown(node int, down bool)
	// SetLinkLoss sets the access link's drop probability (0 = healthy).
	SetLinkLoss(node int, rate float64)
	// SetLinkDelayFactor multiplies the access link's propagation delay
	// (1 = healthy).
	SetLinkDelayFactor(node int, factor float64)
	// SetNICFactor divides the access link's bandwidth (1 = healthy).
	SetNICFactor(node int, factor float64)
	// SetDiskFactor degrades the node's disk by a factor (1 = healthy).
	SetDiskFactor(node int, factor float64)
	// SetCtrlFault injects control-channel trouble fabric-wide; zero both
	// to restore health.
	SetCtrlFault(extra sim.Time, drop float64)
	// CrashCtrl fail-stops the active metadata controller; RestartCtrl
	// brings the host back — a fenced zombie if a standby promoted in
	// the meantime.
	CrashCtrl()
	RestartCtrl()
	// SetChainDown fail-stops (or revives) one replica of the
	// control-plane state chain; a no-op on deployments without one.
	SetChainDown(idx int, down bool)
}

// Install schedules every event of sched on s, relative to s.Now().
// Faults apply at At and revert at At+For; NodeCrash's revert is the
// restart that triggers §4.4 recovery.
func Install(s *sim.Simulator, f Fabric, sched Schedule) {
	base := s.Now()
	for i := range sched.Events {
		e := sched.Events[i]
		s.At(base+e.At, func() { apply(f, e, true) })
		s.At(base+e.At+e.For, func() { apply(f, e, false) })
	}
}

func apply(f Fabric, e Event, start bool) {
	switch e.Kind {
	case NodeCrash:
		if start {
			f.Crash(e.Node)
		} else {
			f.Restart(e.Node)
		}
	case LinkDown:
		f.SetLinkDown(e.Node, start)
	case Partition:
		for _, n := range e.Nodes {
			f.SetLinkDown(n, start)
		}
	case LinkLoss:
		if start {
			f.SetLinkLoss(e.Node, e.Rate)
		} else {
			f.SetLinkLoss(e.Node, 0)
		}
	case DelaySpike:
		if start {
			f.SetLinkDelayFactor(e.Node, e.Factor)
		} else {
			f.SetLinkDelayFactor(e.Node, 1)
		}
	case SlowNIC:
		if start {
			f.SetNICFactor(e.Node, e.Factor)
		} else {
			f.SetNICFactor(e.Node, 1)
		}
	case SlowDisk:
		if start {
			f.SetDiskFactor(e.Node, e.Factor)
		} else {
			f.SetDiskFactor(e.Node, 1)
		}
	case CtrlFault:
		if start {
			f.SetCtrlFault(e.Delay, e.Rate)
		} else {
			f.SetCtrlFault(0, 0)
		}
	case CtrlCrash:
		if start {
			f.CrashCtrl()
		} else {
			f.RestartCtrl()
		}
	case ChainKill:
		f.SetChainDown(e.Node, start)
	}
}

// GenConfig bounds the random-schedule generator.
type GenConfig struct {
	// Nodes is the cluster size (targets are drawn from [0, Nodes)).
	Nodes int
	// Horizon is the workload duration; faults start within
	// [Horizon/10, Horizon*7/10] so the tail of the run always observes a
	// healed cluster.
	Horizon sim.Time
	// Events is how many faults to attempt; constraint rejections may
	// yield fewer.
	Events int
	// MaxOutages bounds concurrently unreachable nodes (crash, linkdown,
	// partition members) so a replica set never loses a quorum by
	// scheduling alone.
	MaxOutages int
	// MinOutage / MaxOutage bound an unreachability window. MinOutage
	// must exceed the failure detector's declaration time, or the cluster
	// heals the fault before ever noticing it.
	MinOutage, MaxOutage sim.Time
	// ChainNodes is the control-chain replica count; ChainKill events
	// draw their target from [0, ChainNodes) and are never generated
	// when it is zero.
	ChainNodes int
	// Weights overrides the per-kind generation bias (index by Kind; must
	// cover every kind). Nil keeps the default bias. A zero weight
	// disables a kind; sweeps that stress one subsystem (e.g. crash
	// recovery on a durable store) reshape the mix this way while the
	// schedule's serialization and outage constraints stay identical.
	Weights []int
}

// DefaultGenConfig sizes a schedule for a small chaos cell.
func DefaultGenConfig(nodes int, horizon sim.Time) GenConfig {
	return GenConfig{
		Nodes:      nodes,
		Horizon:    horizon,
		Events:     8,
		MaxOutages: 2,
		MinOutage:  horizon / 10,
		MaxOutage:  horizon / 5,
	}
}

// kindWeights biases generation toward the protocol-sensitive faults.
var kindWeights = [numKinds]int{
	NodeCrash:  20,
	LinkDown:   10,
	Partition:  5,
	LinkLoss:   20,
	DelaySpike: 15,
	SlowNIC:    10,
	SlowDisk:   10,
	CtrlFault:  10,
	// The controller-fault kinds default to zero so every schedule
	// generated before they existed stays byte-identical (a weight-0
	// kind is never selected and consumes no randomness); the ctrlchain
	// chaos cell and the -chaos-ctrl knob opt in explicitly.
	CtrlCrash: 0,
	ChainKill: 0,
}

// DefaultWeights returns a copy of the default generation bias, indexed
// by Kind — the starting point for a GenConfig.Weights override.
func DefaultWeights() []int {
	out := make([]int, numKinds)
	copy(out, kindWeights[:])
	return out
}

// Generate builds a randomized schedule from seed under cfg's
// constraints. It is deterministic: equal (seed, cfg) yields equal
// schedules. Per-node faults are serialized (one fault at a time per
// node) so every revert restores the node's healthy baseline, and
// control-channel fault windows never overlap each other.
func Generate(seed int64, cfg GenConfig) Schedule {
	rng := rand.New(rand.NewSource(seed))
	sched := Schedule{Seed: seed}
	if cfg.Nodes <= 0 || cfg.Events <= 0 || cfg.Horizon <= 0 {
		return sched
	}
	if cfg.MaxOutage < cfg.MinOutage {
		cfg.MaxOutage = cfg.MinOutage
	}

	lo := cfg.Horizon / 10
	hi := cfg.Horizon * 7 / 10
	busy := make([]sim.Time, cfg.Nodes) // per-node fault serialization
	var ctrlBusy sim.Time
	var ctrlCrashBusy sim.Time
	var chainBusy sim.Time
	type span struct{ from, to sim.Time }
	var outages []span

	randTime := func(a, b sim.Time) sim.Time {
		if b <= a {
			return a
		}
		return a + sim.Time(rng.Int63n(int64(b-a)))
	}
	outagesAt := func(from, to sim.Time) int {
		n := 0
		for _, o := range outages {
			if o.from < to && from < o.to {
				n++
			}
		}
		return n
	}
	pickNode := func(at, until sim.Time) int {
		free := make([]int, 0, cfg.Nodes)
		for n := 0; n < cfg.Nodes; n++ {
			if busy[n] <= at {
				free = append(free, n)
			}
		}
		if len(free) == 0 {
			return -1
		}
		n := free[rng.Intn(len(free))]
		busy[n] = until + cfg.Horizon/20 // gap before the node's next fault
		return n
	}

	weights := kindWeights[:]
	if len(cfg.Weights) >= int(numKinds) {
		weights = cfg.Weights[:numKinds]
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return sched
	}
	for i := 0; i < cfg.Events; i++ {
		r := rng.Intn(total)
		var kind Kind
		for k, w := range weights {
			if r < w {
				kind = Kind(k)
				break
			}
			r -= w
		}
		at := randTime(lo, hi)
		var dur sim.Time
		// Controller and chain kills use outage-length windows too: the
		// window must outlast the standby watchdog (or the chain's probe
		// detector) or the fault heals before anyone notices.
		isOutage := kind == NodeCrash || kind == LinkDown || kind == Partition ||
			kind == CtrlCrash || kind == ChainKill
		if isOutage {
			dur = randTime(cfg.MinOutage, cfg.MaxOutage)
		} else {
			dur = randTime(cfg.Horizon/20, cfg.Horizon/4)
		}
		end := at + dur

		e := Event{Kind: kind, At: at, For: dur}
		switch kind {
		case CtrlCrash:
			// Serialized with itself; does not count toward data-node
			// outage budgets (the data plane keeps serving without a
			// controller).
			if ctrlCrashBusy > at {
				continue
			}
			ctrlCrashBusy = end + cfg.Horizon/20
		case ChainKill:
			if cfg.ChainNodes <= 0 || chainBusy > at {
				continue
			}
			e.Node = rng.Intn(cfg.ChainNodes)
			chainBusy = end + cfg.Horizon/20
		case CtrlFault:
			if ctrlBusy > at {
				continue
			}
			ctrlBusy = end + cfg.Horizon/20
			e.Delay = sim.Time(rng.Int63n(int64(cfg.Horizon/50)) + 1)
			e.Rate = 0.2 + 0.5*rng.Float64()
		case Partition:
			if outagesAt(at, end)+2 > cfg.MaxOutages {
				continue
			}
			a := pickNode(at, end)
			b := pickNode(at, end)
			if a < 0 || b < 0 {
				continue
			}
			e.Nodes = []int{a, b}
			outages = append(outages, span{at, end})
			outages = append(outages, span{at, end})
		case NodeCrash, LinkDown:
			if outagesAt(at, end)+1 > cfg.MaxOutages {
				continue
			}
			n := pickNode(at, end)
			if n < 0 {
				continue
			}
			e.Node = n
			outages = append(outages, span{at, end})
		default:
			n := pickNode(at, end)
			if n < 0 {
				continue
			}
			e.Node = n
			switch kind {
			case LinkLoss:
				e.Rate = 0.05 + 0.4*rng.Float64()
			case DelaySpike:
				e.Factor = 2 + 8*rng.Float64()
			case SlowNIC:
				e.Factor = 2 + 18*rng.Float64()
			case SlowDisk:
				e.Factor = 5 + 45*rng.Float64()
			}
		}
		sched.Events = append(sched.Events, e)
	}
	sort.SliceStable(sched.Events, func(i, j int) bool {
		return sched.Events[i].At < sched.Events[j].At
	})
	return sched
}
