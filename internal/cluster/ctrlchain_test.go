package cluster

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// Deployment-level tests for the chain-replicated control plane: a
// takeover must restore the authoritative coordination state from the
// chain tail, a returning zombie primary must be fenced everywhere it
// can write, and a controller crash landing mid-node-recovery must
// never strand the rejoining node.

// ctrlChainOptions is the shared deployment: fast failure detection so
// promotions fit inside a test's patience.
func ctrlChainOptions() Options {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Standby = true
	opts.Heartbeat = ms(50)
	opts.OpTimeout = ms(200)
	opts.RetryWait = ms(100)
	return opts
}

func TestCtrlChainTakeoverRestoresState(t *testing.T) {
	onEveryFabric(t, testCtrlChainTakeoverRestoresState)
}

func testCtrlChainTakeoverRestoresState(t *testing.T, build func(Options) *NICE) {
	d := build(ctrlChainOptions())
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const part = 0
	victim := d.Service.View(part).Replicas[1].Index
	keys := d.keysInPartition(part, 8)

	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		for _, k := range keys[:4] {
			if _, err := c.Put(p, k, "v", 1024); err != nil {
				t.Errorf("seed put: %v", err)
				return
			}
		}
		if acked := d.Chain.Stats().Acked; acked == 0 {
			t.Error("controller writes never reached the chain tail")
		}
		d.MetaHost.SetDown(true)
		p.Sleep(500 * time.Millisecond)
		svc := d.Standby.Promoted()
		if svc == nil {
			t.Error("standby did not take over")
			return
		}
		if svc.Gen() <= d.Service.Gen() {
			t.Errorf("promoted generation %d does not fence the primary's %d",
				svc.Gen(), d.Service.Gen())
		}
		// Views restored from the chain tail: full replica set,
		// epoch advanced past everything the primary announced.
		v := svc.View(part)
		if v == nil || len(v.Replicas) != 3 {
			t.Fatalf("promoted service restored a broken view: %+v", v)
		}
		if v.Gen != svc.Gen() {
			t.Errorf("restored view carries gen %d, want %d", v.Gen, svc.Gen())
		}
		// The promoted controller must still drive membership: crash a
		// node, expect a handoff, and keep puts available.
		d.Nodes[victim].Crash()
		p.Sleep(500 * time.Millisecond)
		v = svc.View(part)
		if v.HasReplica(victim) {
			t.Error("promoted service did not process the node failure")
		}
		if v.Handoff == nil {
			t.Error("promoted service installed no handoff")
		}
		for _, k := range keys[4:] {
			if _, err := c.Put(p, k, "v", 1024); err != nil {
				t.Errorf("put after failure under chain-restored controller: %v", err)
				return
			}
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}

// A takeover must also succeed when the chain itself is degraded: with
// one replica fail-stopped and spliced out, the surviving chain still
// serves the authoritative snapshot.
func TestCtrlChainTakeoverWithDegradedChain(t *testing.T) {
	d := NewNICE(ctrlChainOptions())
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		if _, err := c.Put(p, "degraded", "v", 1024); err != nil {
			t.Errorf("seed put: %v", err)
			return
		}
		d.Chain.SetDown(1, true) // kill the middle chain store
		p.Sleep(50 * time.Millisecond)
		if d.Chain.Live() != 2 {
			t.Errorf("chain did not splice the dead store: live=%d", d.Chain.Live())
		}
		d.MetaHost.SetDown(true)
		p.Sleep(500 * time.Millisecond)
		svc := d.Standby.Promoted()
		if svc == nil {
			t.Error("standby did not take over from the degraded chain")
			return
		}
		if v := svc.View(0); v == nil || len(v.Replicas) != 3 {
			t.Errorf("degraded chain restored a broken view: %+v", v)
		}
		if _, err := c.Put(p, "degraded", "v2", 1024); err != nil {
			t.Errorf("put after degraded-chain takeover: %v", err)
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}

// A takeover that lands while the chain is mid-repair must wait the
// splice out and then restore the pre-crash views — never promote from
// an empty or stale copy. The chain probes on a 1 ms grid and a repair
// lasts ~350 µs from the probe that detects the dead store, so the
// heartbeat is detuned by 20 µs to put the standby's watchdog ticks a
// fraction of a millisecond past the grid; the same deployment then runs
// once per kill offset, a chain replica fail-stopping between 0.1 and
// 2.5 ms before the tick that promotes the standby. Every run must come
// up with each partition's epoch exactly one past what the primary last
// announced, and at least one run must really have had its snapshot
// refused.
func TestTakeoverDuringChainRepairRestoresEpochs(t *testing.T) {
	// run crashes a storage node (so view epochs move past their initial
	// value), then the controller, and fail-stops chain store 1 at killAt
	// (0 = never). It reports when the standby's watchdog fired and how
	// many chain reads were refused mid-repair.
	run := func(killAt sim.Time) (tick sim.Time, blocked int64) {
		opts := ctrlChainOptions()
		opts.Heartbeat += 20 * time.Microsecond
		d := NewNICE(opts)
		defer d.Close()
		if err := d.Settle(); err != nil {
			t.Fatal(err)
		}
		d.Standby.SetTrace(func(string, ...any) {
			if tick == 0 {
				tick = d.Sim.Now() // the first trace line is the watchdog's verdict
			}
		})
		victim := d.Service.View(0).Replicas[1].Index
		d.Sim.Spawn("driver", func(p *sim.Proc) {
			defer d.Sim.Stop()
			if _, err := d.Clients[0].Put(p, "repair", "v", 1024); err != nil {
				t.Errorf("seed put: %v", err)
				return
			}
			d.Nodes[victim].Crash()
			p.Sleep(400 * time.Millisecond) // detection + handoff
			var before []uint64
			for part := 0; part < d.Opts.Nodes; part++ {
				before = append(before, d.Service.View(part).Epoch)
			}
			if before[0] == 1 {
				t.Error("the node failure never moved partition 0's epoch")
				return
			}
			d.MetaHost.SetDown(true)
			if killAt > 0 {
				d.Sim.After(killAt-p.Now(), func() { d.Chain.SetDown(1, true) })
			}
			p.Sleep(500 * time.Millisecond)
			svc := d.Standby.Promoted()
			if svc == nil {
				t.Errorf("kill at %v: standby never promoted", killAt)
				return
			}
			blocked = d.Chain.Stats().ReadsBlocked
			for part, epoch := range before {
				v := svc.View(part)
				if v.Epoch != epoch+1 || v.HasReplica(victim) {
					t.Errorf("kill at %v: partition %d restored as epoch %d replicas %v, want epoch %d without node %d",
						killAt, part, v.Epoch, v.Replicas, epoch+1, victim)
				}
			}
		})
		if err := d.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		return tick, blocked
	}

	tick, blocked := run(0)
	if tick == 0 {
		t.Fatal("calibration run did not promote")
	}
	if blocked != 0 {
		t.Fatalf("calibration run had %d refused chain reads with no chain fault", blocked)
	}
	waited := 0
	for lead := 100 * time.Microsecond; lead <= 2500*time.Microsecond; lead += 100 * time.Microsecond {
		if _, blocked := run(tick - lead); blocked > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Errorf("watchdog tick %v: no kill offset made the takeover wait out a chain repair", tick)
	}
}

// The split-brain fence: after a takeover, the old primary returns
// from the dead and tries to keep being the controller. Every write
// path it has — chain state, switch rules, cache installs, view
// announcements — must reject its stale generation, and the data path
// must stay correct throughout.
func TestSplitBrainZombieControllerIsFenced(t *testing.T) {
	opts := ctrlChainOptions()
	opts.Cache = true
	opts.CacheHotThreshold = 4
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		if _, err := c.Put(p, "fence", "v1", 1024); err != nil {
			t.Errorf("seed put: %v", err)
			return
		}
		d.MetaHost.SetDown(true)
		p.Sleep(500 * time.Millisecond)
		svc := d.Standby.Promoted()
		if svc == nil {
			t.Error("standby did not take over")
			return
		}
		newGen := svc.Gen()
		nodeView := d.Nodes[0].View(0)
		if nodeView == nil || nodeView.Gen != newGen {
			t.Fatalf("nodes never installed the promoted generation: %+v", nodeView)
		}

		// The zombie rises. Its host comes back, its procs never stopped;
		// its heartbeat detector has seen nothing for 500ms (the takeover
		// rule steals the heartbeats), so it immediately declares every
		// node dead and tries to announce emergency views.
		d.MetaHost.SetDown(false)
		p.Sleep(400 * time.Millisecond)

		if fenced := d.Service.Stats().FencedWrites; fenced == 0 {
			t.Error("the zombie's state writes were never fenced at the store")
		}
		if fenced := d.Chain.Stats().Fenced; fenced == 0 {
			t.Error("the chain head accepted the zombie's generation")
		}
		// The nodes still hold the promoted controller's views — the
		// zombie's announcements moved nothing.
		for i, n := range d.Nodes {
			if v := n.View(0); v != nil && v.Gen < newGen {
				t.Errorf("node %d regressed to a zombie view: gen %d < %d", i, v.Gen, newGen)
			}
		}
		// An install the zombie had in flight when the fence rose is
		// rejected when it reaches the switch.
		preRejected := d.Cache.Stats().Rejected
		d.Cache.InstallAs(d.Service.Gen(), "zombie-key", "stale", 64, 1)
		p.Sleep(10 * time.Millisecond) // let the install's ctrl delay elapse
		if d.Cache.Contains("zombie-key") {
			t.Error("a stale-generation cache install reached the switch table")
		}
		if d.Cache.Stats().Rejected == preRejected {
			t.Error("the switch never counted the fenced install")
		}
		// The data path survived the whole affair.
		if res, err := c.Get(p, "fence"); err != nil || !res.Found {
			t.Errorf("get after zombie return: %+v %v", res, err)
		}
		if _, err := c.Put(p, "fence", "v2", 1024); err != nil {
			t.Errorf("put after zombie return: %v", err)
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}

// A controller loss mid-node-recovery must not strand the rejoiner. The
// node crashes and restarts, its rejoin begins, and the controller dies
// before the recovery completes; the promoted standby inherits a
// Recovering node from the chain and must finish the procedure —
// previously the takeover could leave the node get-invisible forever.
func TestTakeoverMidRecoveryDoesNotStrandRejoiner(t *testing.T) {
	d := NewNICE(ctrlChainOptions())
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const part = 0
	victim := d.Service.View(part).Replicas[0].Index
	keys := d.keysInPartition(part, 6)

	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		for _, k := range keys[:3] {
			if _, err := c.Put(p, k, "v", 1024); err != nil {
				t.Errorf("seed put: %v", err)
				return
			}
		}
		// Crash the primary, let the failure be detected and the
		// handoff installed, then bring the node back: its rejoin
		// request starts the two-phase recovery.
		d.Nodes[victim].Crash()
		p.Sleep(300 * time.Millisecond)
		d.Nodes[victim].Restart()
		// Kill the controller while the rejoin is in flight.
		p.Sleep(60 * time.Millisecond)
		d.MetaHost.SetDown(true)
		p.Sleep(1500 * time.Millisecond)
		if d.Standby.Promoted() == nil {
			t.Error("standby did not take over")
			return
		}
		if d.Nodes[victim].Recovering() {
			t.Error("takeover stranded the rejoining node in recovery")
		}
		for _, k := range keys[3:] {
			if _, err := c.Put(p, k, "v", 1024); err != nil {
				t.Errorf("put after recovery-spanning takeover: %v", err)
				return
			}
		}
		for _, k := range keys {
			if res, err := c.Get(p, k); err != nil || !res.Found {
				t.Errorf("get %s after recovery-spanning takeover: %+v %v", k, res, err)
				return
			}
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}

// A node that crashes and restarts faster than the failure detector
// notices used to hit the controller's "already up" rejoin path, which
// dropped the request and left the node recovering forever. The
// controller now demotes and freshly rejoins it.
func TestFastRestartRejoinsThroughFullPath(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Heartbeat = ms(100)
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const part = 0
	victim := d.Service.View(part).Replicas[0].Index
	keys := d.keysInPartition(part, 4)

	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		for _, k := range keys {
			if _, err := c.Put(p, k, "v", 1024); err != nil {
				t.Errorf("seed put: %v", err)
				return
			}
		}
		// Bounce within the detection window (3 x 100ms heartbeats).
		d.Nodes[victim].Crash()
		p.Sleep(120 * time.Millisecond)
		d.Nodes[victim].Restart()
		p.Sleep(2 * time.Second)
		if d.Nodes[victim].Recovering() {
			t.Error("fast-restarted node is stranded in recovery")
		}
		for _, k := range keys {
			if res, err := c.Get(p, k); err != nil || !res.Found {
				t.Errorf("get %s after fast restart: %+v %v", k, res, err)
				return
			}
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}
