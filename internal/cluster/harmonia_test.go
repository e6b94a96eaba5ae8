package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/sim"
)

// TestHarmoniaSmoke: with the dirty-set stage attached, a read-heavy
// workload on a quiescent key set is spread across the replica set by
// the switch, every value stays correct, and the counters agree that
// replica routing actually happened.
func TestHarmoniaSmoke(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Harmonia = true
	d := runNICE(t, opts, func(p *sim.Proc, d *NICE) {
		c := d.Clients[0]
		for i := 0; i < 8; i++ {
			if _, err := c.Put(p, fmt.Sprintf("hk-%d", i), i, 512); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		p.Sleep(ms(20)) // let every replica apply, clearing the dirty set
		for round := 0; round < 12; round++ {
			for i := 0; i < 8; i++ {
				res, err := c.Get(p, fmt.Sprintf("hk-%d", i))
				if err != nil || !res.Found || res.Value != i {
					t.Errorf("get hk-%d = %+v, %v", i, res, err)
					return
				}
			}
		}
	})
	st := d.Harmonia.Stats()
	if st.Routed == 0 || st.RoutedReplica == 0 {
		t.Errorf("no reads were replica-routed: %+v", st)
	}
	var replicaGets, localGets int64
	for _, n := range d.Nodes {
		ns := n.Stats()
		replicaGets += ns.GetsServedAsReplica
		localGets += ns.GetsServedLocal
	}
	if replicaGets == 0 {
		t.Errorf("no node served a get as non-primary replica (local=%d)", localGets)
	}
	d.Close()
}

// TestHarmoniaMultiPutMarksEveryKey: the switch sees every write, batched
// framing included. A MultiPut whose ops share a vnode travels as one
// batched prepare; the instant it crosses the switch every one of its keys
// is dirty, reads issued inside the prepare→commit window fall back to the
// primary instead of being replica-routed, and once every replica has
// applied the commits the keys are clean and spread again.
func TestHarmoniaMultiPutMarksEveryKey(t *testing.T) {
	const n = 4
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Clients = 1 + n
	opts.Harmonia = true
	opts.Disk.WriteLatency = ms(5) // a prepare→commit window wide enough to read inside
	d := runNICE(t, opts, func(p *sim.Proc, d *NICE) {
		// MultiPut packs by destination vnode address: n keys of one vnode
		// are one batched prepare.
		vnode := d.Unicast.AddrOfKey("obj-0")
		keys := keysIn(func(k string) int {
			if d.Unicast.AddrOfKey(k) == vnode {
				return 0
			}
			return 1
		}, "obj-%d", 0, n)
		ops := make([]core.PutOp, n)
		for i, k := range keys {
			ops[i] = core.PutOp{Key: k, Value: i, Size: 512}
		}
		committed := false
		g := sim.NewGroup(d.Sim)
		g.Add(1)
		d.Sim.Spawn("multiput", func(p *sim.Proc) {
			defer g.Done()
			_, errs := d.Clients[0].MultiPut(p, ops)
			for i, err := range errs {
				if err != nil {
					t.Errorf("put %s: %v", keys[i], err)
				}
			}
			committed = true
		})
		// One packet carries the batch: the first instant any key is
		// marked, all of them are.
		for d.Harmonia.Stats().Marks == 0 && !committed {
			p.Sleep(time.Microsecond)
		}
		for _, k := range keys {
			if !d.Harmonia.Dirty(k) {
				t.Errorf("%s is not dirty while its batched prepare is in flight", k)
			}
		}
		for i, k := range keys {
			g.Add(1)
			d.Sim.Spawn("reader", func(p *sim.Proc) {
				defer g.Done()
				if _, err := d.Clients[1+i].Get(p, k); err != nil {
					t.Errorf("get %s mid-batch: %v", k, err)
				}
			})
		}
		p.Sleep(ms(1)) // the reads have crossed the switch, the commit is a disk write away
		if mid := d.Harmonia.Stats(); committed || mid.DirtyFallbacks != n || mid.Routed != 0 || mid.Overflows != 0 {
			t.Errorf("mid-batch reads were not all held back to the primary (committed=%v): %+v", committed, mid)
		}
		g.Wait(p)
		p.Sleep(ms(20)) // every replica applies, clearing the marks
		for _, k := range keys {
			if d.Harmonia.Dirty(k) {
				t.Errorf("%s is still dirty after its commit applied everywhere", k)
			}
		}
		for i, k := range keys {
			if res, err := d.Clients[1].Get(p, k); err != nil || res.Value != i {
				t.Errorf("get %s after the batch = %+v, %v", k, res, err)
			}
		}
		if st := d.Harmonia.Stats(); st.Marks != n || st.Clears != n || st.Routed != n {
			t.Errorf("want %d marks, clears and clean reads: %+v", n, st)
		}
	})
	d.Close()
}

// TestHarmoniaConcurrentWritesStayConsistent: a mixed read/write
// workload on a tiny hot key set — the adversarial case for clean-key
// rewrites — must never observe a value older than the newest completed
// put, even under any-k quorum commit where some replica always lags.
func TestHarmoniaConcurrentWritesStayConsistent(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Clients = 3
	opts.Harmonia = true
	opts.QuorumK = 2 // any-k: the laggard replica is the trap
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const key = "contended"
	g := sim.NewGroup(d.Sim)
	floor := 0 // newest value whose put has returned
	g.Add(1)
	d.Sim.Spawn("writer", func(p *sim.Proc) {
		defer g.Done()
		for i := 1; i <= 30; i++ {
			if _, err := d.Clients[0].Put(p, key, i, 256); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			floor = i
		}
	})
	for ci := 1; ci < 3; ci++ {
		c := d.Clients[ci]
		g.Add(1)
		d.Sim.Spawn("reader", func(p *sim.Proc) {
			defer g.Done()
			for i := 0; i < 60; i++ {
				f := floor // floor at invoke time
				res, err := c.Get(p, key)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				got := 0
				if res.Found {
					got = res.Value.(int)
				}
				if got < f {
					t.Errorf("stale read: got %d, but put(%d) had completed", got, f)
					return
				}
			}
		})
	}
	d.Sim.Spawn("join", func(p *sim.Proc) { g.Wait(p); d.Sim.Stop() })
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Harmonia.Stats()
	if st.Marks == 0 {
		t.Errorf("no puts were marked dirty: %+v", st)
	}
	d.Close()
}

// TestHarmoniaViewChangeFlushesDirtySet: crashing a replica mid-workload
// forces a view change; the reinstall must flush the switch's dirty set
// (sticky entries, taint reset) and reads must stay correct across the
// whole window.
func TestHarmoniaViewChangeFlushesDirtySet(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Harmonia = true
	opts.Heartbeat = ms(100)
	opts.OpTimeout = ms(500)
	opts.RetryWait = ms(300)
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	key := "flushed"
	part := d.Space.PartitionOf(key)
	victim := d.Service.View(part).Replicas[1].Index // a secondary

	d.Sim.Spawn("workload", func(p *sim.Proc) {
		c := d.Clients[0]
		for i := 1; i <= 5; i++ {
			if _, err := c.Put(p, key, i, 512); err != nil {
				t.Errorf("warm put: %v", err)
			}
		}
		d.Nodes[victim].Crash()
		// Keep writing and reading across the failover window. Retries
		// are expected; stale values are not.
		last := 5
		for i := 6; i <= 15; i++ {
			if _, err := c.Put(p, key, i, 512); err == nil {
				last = i
			}
			res, err := c.Get(p, key)
			if err == nil && res.Found && res.Value.(int) < last {
				t.Errorf("stale read %v after put(%d) completed", res.Value, last)
			}
		}
		d.Nodes[victim].Restart()
		p.Sleep(ms(800))
		res, err := c.Get(p, key)
		if err != nil || !res.Found || res.Value.(int) < last {
			t.Errorf("post-recovery get = %+v, %v (want >= %d)", res, err, last)
		}
		d.Sim.Stop()
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	// The crash + recovery reinstalls the victim's partitions; entries
	// resident at that moment become sticky. Flushes can legitimately be
	// zero only if no entry was resident at install time, but installs
	// beyond the initial one-per-partition bring-up must have happened.
	if st := d.Harmonia.Stats(); st.Installs <= int64(d.Space.P) {
		t.Errorf("no view-change reinstalls reached the dirty set: %+v", st)
	}
	d.Close()
}

// TestHarmoniaChaosCell drives the +harmonia chaos system through
// generated fault schedules: zero checker violations, and the dirty-set
// stage must actually route (the cell is pointless if harmonia never
// engages).
func TestHarmoniaChaosCell(t *testing.T) {
	var sys chaosSystem
	for _, s := range chaosSystems() {
		if s.name == "NICEKV+harmonia" {
			sys = s
		}
	}
	if sys.name == "" {
		t.Fatal("harmonia system missing from chaosSystems")
	}
	routed := int64(0)
	for i := 0; i < 3; i++ {
		sched := faultinject.Generate(DeriveSeed(23, i), chaosGenConfig(sys, 0))
		cell, err := runChaosCell(sys, sched)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range cell.Violations {
			t.Errorf("schedule %d: %s (repro: %s)", i, v, cell.Repro())
		}
		routed += cell.HarmoniaRouted
	}
	if routed == 0 {
		t.Error("harmonia never routed a read across 3 chaos schedules")
	}
}

// TestHarmoniaFalseDeposalRegression replays a chaos schedule that once
// produced stale reads. The sequence: an any-k put's prepare is lost to
// one replica, so the acked version lives on two of three members; one
// holder crashes; heartbeat loss then makes the controller depose the
// other holder — live, merely lossy — leaving a view where NO member has
// the acked write. The promoted primary's range sync over the surviving
// members alone "completed" without it and served the stale version.
// The fix chases superseded-view members during the post-promotion sync
// (a falsely deposed node still answers range fetches) and holds
// primary-routed reads at nodes that do not believe themselves primary.
func TestHarmoniaFalseDeposalRegression(t *testing.T) {
	cell, err := ReplayChaos("NICEKV+harmonia :: seed=5360236921867582681 | loss n2 r=0.250549727395339 @277.983352ms +110.701296ms | slownic n3 x=7.375146497205922 @306.607502ms +132.366741ms | crash n1 @325.115761ms +138.655675ms | loss n0 r=0.14855798606557893 @400.608502ms +40.073144ms | loss n4 r=0.41157555708617566 @415.08098ms +54.72591ms | slownic n2 x=2.9510409206088477 @434.482248ms +50.810054ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cell.Violations {
		t.Errorf("replayed schedule violated: %s", v)
	}
}

// TestCollapsedPartitionLastHolderReseat replays a quorum-cell schedule
// where false-deposal cascades emptied every partition's view (the sole
// remaining replica was deposed by heartbeat loss while alive) and an
// earlier-deposed node rejoined first. Reseating that node as primary
// acked a fresh put at a version behind one the deposed holder had
// already acknowledged — a version rollback. The controller now records
// the last removed replica per collapsed partition and reseats only
// that node; other rejoiners skip the partition until the holder
// returns. (Before the reseat logic existed at all, this schedule
// panicked the controller on an empty view.)
func TestCollapsedPartitionLastHolderReseat(t *testing.T) {
	cell, err := ReplayChaos("NICEKV+quorum :: seed=344103320661018562 | loss n1 r=0.4190385780390639 @143.940676ms +126.788355ms | linkdown n0 @171.88203ms +84.096007ms | loss n4 r=0.14237373516006308 @208.486504ms +120.36211ms | ctrl d=1.412171ms r=0.2727307999089464 @224.522489ms +62.075986ms | linkdown n3 @295.266772ms +113.0622ms | loss n2 r=0.33901147403117066 @360.456282ms +133.093299ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cell.Violations {
		t.Errorf("replayed schedule violated: %s", v)
	}
}
