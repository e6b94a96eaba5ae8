package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// Deeper fault-tolerance scenarios beyond the basic handoff/recovery
// path exercised in nice_test.go.

func TestHandoffServesGetsAndForwardsMisses(t *testing.T) {
	// With load balancing on, some gets route to the handoff node. For
	// objects written before the failure it has no copy and must forward
	// to the primary (§4.4); clients still get answers.
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Clients = 3
	opts.LoadBalance = true
	opts.Heartbeat = ms(100)
	opts.OpTimeout = ms(400)
	opts.RetryWait = ms(200)
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const part = 0
	keys := d.keysInPartition(part, 20)
	victim := d.Service.View(part).Replicas[1].Index

	ok := true
	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		for _, k := range keys {
			if _, err := c.Put(p, k, "v", 2048); err != nil {
				t.Errorf("seed %s: %v", k, err)
				ok = false
				return
			}
		}
		d.Nodes[victim].Crash()
		p.Sleep(time.Second) // detection + handoff installation

		// All three clients (three source divisions) read every key:
		// whichever replica the switch picks, including the handoff,
		// the value must come back.
		for i, cl := range d.Clients {
			for _, k := range keys {
				res, err := cl.Get(p, k)
				if err != nil || !res.Found {
					t.Errorf("client %d get %s during outage: %+v %v", i, k, res, err)
					ok = false
					return
				}
			}
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		d.Close()
		return
	}
	// The handoff node must have forwarded at least some misses.
	v := d.Service.View(part)
	if v.Handoff == nil {
		t.Fatal("no handoff installed")
	}
	if d.Nodes[v.Handoff.Index].Stats().GetForwards == 0 {
		t.Error("handoff node never forwarded a miss to the primary")
	}
	d.Close()
}

func TestTwoSecondaryFailures(t *testing.T) {
	// The system tolerates multiple failures while one original replica
	// per region survives (§4.4).
	opts := DefaultOptions()
	opts.Nodes = 6
	opts.Heartbeat = ms(100)
	opts.OpTimeout = ms(400)
	opts.RetryWait = ms(200)
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const part = 0
	view := d.Service.View(part)
	v1, v2 := view.Replicas[1].Index, view.Replicas[2].Index

	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		keys := d.keysInPartition(part, 6)
		if _, err := c.Put(p, keys[0], 0, 1024); err != nil {
			t.Errorf("seed: %v", err)
			return
		}
		d.Nodes[v1].Crash()
		d.Nodes[v2].Crash()
		p.Sleep(time.Second)
		// Both replaced; puts and gets work against the doubly-repaired
		// set.
		for _, k := range keys {
			if _, err := c.Put(p, k, 1, 1024); err != nil {
				t.Errorf("put %s after double failure: %v", k, err)
				return
			}
		}
		res, err := c.Get(p, keys[0])
		if err != nil || !res.Found {
			t.Errorf("get after double failure: %+v %v", res, err)
		}
		v := d.Service.View(part)
		if v.HasReplica(v1) || v.HasReplica(v2) {
			t.Error("failed nodes still in the replica set")
		}
		if len(v.Replicas) != 3 {
			t.Errorf("replica set size = %d, want 3", len(v.Replicas))
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}

func TestSequentialFailureRecoveryCycles(t *testing.T) {
	// A node that crashes and recovers repeatedly must keep converging.
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Heartbeat = ms(100)
	opts.OpTimeout = ms(400)
	opts.RetryWait = ms(200)
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const part = 0
	victim := d.Service.View(part).Replicas[1].Index
	keys := d.keysInPartition(part, 30)

	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		ki := 0
		put := func(n int) {
			for i := 0; i < n && ki < len(keys); i++ {
				if _, err := c.Put(p, keys[ki], ki, 1024); err != nil {
					t.Errorf("put %s: %v", keys[ki], err)
				}
				ki++
			}
		}
		put(5)
		for cycle := 0; cycle < 2; cycle++ {
			d.Nodes[victim].Crash()
			p.Sleep(time.Second)
			put(5)
			d.Nodes[victim].Restart()
			p.Sleep(time.Second)
			put(5)
		}
		p.Sleep(500 * time.Millisecond)
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	// After the final recovery the victim must hold every committed key.
	missing := 0
	for i := 0; i < 25; i++ {
		if _, ok := d.Nodes[victim].Store().Peek(keys[i]); !ok {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("victim missing %d/25 objects after two crash/recover cycles", missing)
	}
	v := d.Service.View(part)
	if !v.HasReplica(victim) || v.Handoff != nil || v.Recovering != nil {
		t.Fatalf("view not healthy: %+v", v)
	}
	d.Close()
}

func TestPermanentRemove(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Heartbeat = ms(100)
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const part = 0
	victim := d.Service.View(part).Replicas[1].Index

	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		if _, err := c.Put(p, "before", "v", 512); err != nil {
			t.Errorf("seed: %v", err)
			return
		}
		d.Nodes[victim].Crash()
		d.Service.PermanentRemove(victim)
		p.Sleep(500 * time.Millisecond)
		// The handoff became a durable member; puts work and views are
		// healthy without a handoff marker.
		for i := 0; i < 5; i++ {
			if _, err := c.Put(p, fmt.Sprintf("after-%d", i), i, 512); err != nil {
				t.Errorf("put after removal: %v", err)
				return
			}
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < opts.Nodes; pi++ {
		v := d.Service.View(pi)
		if v.HasReplica(victim) {
			t.Errorf("partition %d still lists removed node", pi)
		}
		if v.Handoff != nil {
			t.Errorf("partition %d still marked with a temporary handoff", pi)
		}
		// The members hold that view too: a promotion announced at an
		// unchanged epoch is dropped by every node, leaving the stand-in
		// a stand-in forever.
		for _, r := range v.PutParticipants() {
			if nv := d.Nodes[r.Index].View(pi); nv == nil {
				t.Errorf("partition %d: member %d holds no view", pi, r.Index)
			} else if nv.Handoff != nil || nv.Epoch != v.Epoch {
				t.Errorf("partition %d: member %d holds epoch %d with handoff %v, the controller epoch %d with none",
					pi, r.Index, nv.Epoch, nv.Handoff, v.Epoch)
			}
		}
	}
	d.Close()
}

func TestRecoveringNodeIsPutVisibleButGetHidden(t *testing.T) {
	// During phase one of rejoin the node participates in puts but the
	// switch must not route gets to it (§4.4 node recovery).
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.LoadBalance = true
	opts.Heartbeat = ms(100)
	opts.OpTimeout = ms(400)
	opts.RetryWait = ms(200)
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const part = 0
	victim := d.Service.View(part).Replicas[1].Index
	keys := d.keysInPartition(part, 10)

	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		for _, k := range keys {
			if _, err := c.Put(p, k, "v", 1024); err != nil {
				t.Errorf("seed: %v", err)
				return
			}
		}
		d.Nodes[victim].Crash()
		p.Sleep(time.Second)
		baselineGets := d.Nodes[victim].Stats().Gets

		d.Nodes[victim].Restart()
		// Immediately after restart the node is recovering: check the
		// controller state and that get routing excludes it.
		p.Sleep(50 * time.Millisecond)
		v := d.Service.View(part)
		if v.IsRecovering(victim) {
			// Good: caught the window. Gets now must not hit the victim.
			for i := 0; i < 10; i++ {
				if _, err := c.Get(p, keys[i%len(keys)]); err != nil {
					t.Errorf("get during recovery window: %v", err)
				}
			}
			if d.Nodes[victim].Stats().Gets != baselineGets {
				t.Error("get-hidden recovering node served client gets")
			}
		}
		p.Sleep(time.Second) // let recovery finish
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}

func TestRingExpansionAddReplica(t *testing.T) {
	// §4.4 ring re-configuration / §4.5: grow a hot partition's replica
	// set; the new replica becomes put-visible immediately, fetches the
	// key range from the primary, turns get-visible, and the LB
	// divisions are recomputed to use it.
	opts := DefaultOptions()
	opts.Nodes = 6
	opts.Clients = 4
	opts.LoadBalance = true
	d := NewNICE(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const part = 0
	keys := d.keysInPartition(part, 15)
	// Pick a node outside the replica set.
	var newcomer int = -1
	for i := 0; i < opts.Nodes; i++ {
		if !d.Service.View(part).HasReplica(i) {
			newcomer = i
			break
		}
	}
	if newcomer < 0 {
		t.Fatal("no spare node")
	}

	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		for _, k := range keys {
			if _, err := c.Put(p, k, "v", 2048); err != nil {
				t.Errorf("seed: %v", err)
				return
			}
		}
		if err := d.Service.AddReplica(part, newcomer); err != nil {
			t.Errorf("AddReplica: %v", err)
			return
		}
		// Double add must be rejected.
		if err := d.Service.AddReplica(part, newcomer); err == nil {
			t.Error("duplicate AddReplica accepted")
		}
		p.Sleep(time.Second)
		v := d.Service.View(part)
		if !v.HasReplica(newcomer) || v.Recovering != nil {
			t.Errorf("expansion incomplete: %+v", v)
			return
		}
		if len(v.Replicas) != 4 {
			t.Errorf("replica set size = %d, want 4", len(v.Replicas))
		}
		// The newcomer holds the whole range.
		for _, k := range keys {
			if _, ok := d.Nodes[newcomer].Store().Peek(k); !ok {
				t.Errorf("newcomer missing %s after range fetch", k)
			}
		}
		// New puts reach it too.
		if _, err := c.Put(p, keys[0], "v2", 2048); err != nil {
			t.Errorf("put after expansion: %v", err)
			return
		}
		p.Sleep(50 * time.Millisecond)
		if obj, ok := d.Nodes[newcomer].Store().Peek(keys[0]); !ok || obj.Value != "v2" {
			t.Errorf("newcomer did not participate in post-expansion put: %v", obj)
		}
		// And gets can now be served by it (client in division 3 of 4).
		before := d.Nodes[newcomer].Stats().Gets
		for i := 0; i < 4; i++ {
			if _, err := d.Clients[3].Get(p, keys[1]); err != nil {
				t.Errorf("get after expansion: %v", err)
			}
		}
		if d.Nodes[newcomer].Stats().Gets == before {
			t.Log("note: division layout did not route client 3 to the newcomer (placement-dependent)")
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}
