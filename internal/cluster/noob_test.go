package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/noob"
	"repro/internal/sim"
)

// runNOOB drives fn and runs the simulation until it stops.
func runNOOB(t *testing.T, opts NOOBOptions, fn func(p *sim.Proc, d *NOOB)) *NOOB {
	t.Helper()
	d := NewNOOB(opts)
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
		t.Fatal("driver did not finish")
	}
	return d
}

func noobMatrix() []NOOBOptions {
	var out []NOOBOptions
	for _, access := range []struct {
		name string
		mode noob.AccessMode
		gw   noob.GatewayMode
	}{
		{"ROG", noob.ViaGateway, noob.ROG},
		{"RAG", noob.ViaGateway, noob.RAG},
		{"RAC", noob.RAC, noob.RAG},
	} {
		for _, cons := range []noob.Consistency{noob.PrimaryOnly, noob.TwoPC} {
			o := DefaultNOOBOptions()
			o.Nodes = 5
			o.Access = access.mode
			o.Gateway = access.gw
			o.Consistency = cons
			out = append(out, o)
		}
	}
	return out
}

// heldMsg is a payload that counts its holders (transport.Counted).
type heldMsg struct{ holds netsim.Holds }

func (m *heldMsg) Holders() *netsim.Holds { return &m.holds }

// TestNOOBSwitchLetsGoOfWhatItForwards: NOOB's static L3 switch forwards
// each packet itself, not a copy, so a counted payload that crosses it
// goes back to its owner once its reader lets go.
func TestNOOBSwitchLetsGoOfWhatItForwards(t *testing.T) {
	back := 0
	m := &heldMsg{holds: netsim.Holds{Last: func() { back++ }}}
	runNOOB(t, DefaultNOOBOptions(), func(p *sim.Proc, d *NOOB) {
		rx := d.Stacks[1].MustBindUDP(9000)
		m.holds.Hold() // the sender's, let go once the datagram is out
		d.CStacks[0].MustBindUDP(9000).SendTo(d.Stacks[1].IP(), 9000, m, 100)
		m.holds.Release()
		if dg, ok := rx.Recv(p); ok {
			dg.Data.(*heldMsg).holds.Release()
		}
		p.Sleep(time.Millisecond)
	}).Sim.Shutdown()
	if back != 1 {
		t.Fatalf("the payload went back to its owner %d times, want once", back)
	}
}

func TestNOOBPutGetAcrossConfigurations(t *testing.T) {
	for i, opts := range noobMatrix() {
		opts := opts
		t.Run(fmt.Sprintf("config%d", i), func(t *testing.T) {
			d := runNOOB(t, opts, func(p *sim.Proc, d *NOOB) {
				c := d.Clients[0]
				for k := 0; k < 10; k++ {
					key := fmt.Sprintf("key-%d", k)
					if _, err := c.Put(p, key, k, 1024); err != nil {
						t.Errorf("put %s: %v", key, err)
						return
					}
				}
				for k := 0; k < 10; k++ {
					key := fmt.Sprintf("key-%d", k)
					res, err := c.Get(p, key)
					if err != nil || !res.Found || res.Value != k {
						t.Errorf("get %s = %+v, %v", key, res, err)
					}
				}
				if res, err := c.Get(p, "missing"); err != nil || res.Found {
					t.Errorf("missing key: %+v %v", res, err)
				}
			})
			d.Sim.Shutdown()
		})
	}
}

func TestNOOBReplicationReachesAllReplicas(t *testing.T) {
	for _, cons := range []noob.Consistency{noob.PrimaryOnly, noob.TwoPC} {
		opts := DefaultNOOBOptions()
		opts.Nodes = 5
		opts.Consistency = cons
		d := runNOOB(t, opts, func(p *sim.Proc, d *NOOB) {
			if _, err := d.Clients[0].Put(p, "obj", "v", 4096); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			p.Sleep(ms(20))
		})
		part := d.Space.PartitionOf("obj")
		for _, idx := range d.Placement.Replicas(part) {
			if _, ok := d.Nodes[idx].Store().Peek("obj"); !ok {
				t.Errorf("consistency=%v: replica %d missing object", cons, idx)
			}
		}
		for i := range d.Nodes {
			isReplica := false
			for _, idx := range d.Placement.Replicas(part) {
				if idx == i {
					isReplica = true
				}
			}
			if _, ok := d.Nodes[i].Store().Peek("obj"); ok && !isReplica {
				t.Errorf("non-replica %d has object", i)
			}
		}
		d.Sim.Shutdown()
	}
}

func TestNOOBRoutingHopLatencyOrdering(t *testing.T) {
	// ROG adds two hops, RAG one, RAC zero: get latency must order
	// ROG > RAG > RAC for small objects (Fig. 4's claim).
	lat := func(access noob.AccessMode, gw noob.GatewayMode) sim.Time {
		opts := DefaultNOOBOptions()
		opts.Nodes = 5
		opts.Access = access
		opts.Gateway = gw
		var total sim.Time
		d := runNOOB(t, opts, func(p *sim.Proc, d *NOOB) {
			c := d.Clients[0]
			if _, err := c.Put(p, "k", "v", 64); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			for i := 0; i < 50; i++ {
				res, err := c.Get(p, "k")
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				total += res.Latency
			}
		})
		d.Sim.Shutdown()
		return total
	}
	rog := lat(noob.ViaGateway, noob.ROG)
	rag := lat(noob.ViaGateway, noob.RAG)
	rac := lat(noob.RAC, noob.RAG)
	if !(rog > rag && rag > rac) {
		t.Fatalf("latency ordering violated: ROG=%v RAG=%v RAC=%v", rog, rag, rac)
	}
}

func TestNOOBChainReplication(t *testing.T) {
	opts := DefaultNOOBOptions()
	opts.Nodes = 5
	opts.Replication = noob.Chain
	d := runNOOB(t, opts, func(p *sim.Proc, d *NOOB) {
		if _, err := d.Clients[0].Put(p, "chained", "v", 8192); err != nil {
			t.Errorf("put: %v", err)
		}
	})
	part := d.Space.PartitionOf("chained")
	for _, idx := range d.Placement.Replicas(part) {
		if _, ok := d.Nodes[idx].Store().Peek("chained"); !ok {
			t.Errorf("chain replica %d missing object", idx)
		}
	}
	d.Sim.Shutdown()
}

func TestNOOBQuorumReturnsEarly(t *testing.T) {
	// With 3 slow replicas (50 Mbps) out of R=7, a k=1 quorum put of a
	// large object must be much faster than full replication.
	run := func(k int) sim.Time {
		opts := DefaultNOOBOptions()
		opts.Nodes = 8
		opts.R = 7
		opts.QuorumK = k
		var lat sim.Time
		d := NewNOOB(opts)
		// Throttle three replicas of the key's partition.
		part := d.Space.PartitionOf("big")
		reps := d.Placement.Replicas(part)
		for _, idx := range reps[4:7] {
			d.Stacks[idx].Host().Port().Link().SetConfig(netsim.Mbps(50, 5*time.Microsecond))
		}
		d.Sim.Spawn("driver", func(p *sim.Proc) {
			res, err := d.Clients[0].Put(p, "big", "v", 1<<20)
			if err != nil {
				t.Errorf("put k=%d: %v", k, err)
			}
			lat = res.Latency
			d.Sim.Stop()
		})
		if err := d.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		d.Sim.Shutdown()
		return lat
	}
	fast := run(1)
	slow := run(7)
	if fast*3 > slow {
		t.Fatalf("quorum k=1 (%v) should be much faster than k=7 (%v)", fast, slow)
	}
}

func TestNOOBGetRoundRobinSpreadsLoad(t *testing.T) {
	opts := DefaultNOOBOptions()
	opts.Nodes = 5
	opts.Gets = noob.GetRoundRobin
	d := runNOOB(t, opts, func(p *sim.Proc, d *NOOB) {
		c := d.Clients[0]
		if _, err := c.Put(p, "hot", "v", 256); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		p.Sleep(ms(10))
		for i := 0; i < 9; i++ {
			if res, err := c.Get(p, "hot"); err != nil || !res.Found {
				t.Errorf("get: %+v %v", res, err)
				return
			}
		}
	})
	part := d.Space.PartitionOf("hot")
	for _, idx := range d.Placement.Replicas(part) {
		if d.Nodes[idx].Stats().Gets == 0 {
			t.Errorf("replica %d served no gets under round robin", idx)
		}
	}
	d.Sim.Shutdown()
}

func TestNOOBMembershipBroadcastIsLinear(t *testing.T) {
	count := func(n int) int64 {
		opts := DefaultNOOBOptions()
		opts.Nodes = n
		d := NewNOOB(opts)
		d.Member.BroadcastChange([]int{1})
		got := d.Member.MsgsSent()
		d.Sim.Shutdown()
		return got
	}
	if c5, c20 := count(5), count(20); c5 != 5 || c20 != 20 {
		t.Fatalf("broadcast counts = %d, %d; want 5, 20 (O(N))", c5, c20)
	}
}

func TestNOOBQuorumRWConsistency(t *testing.T) {
	// §3.3: the majority design stays correct even when a replica holds
	// stale data — reads consult a majority and return the newest
	// version.
	opts := DefaultNOOBOptions()
	opts.Nodes = 5
	opts.Consistency = noob.QuorumRW
	d := runNOOB(t, opts, func(p *sim.Proc, d *NOOB) {
		c := d.Clients[0]
		for v := 1; v <= 3; v++ {
			if _, err := c.Put(p, "q", v, 1024); err != nil {
				t.Errorf("put v%d: %v", v, err)
				return
			}
		}
		p.Sleep(ms(20))
		res, err := c.Get(p, "q")
		if err != nil || !res.Found || res.Value != 3 {
			t.Errorf("quorum get = %+v, %v (want newest version 3)", res, err)
		}
		// Majority write: at least 3 of 5 replicas hold the object.
		part := d.Space.PartitionOf("q")
		have := 0
		for _, idx := range d.Placement.Replicas(part) {
			if _, ok := d.Nodes[idx].Store().Peek("q"); ok {
				have++
			}
		}
		if have < noob.Majority(3) {
			t.Errorf("only %d replicas hold the object after quorum writes", have)
		}
	})
	d.Sim.Shutdown()
}

func TestNOOBQuorumReadTouchesMajority(t *testing.T) {
	// Every quorum get must consult ceil((R+1)/2) replicas; with R=5 the
	// peers see substantial read traffic even though one copy would do —
	// the §3.3 get overhead NICE eliminates.
	opts := DefaultNOOBOptions()
	opts.Nodes = 7
	opts.R = 5
	opts.Consistency = noob.QuorumRW
	d := runNOOB(t, opts, func(p *sim.Proc, d *NOOB) {
		c := d.Clients[0]
		if _, err := c.Put(p, "q", "v", 1024); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		p.Sleep(ms(20))
		d.Net.ResetHostStats()
		for i := 0; i < 20; i++ {
			if res, err := c.Get(p, "q"); err != nil || !res.Found {
				t.Errorf("get: %+v %v", res, err)
				return
			}
		}
	})
	part := d.Space.PartitionOf("q")
	reps := d.Placement.Replicas(part)
	// The coordinator plus at least two peers served reads.
	served := 0
	for _, idx := range reps {
		st := d.Stacks[idx].Host().Stats()
		if st.BytesSent > 0 {
			served++
		}
	}
	if served < noob.Majority(5) {
		t.Fatalf("only %d replicas involved in quorum reads, want >= %d", served, noob.Majority(5))
	}
	d.Sim.Shutdown()
}
