package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func runLeafSpine(t *testing.T, opts Options, leaves int, fn func(p *sim.Proc, d *NICE)) *NICE {
	t.Helper()
	return runDriver(t, NewNICELeafSpine(opts, leaves), fn)
}

func TestLeafSpinePutGet(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 9
	d := runLeafSpine(t, opts, 3, func(p *sim.Proc, d *NICE) {
		c := d.Clients[0]
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("k-%d", i)
			if _, err := c.Put(p, key, i, 4096); err != nil {
				t.Errorf("put %s: %v", key, err)
				return
			}
			res, err := c.Get(p, key)
			if err != nil || !res.Found || res.Value != i {
				t.Errorf("get %s = %+v, %v", key, res, err)
				return
			}
		}
	})
	d.Close()
}

func TestLeafSpineMulticastDeliversExactlyOnce(t *testing.T) {
	// The multicast tree must deliver one copy of a put to each replica
	// on every fabric the controller can read. Leaf-spine is the hard
	// case and the test's name: round-robin placement puts replicas i,
	// i+1, i+2 on three different leaves, and the spine must never reflect
	// packets back down the ingress leaf (which would double-deliver).
	onEveryFabric(t, func(t *testing.T, build func(Options) *NICE) {
		opts := DefaultOptions()
		opts.Nodes = 9
		d := runDriver(t, build(opts), func(p *sim.Proc, d *NICE) {
			c := d.Clients[0]
			if _, err := c.Put(p, "tree", "v", 64<<10); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			p.Sleep(20 * time.Millisecond)
			for _, r := range d.Service.View(d.Space.PartitionOf("tree")).Replicas {
				obj, ok := d.Nodes[r.Index].Store().Peek("tree")
				if !ok || obj.Version.IsZero() {
					t.Errorf("replica %d missing committed object", r.Index)
				}
			}
		})
		defer d.Close()
		// Exactly-once: each replica's NIC saw the object bytes once.
		for _, r := range d.Service.View(d.Space.PartitionOf("tree")).Replicas {
			st := d.Stacks[r.Index].Host().Stats()
			if st.BytesRecv > 2*(64<<10) {
				t.Errorf("replica %d received %d bytes for one 64KiB object: duplicate delivery",
					r.Index, st.BytesRecv)
			}
		}
	})
}

func TestLeafSpineMulticastNetworkLoadIsTreeOptimal(t *testing.T) {
	// The client's access link and each inter-switch link must carry the
	// object at most once per put — the "optimal path is equivalent to
	// link-layer multicasting paths" claim (§4.2), now on a real tree.
	opts := DefaultOptions()
	opts.Nodes = 9
	const size = 256 << 10
	d := runLeafSpine(t, opts, 3, func(p *sim.Proc, d *NICE) {
		d.Net.ResetLinkStats()
		if _, err := d.Clients[0].Put(p, "tree-load", "v", size); err != nil {
			t.Errorf("put: %v", err)
		}
		p.Sleep(10 * time.Millisecond)
	})
	for _, l := range d.Net.Links() {
		if l.TotalBytes() > size+size/4 {
			t.Errorf("link %s carried %d bytes for one %d-byte put (duplicated data on the tree)",
				l.Name, l.TotalBytes(), size)
		}
	}
	d.Close()
}

func TestLeafSpineFailureHandling(t *testing.T) {
	opts := DefaultOptions()
	opts.Nodes = 9
	opts.Heartbeat = ms(100)
	opts.OpTimeout = ms(400)
	opts.RetryWait = ms(300)
	d := NewNICELeafSpine(opts, 3)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const part = 0
	victim := d.Service.View(part).Replicas[1].Index
	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		keys := d.keysInPartition(part, 6)
		if _, err := c.Put(p, keys[0], "v", 1024); err != nil {
			t.Errorf("seed: %v", err)
			return
		}
		d.Nodes[victim].Crash()
		p.Sleep(time.Second)
		for _, k := range keys {
			if _, err := c.Put(p, k, "v2", 1024); err != nil {
				t.Errorf("put after failure on tree fabric: %v", err)
				return
			}
		}
		d.Nodes[victim].Restart()
		p.Sleep(time.Second)
		v := d.Service.View(part)
		if !v.HasReplica(victim) || v.Handoff != nil {
			t.Errorf("recovery incomplete on tree fabric: %+v", v)
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}
