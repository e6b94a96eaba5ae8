package cluster

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// The §4.1 hot-standby metadata extension: the data path never depends
// on the controller, so a metadata failure is invisible to clients —
// and once the standby promotes itself, membership changes are handled
// again.

func TestStandbyTakeoverIsTransparentToDataPath(t *testing.T) {
	onEveryFabric(t, testStandbyTakeoverIsTransparentToDataPath)
}

func testStandbyTakeoverIsTransparentToDataPath(t *testing.T, build func(Options) *NICE) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Standby = true
	opts.Heartbeat = ms(100)
	d := build(opts)
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		if _, err := c.Put(p, "steady", "v1", 1024); err != nil {
			t.Errorf("put before meta failure: %v", err)
			return
		}
		// Kill the metadata host: puts and gets keep working (the data
		// path is entirely in the fabric + storage nodes).
		d.MetaHost.SetDown(true)
		for i := 0; i < 5; i++ {
			if _, err := c.Put(p, "steady", i, 1024); err != nil {
				t.Errorf("put during meta outage: %v", err)
				return
			}
			if res, err := c.Get(p, "steady"); err != nil || !res.Found {
				t.Errorf("get during meta outage: %+v %v", res, err)
				return
			}
		}
		// Wait for the watchdog: the standby must promote itself.
		p.Sleep(time.Second)
		if d.Standby.Promoted() == nil {
			t.Error("standby did not take over")
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}

func TestStandbyHandlesNodeFailureAfterTakeover(t *testing.T) {
	onEveryFabric(t, testStandbyHandlesNodeFailureAfterTakeover)
}

func testStandbyHandlesNodeFailureAfterTakeover(t *testing.T, build func(Options) *NICE) {
	opts := DefaultOptions()
	opts.Nodes = 5
	opts.Standby = true
	opts.Heartbeat = ms(100)
	opts.OpTimeout = ms(400)
	opts.RetryWait = ms(300)
	d := build(opts)
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
				t.Errorf("seed: %v", err)
				return
			}
		}
		// Lose the metadata service, promote the standby.
		d.MetaHost.SetDown(true)
		p.Sleep(time.Second)
		svc := d.Standby.Promoted()
		if svc == nil {
			t.Error("standby did not take over")
			return
		}
		// The promoted service restored the pre-failure views.
		v := svc.View(part)
		if len(v.Replicas) != 3 {
			t.Errorf("promoted service lost view state: %+v", v)
		}
		// Now a storage node fails. Heartbeats (still addressed to the
		// old metadata IP) reach the promoted standby via the takeover
		// rule; it must install a handoff and keep puts available.
		d.Nodes[victim].Crash()
		p.Sleep(time.Second)
		v = svc.View(part)
		if v.HasReplica(victim) {
			t.Error("promoted service did not process the node failure")
		}
		if v.Handoff == nil {
			t.Error("promoted service installed no handoff")
		}
		for _, k := range keys[4:] {
			if _, err := c.Put(p, k, "v", 1024); err != nil {
				t.Errorf("put after failure under standby: %v", err)
				return
			}
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}
