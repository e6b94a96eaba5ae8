package core

import (
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/noob"
	"repro/internal/ring"
	"repro/internal/sim"
)

// TestPrepareIsOneForcedWrite: a replica's prepare — +L and W of Fig. 3 —
// is one forced write, since the WAL record carries the object. One 1 KB
// put on three replicas adds one write per replica and books
// WriteLatency + (64 + 1024)/WriteBps of each disk; so does one NOOB 2PC
// put. A replica that crashes and restarts during that write comes back
// with neither a WAL record nor a lock for the put.
func TestPrepareIsOneForcedWrite(t *testing.T) {
	disk := kvstore.SSD()
	want := disk.WriteLatency + sim.Time(float64(64+1024)/disk.WriteBps*float64(time.Second))
	check := func(t *testing.T, i int, st *kvstore.Store) {
		t.Helper()
		if got := st.Stats(); got.DiskWrites != 1 || got.DiskBusy != want {
			t.Errorf("replica %d: %d forced writes booking %v, want 1 booking %v", i, got.DiskWrites, got.DiskBusy, want)
		}
	}

	t.Run("nice", func(t *testing.T) {
		f := newFixture(t, 4)
		_, nodes := f.cluster()
		f.put("k")
		for i, n := range nodes {
			check(t, i, n.store)
		}
	})

	t.Run("noob-2pc", func(t *testing.T) {
		f := newFixture(t, 4)
		stacks := f.hosts
		var addrs []noob.Addr
		for i, st := range stacks[1:] {
			addrs = append(addrs, noob.Addr{Index: i, IP: st.IP(), Port: 7000})
		}
		placement, space := ring.NewPlacement(3, 3), ring.NewSpace(3)
		var nodes []*noob.Node
		for i, st := range stacks[1:] {
			n := noob.NewNode(st, noob.NodeConfig{Self: addrs[i], Nodes: addrs, Placement: placement,
				Space: space, Consistency: noob.TwoPC, Disk: disk})
			n.Start()
			nodes = append(nodes, n)
		}
		c := noob.NewClient(stacks[0], noob.ClientConfig{Mode: noob.RAC, Nodes: addrs, Placement: placement, Space: space})
		f.drain(func(p *sim.Proc) {
			if _, err := c.Put(p, "k", "v", 1024); err != nil {
				t.Error(err)
			}
		})
		for i, n := range nodes {
			check(t, i, n.Store())
		}
	})

	t.Run("crash mid-write", func(t *testing.T) {
		f := newFixture(t, 4)
		c, nodes := f.cluster()
		c.cfg.MaxRetries = 0
		member := nodes[2]
		var crashed sim.Time
		f.s.Spawn("crasher", func(p *sim.Proc) {
			for member.store.Stats().DiskWrites == 0 {
				p.Sleep(time.Microsecond)
			}
			p.Sleep(10 * time.Microsecond)
			crashed = p.Now()
			member.Crash()
			p.Sleep(10 * time.Microsecond)
			member.Restart()
		})
		f.drain(func(p *sim.Proc) { c.Put(p, "k", "v", 1024) })
		if crashed == 0 || member.store.Stats().DiskWrites != 1 {
			t.Fatalf("the member crashed at %v after %d writes; want during its one prepare write",
				crashed, member.store.Stats().DiskWrites)
		}
		if member.store.HasLog("k") || member.store.Locked("k") {
			t.Fatalf("after a crash during its prepare write the member holds record=%v lock=%v; want neither",
				member.store.HasLog("k"), member.store.Locked("k"))
		}
	})
}
