package cluster

import (
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sim"
)

// TestDurableCrashRecovery: with the engine on, a node crash really
// destroys its memory tier and unfsynced WAL tail, and the restart path
// rebuilds it by snapshot load + log replay — observable as nonzero
// recovery counters — while acked writes stay readable.
func TestDurableCrashRecovery(t *testing.T) {
	opts := chaosOptions(3) // fast failure detection + bounded retries
	opts.Clients = 1
	opts.DurableStore = true
	opts.StoreMemoryBudget = 4 << 10
	opts.StoreSnapshotEvery = 50 * time.Millisecond
	d := NewNICE(opts)
	defer d.Close()
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}

	const keys = 16
	key := func(i int) string { return string(rune('a'+i%26)) + "key" }
	var opErr error
	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		for i := 0; i < keys; i++ {
			if _, err := d.Clients[0].Put(p, key(i), "v1", 512); err != nil {
				opErr = err
				return
			}
		}
		// Fail-stop node 1 and bring it back: Crash wipes its engine,
		// Restart runs the recovery protocol (storage replay + peer sync).
		d.Nodes[1].Crash()
		p.Sleep(60 * time.Millisecond) // past detection: the view moves on
		d.Nodes[1].Restart()
		p.Sleep(200 * time.Millisecond) // storage replay + peer sync complete
		for i := 0; i < keys; i++ {
			obj, err := d.Clients[0].Get(p, key(i))
			if err != nil {
				opErr = err
				return
			}
			if obj.Value != "v1" {
				t.Errorf("Get(%q) = %v after recovery, want v1", key(i), obj.Value)
			}
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if opErr != nil {
		t.Fatal(opErr)
	}

	st, ok := d.Nodes[1].Store().StorageStats()
	if !ok {
		t.Fatal("durable deployment has no storage stats")
	}
	if st.Recoveries == 0 {
		t.Error("crashed node recorded no storage recovery")
	}
	if st.ReplayedRecords == 0 && st.SnapshotBytes == 0 {
		t.Errorf("recovery rebuilt nothing: %+v", st)
	}
	sc := d.StorageCounters()
	if sc.WALAppends == 0 || sc.Fsyncs == 0 {
		t.Errorf("engines recorded no WAL activity: %+v", sc)
	}
}

// TestChaosDurableStore pins the durable chaos cell: crash-heavy
// schedules against the engine-backed system must finish with zero
// invariant violations (the durability audit included), show real
// snapshot+replay recoveries, and replay bit-identically — recovery
// counters included in the determinism check.
func TestChaosDurableStore(t *testing.T) {
	var sys chaosSystem
	for _, s := range chaosSystems() {
		if s.name == "NICEKV+durable" {
			sys = s
		}
	}
	if sys.name == "" {
		t.Fatal("durable system missing from chaosSystems")
	}

	var recoveries, replayed int64
	for i := 0; i < 3; i++ {
		sched := faultinject.Generate(DeriveSeed(42, i), chaosGenConfig(sys, 0))
		cell, err := runChaosCell(sys, sched)
		if err != nil {
			t.Fatal(err)
		}
		if cell.Ops == 0 {
			t.Errorf("cell %s recorded no operations", cell.Repro())
		}
		for _, v := range cell.Violations {
			t.Errorf("%s: %s", cell.Repro(), v)
		}
		recoveries += cell.Recoveries
		replayed += cell.Replayed

		again, err := runChaosCell(sys, sched)
		if err != nil {
			t.Fatal(err)
		}
		if again.Hash != cell.Hash || again.Recoveries != cell.Recoveries || again.Replayed != cell.Replayed {
			t.Errorf("%s: replay diverged: hash %x/%x recoveries %d/%d replayed %d/%d",
				cell.Repro(), cell.Hash, again.Hash,
				cell.Recoveries, again.Recoveries, cell.Replayed, again.Replayed)
		}
	}
	if recoveries == 0 {
		t.Error("crash-weighted schedules produced no storage recoveries")
	}
	if replayed == 0 {
		t.Error("recoveries replayed no WAL records")
	}
}

// TestStaleAbortDoesNotPoisonRetry replays a crash-heavy schedule that
// once produced a durability violation: an abort TsMsg from a put's
// aborted first attempt was buffered as an orphan and consumed by the
// retry of the same operation right after its Ack1, so a secondary the
// primary counted toward the commit quorum silently dropped its prepare.
// The replica that missed the commit later got promoted without the
// put's dedup record and re-ran the old put under a fresh timestamp,
// rolling back a newer acked write. Aborts are attempt-scoped now; this
// cell must stay violation-free.
func TestStaleAbortDoesNotPoisonRetry(t *testing.T) {
	cell, err := ReplayChaos("NICEKV+durable :: seed=-967380673184983171 | crash n1 @89.413179ms +83.558789ms | ctrl d=13.095031ms r=0.5459132322366682 @125.782707ms +158.695309ms | crash n2 @140.57178ms +102.599557ms | slowdisk n0 x=45.77326914165415 @226.425966ms +82.541851ms | slowdisk n2 x=30.44128139207492 @320.874118ms +64.048815ms | crash n1 @358.75837ms +111.92433ms | crash n3 @402.37347ms +80.065853ms | crash n0 @493.3008ms +81.144895ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cell.Violations {
		t.Errorf("%s: %s", cell.Repro(), v)
	}
	if cell.Ops == 0 || cell.Recoveries == 0 {
		t.Errorf("cell did not exercise crash recovery: ops=%d recoveries=%d", cell.Ops, cell.Recoveries)
	}
}

// TestStorageSweepSmoke runs a reduced storagesweep grid end to end and
// checks the pressure curve has the right shape: full-budget arms never
// evict, over-committed arms do and their memory hit ratio drops.
func TestStorageSweepSmoke(t *testing.T) {
	rep, err := StorageSweep(Params{Ops: 60, Seed: 42}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cacheSweepSystems) * len(StorageRatios); len(rep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(rep.Cells), want)
	}
	byRatio := make(map[float64]StorageCell)
	for _, c := range rep.Cells {
		if c.Tput <= 0 {
			t.Errorf("%s ratio %.1f: no throughput", c.System, c.Ratio)
		}
		if c.WALAppends == 0 || c.Fsyncs == 0 {
			t.Errorf("%s ratio %.1f: no WAL activity", c.System, c.Ratio)
		}
		if c.Snapshots == 0 {
			t.Errorf("%s ratio %.1f: no snapshots", c.System, c.Ratio)
		}
		if c.System == "NICEKV" {
			byRatio[c.Ratio] = c
		}
	}
	if c := byRatio[0.5]; c.Evictions != 0 || c.MemHitRatio != 1 {
		t.Errorf("under-committed arm evicted: %+v", c)
	}
	if c := byRatio[8]; c.Evictions == 0 || c.MemHitRatio >= byRatio[0.5].MemHitRatio {
		t.Errorf("over-committed arm shows no pressure: %+v", c)
	}

	if len(rep.Heavy) != 1 {
		t.Fatalf("heavytraffic arm missing: %+v", rep.Heavy)
	}
	h := rep.Heavy[0]
	if h.Clients != 1000 || h.Issued == 0 {
		t.Errorf("heavy arm did not run: %+v", h)
	}
	if h.Evictions == 0 || h.MemHitFrac <= 0 || h.MemHitFrac >= 1 {
		t.Errorf("heavy arm shows no storage-tier churn: %+v", h)
	}
}
