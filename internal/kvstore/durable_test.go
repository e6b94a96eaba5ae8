package kvstore

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// runDurable drives fn against an engine-backed store.
func runDurable(t *testing.T, disk DiskConfig, cfg storage.Config, fn func(p *sim.Proc, st *Store)) {
	t.Helper()
	s := sim.New(1)
	st := NewDurable(s, disk, cfg)
	s.Spawn("test", func(p *sim.Proc) { fn(p, st); s.Stop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
}

// TestDurableApplyVersioning: the engine-backed Apply keeps the legacy
// version contract — stale versions are rejected, BytesOnDisk tracks the
// live version — on top of WAL-ordered commits.
func TestDurableApplyVersioning(t *testing.T) {
	cfg := storage.DefaultConfig()
	cfg.SnapshotEvery = 0
	runDurable(t, DiskConfig{}, cfg, func(p *sim.Proc, st *Store) {
		if !st.Durable() || st.eng == nil {
			t.Fatal("NewDurable store not durable")
		}
		if !st.Apply(&Object{Key: "k", Value: "new", Size: 3, Version: ts(5, 1)}) {
			t.Error("fresh apply rejected")
		}
		if st.Apply(&Object{Key: "k", Value: "stale", Size: 5, Version: ts(3, 9)}) {
			t.Error("stale version overwrote newer")
		}
		if got, _ := st.Peek("k"); got.Value != "new" {
			t.Errorf("value = %v", got.Value)
		}
		if !st.Apply(&Object{Key: "k", Value: "newest", Size: 6, Version: ts(7, 1)}) {
			t.Error("newer version rejected")
		}
		if st.Stats().BytesOnDisk != 6 {
			t.Errorf("BytesOnDisk = %d, want 6", st.Stats().BytesOnDisk)
		}
		if len(st.Keys()) != 1 {
			t.Errorf("Keys = %v", st.Keys())
		}
		est := st.eng.Stats()
		if est.Commits != 2 || est.WALAppends != 2 {
			t.Errorf("engine saw %d commits, %d WAL appends, want 2/2", est.Commits, est.WALAppends)
		}
	})
}

// TestDurableCrashLosesUnsyncedTail: an applied-but-unsynced write
// vanishes at a crash, a synced one survives recovery, and Sync charges
// its forced write against the store's disk device.
func TestDurableCrashLosesUnsyncedTail(t *testing.T) {
	disk := DiskConfig{WriteLatency: 100 * time.Microsecond, WriteBps: 100e6,
		ReadLatency: 100 * time.Microsecond, ReadBps: 100e6}
	cfg := storage.DefaultConfig()
	cfg.SnapshotEvery = 0
	runDurable(t, disk, cfg, func(p *sim.Proc, st *Store) {
		st.Apply(&Object{Key: "kept", Value: "v", Size: 100, Version: ts(1, 1)})
		before := p.Now()
		st.Sync(p)
		if p.Now() == before {
			t.Error("Sync charged no disk time")
		}
		st.Apply(&Object{Key: "lost", Value: "v", Size: 100, Version: ts(1, 2)})

		st.CrashStorage()
		info, ok := st.RecoverStorage(p)
		if !ok || info.ReplayedRecords != 1 {
			t.Fatalf("RecoverStorage = %+v, %v", info, ok)
		}
		if _, ok := st.Peek("kept"); !ok {
			t.Error("synced write lost")
		}
		if _, ok := st.Peek("lost"); ok {
			t.Error("unsynced write resurrected")
		}
		est, ok := st.StorageStats()
		if !ok || est.Recoveries != 1 || est.LostRecords != 1 {
			t.Errorf("stats = %+v, %v", est, ok)
		}
	})
}

// TestDurableSlowDiskRetunesEngineIO: the engine reads the store's live
// disk model through SetDisk, so a slowdisk fault slows fsyncs too.
func TestDurableSlowDiskRetunesEngineIO(t *testing.T) {
	disk := DiskConfig{WriteLatency: 100 * time.Microsecond, WriteBps: 100e6}
	cfg := storage.DefaultConfig()
	cfg.SnapshotEvery = 0
	runDurable(t, disk, cfg, func(p *sim.Proc, st *Store) {
		st.Apply(&Object{Key: "a", Value: "v", Size: 100, Version: ts(1, 1)})
		t0 := p.Now()
		st.Sync(p)
		fast := p.Now() - t0

		slow := st.Disk()
		slow.WriteLatency *= 10
		st.SetDisk(slow)
		st.Apply(&Object{Key: "b", Value: "v", Size: 100, Version: ts(1, 2)})
		t1 := p.Now()
		st.Sync(p)
		if got := p.Now() - t1; got <= fast {
			t.Errorf("slowdisk fsync took %v, no slower than %v", got, fast)
		}
	})
}

// TestLegacyStoreHasNoEngineHooks: in legacy mode every durability hook
// is a free no-op, so default-path timing is untouched.
func TestLegacyStoreHasNoEngineHooks(t *testing.T) {
	run(t, SSD(), func(p *sim.Proc, st *Store) {
		if st.Durable() || st.eng != nil {
			t.Fatal("legacy store claims an engine")
		}
		before := p.Now()
		st.Sync(p)
		st.CrashStorage()
		if _, ok := st.RecoverStorage(p); ok {
			t.Error("legacy store recovered something")
		}
		if _, ok := st.StorageStats(); ok {
			t.Error("legacy store has storage stats")
		}
		if p.Now() != before {
			t.Error("legacy hooks charged time")
		}
	})
}

// TestStaleCommitDuringRecoveryLoses: a commit landing while
// RecoverStorage sleeps in its disk reads is version-checked against the
// recovered state, so an older version than the one recovered is refused
// rather than installed. With a snapshot to load, the memory tier must
// also stay consistent: every resident entry is a known key.
func TestStaleCommitDuringRecoveryLoses(t *testing.T) {
	disk := DiskConfig{WriteLatency: 100 * time.Microsecond, WriteBps: 100e6,
		ReadLatency: time.Millisecond, ReadBps: 100e6}
	for _, snapshot := range []bool{false, true} {
		cfg := storage.DefaultConfig()
		cfg.SnapshotEvery = 0
		if snapshot {
			cfg.SnapshotEvery = 2 * time.Millisecond
		}
		runDurable(t, disk, cfg, func(p *sim.Proc, st *Store) {
			st.Apply(&Object{Key: "k", Value: "v5", Size: 100, Version: ts(5, 1)})
			st.Sync(p)
			if snapshot {
				p.Sleep(3 * time.Millisecond)
				if n := st.eng.Stats().Snapshots; n != 1 {
					t.Fatalf("%d snapshots before the crash, want 1", n)
				}
			}
			st.CrashStorage()
			applied := true
			p.Sim().After(500*time.Microsecond, func() {
				applied = st.Apply(&Object{Key: "k", Value: "v3", Size: 100, Version: ts(3, 1)})
			})
			if info, _ := st.RecoverStorage(p); info.Interrupted {
				t.Fatal("recovery interrupted")
			}
			if applied {
				t.Errorf("snapshot=%v: stale v3 applied during recovery", snapshot)
			}
			if got, ok := st.Peek("k"); !ok || got.Value != "v5" {
				t.Errorf("snapshot=%v: Peek after recovery = %v, %v, want v5", snapshot, got, ok)
			}
			if est := st.eng.Stats(); est.Resident > est.Entries {
				t.Errorf("snapshot=%v: %d resident entries, %d known keys", snapshot, est.Resident, est.Entries)
			}
		})
	}
}

// TestCrashKeepsTheDurableVersionsValue: a version made durable, by an
// fsync or by a snapshot, comes back from a crash with its own value even
// though a later, lost version of the same key was committed over it —
// the WAL and the snapshot hold each version by value, not one object per
// key that the later commit rewrote.
func TestCrashKeepsTheDurableVersionsValue(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		cfg := storage.DefaultConfig()
		cfg.SnapshotEvery = 0
		if snapshot {
			cfg.SnapshotEvery = 2 * time.Millisecond
		}
		runDurable(t, DiskConfig{}, cfg, func(p *sim.Proc, st *Store) {
			obj := Object{Key: "k", Value: "v1", Size: 10, Version: ts(1, 1)}
			v1 := obj
			st.Apply(&obj)
			st.Sync(p)
			if snapshot {
				p.Sleep(3 * time.Millisecond)
			}
			obj.Value, obj.Size, obj.Version = "v2", 20, ts(2, 1)
			st.Apply(&obj)
			st.CrashStorage()
			info, _ := st.RecoverStorage(p)
			if got, ok := st.Peek("k"); !ok || got != v1 {
				t.Errorf("snapshot=%v: Peek after recovery = %+v, %v, want %+v", snapshot, got, ok, v1)
			}
			if snapshot != (info.SnapshotBytes > 0) || snapshot == (info.ReplayedRecords > 0) {
				t.Errorf("snapshot=%v: recovered from %+v", snapshot, info)
			}
		})
	}
}
