package storage

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// fakeDisk charges a fixed latency plus a per-byte cost for every
// transfer, so tests can schedule crashes to land mid-I/O.
type fakeDisk struct {
	lat        sim.Time
	perByte    sim.Time
	reads      int
	writes     int
	readBytes  int
	writeBytes int
}

func (d *fakeDisk) ReadDisk(p *sim.Proc, bytes int) {
	d.reads++
	d.readBytes += bytes
	p.Sleep(d.lat + d.perByte*sim.Time(bytes))
}

func (d *fakeDisk) WriteDisk(p *sim.Proc, bytes int) {
	d.writes++
	d.writeBytes += bytes
	p.Sleep(d.lat + d.perByte*sim.Time(bytes))
}

// run drives fn as the single test proc against a fresh engine.
func run(t *testing.T, cfg Config, disk *fakeDisk, fn func(p *sim.Proc, e *Engine)) {
	t.Helper()
	s := sim.New(1)
	e := NewEngine(s, cfg, disk)
	s.Spawn("test", func(p *sim.Proc) { fn(p, e); s.Stop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
}

func noSnap() Config {
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 0
	return cfg
}

// TestTornFinalWALRecord: a crash landing while the final fsync is in
// flight tears it — the record never reached disk, recovery comes back
// without it, and only the previously fsynced prefix replays.
func TestTornFinalWALRecord(t *testing.T) {
	disk := &fakeDisk{lat: time.Millisecond}
	run(t, noSnap(), disk, func(p *sim.Proc, e *Engine) {
		e.Commit("a", "v1", 100)
		e.Sync(p)
		if !e.Durable() {
			t.Fatal("fsynced record not durable")
		}
		e.Commit("b", "v2", 100)
		p.Sim().After(500*time.Microsecond, e.Crash)
		e.Sync(p) // sleeps 1ms; the crash tears it at 0.5ms
		st := e.Stats()
		if st.TornRecords != 1 {
			t.Errorf("TornRecords = %d, want 1", st.TornRecords)
		}
		if st.LostRecords != 1 {
			t.Errorf("LostRecords = %d, want 1", st.LostRecords)
		}

		info := e.Recover(p)
		if info.Interrupted {
			t.Fatal("recovery reported interrupted without a second crash")
		}
		if info.ReplayedRecords != 1 {
			t.Errorf("ReplayedRecords = %d, want 1 (the fsynced prefix)", info.ReplayedRecords)
		}
		if v, ok := e.Peek("a"); !ok || v != "v1" {
			t.Errorf(`Peek("a") = %v, %v after recovery`, v, ok)
		}
		if _, ok := e.Peek("b"); ok {
			t.Error("torn record resurrected by recovery")
		}
		if !e.Durable() {
			t.Error("recovered state not durable")
		}
	})
}

// TestCrashDuringSnapshot: a crash mid-checkpoint abandons the write
// before the fold, so the previous snapshot is untouched; that snapshot
// plus the WAL the first checkpoint compacted in place still recover
// every fsynced record, and nothing unfsynced comes back.
func TestCrashDuringSnapshot(t *testing.T) {
	disk := &fakeDisk{lat: time.Millisecond}
	run(t, noSnap(), disk, func(p *sim.Proc, e *Engine) {
		e.Commit("a", "v1", 100)
		e.Commit("b", "v2", 100)
		var before []walRec[any]
		p.Sim().After(500*time.Microsecond, func() {
			e.Commit("a", "v1b", 100) // lands mid-write: not covered
			before = e.wal
		})
		e.writeSnapshot(p) // snapshot 1 lands, WAL truncated to a's second record
		if st := e.Stats(); st.Snapshots != 1 || st.WALRecords != 1 || st.TruncatedRecords != 2 {
			t.Fatalf("after snapshot 1: %+v", st)
		}
		if &e.wal[0] != &before[0] || before[1] != (walRec[any]{}) || before[2] != (walRec[any]{}) {
			t.Fatalf("truncation did not compact in place: wal %v, old slots %v", e.wal, before)
		}
		first := maps.Clone(e.snap.entries)
		if want := map[string]snapRow[any]{"a": {"v1", 100}, "b": {"v2", 100}}; !maps.Equal(first, want) {
			t.Fatalf("snapshot 1 = %v, want %v", first, want)
		}
		e.Commit("c", "v3", 100)
		e.Sync(p) // a's second record and c durable via fsync
		e.Commit("d", "v4", 100)

		p.Sim().After(500*time.Microsecond, e.Crash)
		e.writeSnapshot(p) // torn: would have covered a, c and d
		st := e.Stats()
		if st.SnapshotsAborted != 1 {
			t.Errorf("SnapshotsAborted = %d, want 1", st.SnapshotsAborted)
		}
		if st.Snapshots != 1 {
			t.Errorf("Snapshots = %d, want 1 (the aborted one must not count)", st.Snapshots)
		}
		if !maps.Equal(e.snap.entries, first) || e.snap.lsn != 2 || e.walBase != 2 {
			t.Errorf("torn snapshot moved the first: %v at lsn %d, walBase %d", e.snap.entries, e.snap.lsn, e.walBase)
		}
		if want := []walRec[any]{{"a", "v1b", 100}, {"c", "v3", 100}}; !slices.Equal(e.wal, want) {
			t.Fatalf("durable WAL after the crash = %v, want %v", e.wal, want)
		}

		info := e.Recover(p)
		if info.SnapshotBytes != 2*(100+32) {
			t.Errorf("SnapshotBytes = %d, want snapshot 1's %d", info.SnapshotBytes, 2*(100+32))
		}
		if info.ReplayedRecords != 2 {
			t.Errorf("ReplayedRecords = %d, want 2 (wal[walBase:])", info.ReplayedRecords)
		}
		for k, want := range map[string]string{"a": "v1b", "b": "v2", "c": "v3"} {
			if v, ok := e.Peek(k); !ok || v != want {
				t.Errorf("Peek(%q) = %v, %v, want %q", k, v, ok, want)
			}
		}
		if _, ok := e.Peek("d"); ok {
			t.Error("unfsynced commit resurrected by recovery")
		}
	})
}

// TestSyncDoesNotCoverConcurrentAppends: records committed while an
// fsync's disk write is in flight stay volatile until the next Sync.
func TestSyncDoesNotCoverConcurrentAppends(t *testing.T) {
	disk := &fakeDisk{lat: time.Millisecond}
	run(t, noSnap(), disk, func(p *sim.Proc, e *Engine) {
		e.Commit("a", "v1", 100)
		p.Sim().After(500*time.Microsecond, func() { e.Commit("b", "v2", 100) })
		e.Sync(p)
		if e.Durable() {
			t.Error("record appended mid-fsync reported durable")
		}
		e.Sync(p)
		if !e.Durable() {
			t.Error("follow-up fsync did not cover the tail")
		}
	})
}

// TestEvictionAndPromotion: a memory budget evicts the LRU victim for
// free, the next get of it pays disk time and promotes it back.
func TestEvictionAndPromotion(t *testing.T) {
	disk := &fakeDisk{lat: time.Millisecond}
	cfg := noSnap()
	cfg.Shards = 1
	cfg.MemoryBudget = 250 // two 100-byte values fit, three do not
	run(t, cfg, disk, func(p *sim.Proc, e *Engine) {
		e.Commit("a", "v1", 100)
		e.Commit("b", "v2", 100)
		e.Commit("c", "v3", 100) // evicts a (LRU)
		if st := e.Stats(); st.Evictions != 1 || st.Resident != 2 || st.Entries != 3 {
			t.Fatalf("after overflow: %+v", st)
		}

		start := p.Now()
		if v, ok := e.Get(p, "b"); !ok || v != "v2" {
			t.Fatalf(`Get("b") = %v, %v`, v, ok)
		}
		if p.Now() != start {
			t.Error("memory-tier hit charged disk time")
		}
		if v, ok := e.Get(p, "a"); !ok || v != "v1" {
			t.Fatalf(`Get("a") = %v, %v`, v, ok)
		}
		if p.Now() == start {
			t.Error("evicted-key get paid no disk time")
		}
		st := e.Stats()
		if st.MemHits != 1 || st.DiskReads != 1 {
			t.Errorf("hits=%d diskreads=%d, want 1/1", st.MemHits, st.DiskReads)
		}
		if st.Evictions != 2 { // promoting a pushed out the new victim
			t.Errorf("Evictions = %d, want 2", st.Evictions)
		}
		if _, ok := e.Get(p, "nope"); ok {
			t.Error("absent key found")
		}
	})
}

// oracle is the flat-map model the differential test compares against:
// committed is the live state, durable the state a crash rolls back to.
type oracle struct {
	committed map[string]string
	durable   map[string]string
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// differential drives one randomized run and returns the final stats.
func differential(t *testing.T, seed int64) Stats {
	t.Helper()
	disk := &fakeDisk{lat: 10 * time.Microsecond}
	cfg := noSnap()
	cfg.Shards = 4
	cfg.MemoryBudget = 2000 // ~20 values resident over a 64-key space
	var final Stats
	run(t, cfg, disk, func(p *sim.Proc, e *Engine) {
		rng := rand.New(rand.NewSource(seed))
		o := oracle{committed: map[string]string{}, durable: map[string]string{}}
		key := func() string { return fmt.Sprintf("k%02d", rng.Intn(64)) }
		for i := 0; i < 2000; i++ {
			switch op := rng.Float64(); {
			case op < 0.45: // commit
				k, v := key(), fmt.Sprintf("v%d", i)
				e.Commit(k, v, 100)
				o.committed[k] = v
			case op < 0.85: // get
				k := k2(key())
				v, ok := e.Get(p, k)
				want, wantOK := o.committed[k]
				if ok != wantOK || (ok && v != want) {
					t.Fatalf("op %d: Get(%q) = %v, %v, oracle %v, %v", i, k, v, ok, want, wantOK)
				}
			case op < 0.93: // fsync: everything committed becomes durable
				e.Sync(p)
				o.durable = copyMap(o.committed)
			case op < 0.97: // snapshot: same durability effect, plus truncate
				e.writeSnapshot(p)
				o.durable = copyMap(o.committed)
				// Nothing committed during the write, so the folded snapshot
				// must be the whole live state, and its charge the walk's sum.
				if !maps.Equal(e.snap.entries, liveRows(e)) {
					t.Fatalf("op %d: folded snapshot %v != live state %v", i, e.snap.entries, liveRows(e))
				}
				if got, want := e.Stats().SnapshotBytes, walkBytes(e); got != want {
					t.Fatalf("op %d: SnapshotBytes = %d, walk = %d", i, got, want)
				}
			default: // crash + recover: roll back to durable
				e.Crash()
				e.Recover(p)
				o.committed = copyMap(o.durable)
				if got, want := len(e.Keys()), len(o.committed); got != want {
					t.Fatalf("op %d: %d keys after recovery, oracle %d", i, got, want)
				}
				for k, want := range o.committed {
					if v, ok := e.Peek(k); !ok || v != want {
						t.Fatalf("op %d: Peek(%q) = %v, %v, oracle %q", i, k, v, ok, want)
					}
				}
			}
			if got, want := e.stateBytes, walkBytes(e); got != want {
				t.Fatalf("op %d: stateBytes = %d, walk = %d", i, got, want)
			}
		}
		final = e.Stats()
	})
	return final
}

// liveRows enumerates the live state the way a full snapshot would.
func liveRows(e *Engine) map[string]snapRow[any] {
	out := make(map[string]snapRow[any], e.Len())
	for i := range e.shards {
		for k, en := range e.shards[i].entries {
			out[k] = snapRow[any]{val: en.val, size: en.size}
		}
	}
	return out
}

// walkBytes sums what a snapshot of the live state charges.
func walkBytes(e *Engine) int64 {
	var n int64
	for i := range e.shards {
		for _, en := range e.shards[i].entries {
			n += int64(en.size) + SnapshotEntryBytes
		}
	}
	return n
}

// k2 exists so the get path sometimes probes keys never committed.
func k2(k string) string { return k }

// TestDifferentialVsFlatMapOracle randomizes commits, gets, fsyncs,
// snapshots and crash/recover cycles against a flat-map model of the
// durability contract, then replays the same seed and demands identical
// counters — the engine must be both correct and deterministic.
func TestDifferentialVsFlatMapOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a := differential(t, seed)
		if a.Evictions == 0 || a.DiskReads == 0 || a.Recoveries == 0 || a.Snapshots == 0 {
			t.Errorf("seed %d exercised too little: %+v", seed, a)
		}
		b := differential(t, seed)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d nondeterministic:\n  first  %+v\n  second %+v", seed, a, b)
		}
	}
}

// TestSnapshotLoopPausesDuringOutage: the periodic checkpointer must
// skip cycles while the engine is down or recovering, and resume after.
func TestSnapshotLoopPausesDuringOutage(t *testing.T) {
	disk := &fakeDisk{lat: time.Millisecond}
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 5 * time.Millisecond
	s := sim.New(1)
	e := NewEngine(s, cfg, disk)
	e.Start()
	s.Spawn("test", func(p *sim.Proc) {
		e.Commit("a", "v1", 100)
		e.Sync(p)
		p.Sleep(12 * time.Millisecond) // two snapshot periods pass
		taken := e.Stats().Snapshots
		if taken == 0 {
			t.Error("periodic snapshot never fired")
		}
		e.Crash()
		p.Sleep(20 * time.Millisecond) // down: the loop must idle
		if got := e.Stats().Snapshots; got != taken {
			t.Errorf("snapshots while down: %d -> %d", taken, got)
		}
		e.Recover(p)
		p.Sleep(12 * time.Millisecond)
		if got := e.Stats().Snapshots; got <= taken {
			t.Errorf("snapshot loop did not resume after recovery: still %d", got)
		}
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
}
