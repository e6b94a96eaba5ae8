package storage

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// groupCfg is noSnap() with group commit armed.
func groupCfg(delay sim.Time) Config {
	cfg := noSnap()
	cfg.GroupCommit = true
	cfg.MaxSyncDelay = delay
	return cfg
}

// runProcs drives fn procs against one engine and waits for all of them.
func runProcs(t *testing.T, cfg Config, disk *fakeDisk, fns ...func(p *sim.Proc, e *Engine)) *Engine {
	t.Helper()
	s := sim.New(1)
	e := NewEngine(s, cfg, disk)
	g := sim.NewGroup(s)
	for _, fn := range fns {
		fn := fn
		g.Add(1)
		s.Spawn("gc", func(p *sim.Proc) { defer g.Done(); fn(p, e) })
	}
	s.Spawn("join", func(p *sim.Proc) { g.Wait(p); s.Stop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	return e
}

// TestGroupCommitCoalesces: a follower whose record lands inside the
// leader's gather window piggybacks — one disk write makes both records
// durable, and only the leader's Sync charges an fsync.
func TestGroupCommitCoalesces(t *testing.T) {
	disk := &fakeDisk{lat: time.Millisecond}
	e := runProcs(t, groupCfg(500*time.Microsecond), disk,
		func(p *sim.Proc, e *Engine) { // leader
			e.Commit("a", "v1", 100)
			e.Sync(p)
			if !durable(e) {
				t.Error("leader returned before its record was durable")
			}
		},
		func(p *sim.Proc, e *Engine) { // follower joins during the gather
			p.Sleep(200 * time.Microsecond)
			e.Commit("b", "v2", 100)
			e.Sync(p)
			if !durable(e) {
				t.Error("follower returned before its record was durable")
			}
		},
	)
	st := e.Stats()
	if st.Fsyncs != 1 {
		t.Errorf("Fsyncs = %d, want 1 (one batch)", st.Fsyncs)
	}
	if st.FsyncedRecords != 2 {
		t.Errorf("FsyncedRecords = %d, want 2", st.FsyncedRecords)
	}
	if st.CoalescedSyncs != 1 {
		t.Errorf("CoalescedSyncs = %d, want 1 (the follower)", st.CoalescedSyncs)
	}
	if disk.writes != 1 {
		t.Errorf("disk writes = %d, want 1", disk.writes)
	}
	if want := 2 * WALRecordBytes; disk.writeBytes != want {
		t.Errorf("batch bytes = %d, want %d", disk.writeBytes, want)
	}
	if st.SyncedBatchBytes != int64(2*WALRecordBytes) {
		t.Errorf("SyncedBatchBytes = %d, want %d", st.SyncedBatchBytes, 2*WALRecordBytes)
	}
}

// TestGroupCommitFollowerWaitsForCoverage: a caller whose record is
// appended after the in-flight batch was sized must NOT be satisfied by
// that batch — it stays parked through the first fsync and returns only
// once a later batch covers its record.
func TestGroupCommitFollowerWaitsForCoverage(t *testing.T) {
	disk := &fakeDisk{lat: time.Millisecond}
	var lateDone sim.Time
	e := runProcs(t, groupCfg(0), disk,
		func(p *sim.Proc, e *Engine) { // leader: write sized to just "a"
			e.Commit("a", "v1", 100)
			e.Sync(p) // in flight 0..1ms
		},
		func(p *sim.Proc, e *Engine) { // late: record not in the first batch
			p.Sleep(200 * time.Microsecond)
			e.Commit("b", "v2", 100)
			e.Sync(p)
			lateDone = p.Now()
			if !durable(e) {
				t.Error("late caller returned before its record was durable")
			}
		},
	)
	// The late caller must ride out the first fsync (ends at 1ms) and then
	// a second one covering "b" (ends at 2ms).
	if lateDone < 2*time.Millisecond {
		t.Errorf("late caller returned at %v, before a covering fsync could land", lateDone)
	}
	st := e.Stats()
	if st.Fsyncs != 2 {
		t.Errorf("Fsyncs = %d, want 2 (uncovered record needs its own batch)", st.Fsyncs)
	}
	if st.CoalescedSyncs != 0 {
		t.Errorf("CoalescedSyncs = %d, want 0 (the late caller led its own batch)", st.CoalescedSyncs)
	}
}

// TestGroupCommitCrashTearsWholeBatch: a crash landing while a
// coalesced fsync is in flight tears every record in the batch — leader
// and follower both come back non-durable and recovery resurrects
// nothing.
func TestGroupCommitCrashTearsWholeBatch(t *testing.T) {
	disk := &fakeDisk{lat: time.Millisecond}
	e := runProcs(t, groupCfg(500*time.Microsecond), disk,
		func(p *sim.Proc, e *Engine) { // leader: gathers until 0.5ms, write ends 1.5ms
			e.Commit("a", "v1", 100)
			p.Sim().After(time.Millisecond, e.Crash)
			e.Sync(p)
			if got := e.Stats().FsyncedRecords; got != 0 {
				t.Errorf("FsyncedRecords = %d after torn batch, want 0", got)
			}
		},
		func(p *sim.Proc, e *Engine) { // follower riding the torn batch
			p.Sleep(200 * time.Microsecond)
			e.Commit("b", "v2", 100)
			e.Sync(p)
			// The crash broadcast frees the follower at the crash instant —
			// it must not sleep out the torn disk write.
			if now := p.Now(); now != time.Millisecond {
				t.Errorf("follower returned at %v, want at the crash instant (1ms)", now)
			}
		},
		func(p *sim.Proc, e *Engine) { // recover after the dust settles
			p.Sleep(2 * time.Millisecond)
			e.Recover(p)
			if _, ok := e.Peek("a"); ok {
				t.Error("torn leader record resurrected by recovery")
			}
			if _, ok := e.Peek("b"); ok {
				t.Error("torn follower record resurrected by recovery")
			}
		},
	)
	st := e.Stats()
	if st.Fsyncs != 0 {
		t.Errorf("Fsyncs = %d, want 0 (the only batch was torn)", st.Fsyncs)
	}
	if st.TornRecords != 1 {
		t.Errorf("TornRecords = %d, want 1", st.TornRecords)
	}
	if st.LostRecords != 2 {
		t.Errorf("LostRecords = %d, want 2 (the whole batch)", st.LostRecords)
	}
}

// TestGroupCommitLoneWriterDelay: with nobody to coalesce with, the
// leader lingers exactly MaxSyncDelay and then fsyncs alone — the knob
// bounds the penalty, it never waits for peers that don't exist.
func TestGroupCommitLoneWriterDelay(t *testing.T) {
	const delay = 500 * time.Microsecond
	disk := &fakeDisk{lat: time.Millisecond}
	var done sim.Time
	e := runProcs(t, groupCfg(delay), disk,
		func(p *sim.Proc, e *Engine) {
			e.Commit("a", "v1", 100)
			e.Sync(p)
			done = p.Now()
			if !durable(e) {
				t.Error("lone writer not durable after Sync")
			}
		},
	)
	if want := delay + time.Millisecond; done != want {
		t.Errorf("lone writer returned at %v, want exactly gather(%v) + write(1ms) = %v", done, delay, want)
	}
	st := e.Stats()
	if st.Fsyncs != 1 || st.FsyncedRecords != 1 {
		t.Errorf("Fsyncs/FsyncedRecords = %d/%d, want 1/1", st.Fsyncs, st.FsyncedRecords)
	}
	if st.CoalescedSyncs != 0 {
		t.Errorf("CoalescedSyncs = %d, want 0", st.CoalescedSyncs)
	}
}

// TestGroupCommitCrashDuringGather: a crash inside the gather window
// (before any disk write starts) loses the batch as plain unfsynced
// records — nothing is torn because nothing was in flight.
func TestGroupCommitCrashDuringGather(t *testing.T) {
	disk := &fakeDisk{lat: time.Millisecond}
	e := runProcs(t, groupCfg(time.Millisecond), disk,
		func(p *sim.Proc, e *Engine) {
			e.Commit("a", "v1", 100)
			p.Sim().After(500*time.Microsecond, e.Crash)
			e.Sync(p) // crash lands mid-gather, before WriteDisk
			if got := e.Stats().Fsyncs; got != 0 {
				t.Errorf("Fsyncs = %d after crashed gather, want 0", got)
			}
		},
	)
	st := e.Stats()
	if disk.writes != 0 {
		t.Errorf("disk writes = %d, want 0 (crash preempted the batch)", disk.writes)
	}
	if st.TornRecords != 0 {
		t.Errorf("TornRecords = %d, want 0 (no write was in flight)", st.TornRecords)
	}
	if st.LostRecords != 1 {
		t.Errorf("LostRecords = %d, want 1", st.LostRecords)
	}
}
