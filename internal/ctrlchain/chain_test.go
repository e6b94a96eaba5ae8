package ctrlchain

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * time.Millisecond }

func testChain(t *testing.T) (*sim.Simulator, *Chain) {
	t.Helper()
	s := sim.New(1)
	c := New(s)
	return s, c
}

// tailRead finds key in the tail's snapshot; ok is false while the chain
// refuses reads (mid-repair or all down) or the tail lacks the key.
func tailRead(c *Chain, key string) (Entry, bool) {
	entries, _ := c.Snapshot() // nil while refused
	for _, e := range entries {
		if e.Key == key {
			return e, true
		}
	}
	return Entry{}, false
}

func TestWriteReachesTailAndAcks(t *testing.T) {
	s, c := testChain(t)
	gen := c.Acquire()
	var ackedAt sim.Time
	start := s.Now()
	if !c.Write(gen, Entry{Key: "view/0", Ver: 1, Val: "a"}, func(ok bool) {
		if !ok {
			t.Error("write not acked")
		}
		ackedAt = s.Now()
	}) {
		t.Fatal("write rejected")
	}
	s.RunUntil(s.Now() + ms(10))
	want := start + Replicas*HopDelay // one hop per replica
	if ackedAt != want {
		t.Fatalf("tail ack at %v, want %v", ackedAt, want)
	}
	e, ok := tailRead(c, "view/0")
	if !ok || e.Val != "a" {
		t.Fatalf("tail read = %+v, %v", e, ok)
	}
}

func TestSnapshotSortedAndVersioned(t *testing.T) {
	s, c := testChain(t)
	gen := c.Acquire()
	c.Write(gen, Entry{Key: "b", Ver: 1, Val: 1}, nil)
	c.Write(gen, Entry{Key: "a", Ver: 1, Val: 2}, nil)
	c.Write(gen, Entry{Key: "a", Ver: 2, Val: 3}, nil)
	s.RunUntil(s.Now() + ms(10))
	snap, ok := c.Snapshot()
	if !ok || len(snap) != 2 {
		t.Fatalf("snapshot = %+v, %v", snap, ok)
	}
	if snap[0].Key != "a" || snap[1].Key != "b" {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	if snap[0].Ver != 2 || snap[0].Val != 3 {
		t.Fatalf("version guard lost the newer write: %+v", snap[0])
	}
}

func TestStaleGenerationFenced(t *testing.T) {
	s, c := testChain(t)
	old := c.Acquire()
	newer := c.Acquire()
	fenced := false
	if c.Write(old, Entry{Key: "k", Ver: 1}, func(ok bool) { fenced = !ok }) {
		t.Fatal("stale-generation write accepted")
	}
	if !fenced {
		t.Fatal("done callback not told about the fence")
	}
	if !c.Write(newer, Entry{Key: "k", Ver: 2, Val: "new"}, nil) {
		t.Fatal("current-generation write rejected")
	}
	s.RunUntil(s.Now() + ms(10))
	if got := c.Stats().Fenced; got != 1 {
		t.Fatalf("Fenced = %d, want 1", got)
	}
	if e, ok := tailRead(c, "k"); !ok || e.Val != "new" {
		t.Fatalf("read = %+v, %v", e, ok)
	}
}

// A killed replica is spliced out, the epoch advances, reads are
// refused during the repair window, and the survivors still hold
// everything the tail had acked.
func TestSpliceRepairPreservesState(t *testing.T) {
	s, c := testChain(t)
	gen := c.Acquire()
	c.Write(gen, Entry{Key: "view/0", Ver: 3, Val: "keep"}, nil)
	s.RunUntil(s.Now() + ms(5))
	epoch0 := c.epoch

	c.SetDown(1, true) // kill the middle store
	// Wait for detection (MissedProbes probes) to start the repair.
	deadline := s.Now() + ms(20)
	for s.Now() < deadline && !c.repairing {
		s.RunUntil(s.Now() + ProbeEvery)
	}
	if !c.repairing {
		t.Fatal("repair never started")
	}
	if _, ok := c.Snapshot(); ok {
		t.Fatal("healing chain served a read")
	}
	s.RunUntil(s.Now() + ms(20))
	if c.repairing {
		t.Fatal("repair never finished")
	}
	if c.epoch != epoch0+1 {
		t.Fatalf("epoch = %d, want %d", c.epoch, epoch0+1)
	}
	if c.Live() != 2 {
		t.Fatalf("live = %d, want 2", c.Live())
	}
	if e, ok := tailRead(c, "view/0"); !ok || e.Val != "keep" {
		t.Fatalf("post-repair read = %+v, %v", e, ok)
	}
}

// Writes accepted mid-repair are buffered and land once the chain
// heals; a revived store rejoins at the tail with the acked state.
func TestBufferedWritesFlushAndRejoin(t *testing.T) {
	s, c := testChain(t)
	gen := c.Acquire()
	c.SetDown(2, true)
	deadline := s.Now() + ms(20)
	for s.Now() < deadline && !c.repairing {
		s.RunUntil(s.Now() + ProbeEvery)
	}
	if !c.repairing {
		t.Fatal("repair never started")
	}
	acked := false
	if !c.Write(gen, Entry{Key: "mid", Ver: 1, Val: "x"}, func(ok bool) { acked = ok }) {
		t.Fatal("mid-repair write rejected")
	}
	s.RunUntil(s.Now() + ms(20))
	if !acked {
		t.Fatal("buffered write never acked")
	}
	if e, ok := tailRead(c, "mid"); !ok || e.Val != "x" {
		t.Fatalf("read = %+v, %v", e, ok)
	}

	// Revive: the store rejoins at the tail and serves the full state.
	epoch := c.epoch
	c.SetDown(2, false)
	s.RunUntil(s.Now() + ms(20))
	if c.Live() != 3 {
		t.Fatalf("live = %d, want 3 after rejoin", c.Live())
	}
	if c.epoch <= epoch {
		t.Fatalf("epoch = %d, want > %d after rejoin", c.epoch, epoch)
	}
	if e, ok := tailRead(c, "mid"); !ok || e.Val != "x" {
		t.Fatalf("tail read after rejoin = %+v, %v", e, ok)
	}
	if c.Stats().Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1", c.Stats().Rejoins)
	}
}

// In-flight writes that die at a failed store are restored downstream
// by the repair copy: a write applied at the head but dropped at the
// dead middle store must still be readable at the tail after repair.
func TestRepairCopyRestoresInFlightWrite(t *testing.T) {
	s, c := testChain(t)
	gen := c.Acquire()
	// Kill the tail so the write lands on head and middle only.
	c.SetDown(2, true)
	c.Write(gen, Entry{Key: "inflight", Ver: 1, Val: "v"}, nil)
	s.RunUntil(s.Now() + ms(30)) // detection + splice + copy
	if c.repairing {
		t.Fatal("repair never finished")
	}
	if e, ok := tailRead(c, "inflight"); !ok || e.Val != "v" {
		t.Fatalf("read after repair = %+v, %v (dropped=%d)", e, ok, c.Stats().Dropped)
	}
}
