package kvstore

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func ts(pseq, cseq uint64) Timestamp {
	return Timestamp{
		Primary: netsim.MustParseIP("10.0.0.1"), PrimarySeq: pseq,
		Client: netsim.MustParseIP("192.168.0.1"), ClientSeq: cseq,
	}
}

func TestTimestampOrdering(t *testing.T) {
	if !ts(1, 5).Less(ts(2, 1)) {
		t.Fatal("primary seq must dominate")
	}
	if !ts(1, 1).Less(ts(1, 2)) {
		t.Fatal("client seq must break ties")
	}
	if ts(2, 2).Less(ts(2, 2)) {
		t.Fatal("timestamp not irreflexive")
	}
	a := ts(3, 1)
	b := a
	b.Primary = netsim.MustParseIP("10.0.0.2")
	if a.Less(b) == b.Less(a) {
		t.Fatal("primary IP tie-break not antisymmetric")
	}
	if !(Timestamp{}).IsZero() || ts(1, 0).IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestTimestampTotalOrderProperty(t *testing.T) {
	f := func(p1, c1, p2, c2 uint64) bool {
		a, b := ts(p1, c1), ts(p2, c2)
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a) // exactly one direction
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func run(t *testing.T, disk DiskConfig, fn func(p *sim.Proc, st *Store)) {
	t.Helper()
	s := sim.New(1)
	st := New(s, disk)
	s.Spawn("test", func(p *sim.Proc) { fn(p, st) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
}

func TestPutGetRoundTrip(t *testing.T) {
	run(t, NullDisk(), func(p *sim.Proc, st *Store) {
		obj := &Object{Key: "k", Value: "v", Size: 3, Version: ts(1, 1)}
		if !st.Put(p, obj) {
			t.Error("fresh put rejected")
		}
		got, ok := st.Get(p, "k")
		if !ok || got.Value != "v" {
			t.Errorf("Get = %+v, %v", got, ok)
		}
		if _, ok := st.Get(p, "missing"); ok {
			t.Error("missing key returned")
		}
		if st.Stats().GetMisses != 1 || st.Stats().Puts != 1 {
			t.Errorf("stats %+v", st.Stats())
		}
	})
}

func TestPutVersioning(t *testing.T) {
	run(t, NullDisk(), func(p *sim.Proc, st *Store) {
		st.Put(p, &Object{Key: "k", Value: "new", Size: 3, Version: ts(5, 1)})
		if st.Put(p, &Object{Key: "k", Value: "stale", Size: 5, Version: ts(3, 9)}) {
			t.Error("stale version overwrote newer")
		}
		if got, _ := st.Peek("k"); got.Value != "new" {
			t.Errorf("value = %v", got.Value)
		}
		if !st.Put(p, &Object{Key: "k", Value: "newest", Size: 6, Version: ts(7, 1)}) {
			t.Error("newer version rejected")
		}
		if st.Stats().BytesOnDisk != 6 {
			t.Errorf("BytesOnDisk = %d, want 6", st.Stats().BytesOnDisk)
		}
	})
}

func TestDiskTimingCharged(t *testing.T) {
	disk := DiskConfig{WriteLatency: 100 * time.Microsecond, WriteBps: 100e6}
	run(t, disk, func(p *sim.Proc, st *Store) {
		start := p.Now()
		st.Put(p, &Object{Key: "k", Value: "v", Size: 1000000, Version: ts(1, 1)})
		took := p.Now() - start
		want := 100*time.Microsecond + 10*time.Millisecond // latency + 1MB/100MBps
		if took != want {
			t.Errorf("put took %v, want %v", took, want)
		}
	})
}

func TestLockMutualExclusionFIFO(t *testing.T) {
	s := sim.New(1)
	st := New(s, NullDisk())
	var order []string
	hold := func(name string, id uint64, delay sim.Time) {
		s.Spawn(name, func(p *sim.Proc) {
			p.Sleep(delay)
			if !st.Lock(p, "k", PutID{Seq: id}, 0) {
				t.Error("untimed lock failed")
				return
			}
			order = append(order, name)
			p.Sleep(10 * time.Millisecond)
			st.Release("k", PutID{Seq: id})
		})
	}
	hold("a", 1, 0)
	hold("b", 2, time.Millisecond)
	hold("c", 3, 2*time.Millisecond)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestLockTimeout(t *testing.T) {
	s := sim.New(1)
	st := New(s, NullDisk())
	var timedOut bool
	var gotLater bool
	s.Spawn("holder", func(p *sim.Proc) {
		st.Lock(p, "k", PutID{Seq: 1}, 0)
		p.Sleep(50 * time.Millisecond)
		st.Release("k", PutID{Seq: 1})
	})
	s.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		if !st.Lock(p, "k", PutID{Seq: 2}, 10*time.Millisecond) {
			timedOut = true
		}
		// After the holder releases, the lock must be acquirable again —
		// i.e. the timed-out waiter really withdrew.
		p.Sleep(60 * time.Millisecond)
		if st.Lock(p, "k", PutID{Seq: 2}, time.Millisecond) {
			gotLater = true
			st.Release("k", PutID{Seq: 2})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || !gotLater {
		t.Fatalf("timedOut=%v gotLater=%v", timedOut, gotLater)
	}
}

// TestRecycledLockStateKeepsFIFOAndWithdrawal: a lock whose state came
// off the free list grants its waiters in arrival order, a waiter that
// timed out withdraws and is never granted, and the freed state is pooled
// again; taking and releasing a free lock allocates nothing.
func TestRecycledLockStateKeepsFIFOAndWithdrawal(t *testing.T) {
	s := sim.New(1)
	st := New(s, NullDisk())
	st.Lock(nil, "other", PutID{Seq: 99}, 0) // a free lock never parks
	st.Release("other", PutID{Seq: 99})
	pooled := st.freeLocks[len(st.freeLocks)-1]

	var order []string
	timedOut := false
	hold := func(name string, id uint64, delay, timeout sim.Time) {
		s.Spawn(name, func(p *sim.Proc) {
			p.Sleep(delay)
			if !st.Lock(p, "k", PutID{Seq: id}, timeout) {
				timedOut = true
				return
			}
			if name == "a" && st.locks["k"] != pooled {
				t.Error("the first lock did not take the pooled state")
			}
			order = append(order, name)
			p.Sleep(10 * time.Millisecond)
			st.Release("k", PutID{Seq: id})
		})
	}
	hold("a", 1, 0, 0)
	hold("b", 2, time.Millisecond, 0)
	hold("late", 3, 2*time.Millisecond, 5*time.Millisecond) // gives up while a holds
	hold("c", 4, 3*time.Millisecond, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || !slices.Equal(order, []string{"a", "b", "c"}) {
		t.Fatalf("order %v, timed out %v; want [a b c], true", order, timedOut)
	}
	if st.Locked("k") || len(st.freeLocks) != 1 || st.freeLocks[0] != pooled {
		t.Fatalf("after the last release: locked %v, %d pooled", st.Locked("k"), len(st.freeLocks))
	}
	if n := testing.AllocsPerRun(100, func() {
		st.Lock(nil, "k", PutID{Seq: 5}, 0)
		st.Release("k", PutID{Seq: 5})
	}); n != 0 {
		t.Fatalf("a free lock's take and release allocate %v objects, want 0", n)
	}
}

// TestGrantQueuesArePooled: contended waiters queue on pooled grant
// queues — granted in arrival order, or withdrawn on timeout — and every
// queue goes back to the pool empty: the next round's waiters, on the same
// queues, are granted in order again, and the pool holds as many queues
// as waited at once however many rounds run.
func TestGrantQueuesArePooled(t *testing.T) {
	s := sim.New(1)
	st := New(s, NullDisk())
	var next uint64
	rounds := func(n int) {
		for r := 0; r < n; r++ {
			base := next
			next += 4
			var order []uint64
			s.Spawn("holder", func(p *sim.Proc) {
				st.Lock(p, "k", PutID{Seq: base}, 0)
				p.Sleep(10 * time.Millisecond)
				st.Release("k", PutID{Seq: base})
			})
			// The second waiter gives up at 7 ms, while the holder still holds.
			for i, timeout := range []sim.Time{0, 5 * time.Millisecond, 0} {
				id := PutID{Seq: base + 1 + uint64(i)}
				s.Spawn("waiter", func(p *sim.Proc) {
					p.Sleep(sim.Time(i+1) * time.Millisecond)
					if st.Lock(p, "k", id, timeout) {
						order = append(order, id.Seq)
						p.Sleep(time.Millisecond)
						st.Release("k", id)
					}
				})
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(order, []uint64{base + 1, base + 3}) || st.Locked("k") {
				t.Fatalf("round %d: granted %v, locked after %v; want [%d %d], unlocked", base/4, order, st.Locked("k"), base+1, base+3)
			}
		}
	}
	rounds(4)
	afterN := len(st.freeGrants)
	rounds(4)
	if afterN != 3 || len(st.freeGrants) != 3 {
		t.Fatalf("pooled grant queues: %d after 4 rounds, %d after 8; want 3, one per waiter", afterN, len(st.freeGrants))
	}
	s.Shutdown()
}

// TestGatherOutlivesItsWakingJoiners: a prepare gather is recycled only
// once its last joiner has left it. Each round's leader opens the next
// gather the moment its own write returns, while the joiners Set woke have
// not yet resumed; every joiner still returns when its own gather's write
// completes, and the free list does not grow with the rounds.
func TestGatherOutlivesItsWakingJoiners(t *testing.T) {
	const joiners, window = 3, 100 * time.Microsecond
	s := sim.New(1)
	st := New(s, SSD())
	var written []sim.Time // each round's leader return
	type ret struct {
		round int
		at    sim.Time
	}
	var rets []ret
	seq := 0
	prepare := func(p *sim.Proc) {
		seq++
		st.AppendLogCombined(p, LogRecord{Key: fmt.Sprint("k", seq), Size: 512, Tag: PutID{Seq: uint64(seq)}}, window)
	}
	lead := func(rounds int) {
		s.Spawn("leader", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				round := len(written)
				for j := 0; j < joiners; j++ {
					s.Spawn("joiner", func(p *sim.Proc) {
						p.Sleep(10 * time.Microsecond)
						prepare(p)
						rets = append(rets, ret{round, p.Now()})
					})
				}
				prepare(p)
				written = append(written, p.Now())
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	lead(8)
	afterN := len(st.freeGathers)
	lead(8)
	if len(rets) != 16*joiners || st.Stats().CombinedWrites != 16*joiners {
		t.Fatalf("%d joiners returned, %d combined writes; want %d", len(rets), st.Stats().CombinedWrites, 16*joiners)
	}
	for _, r := range rets {
		if r.at != written[r.round] {
			t.Fatalf("a joiner of round %d returned at %v, want its gather's write at %v", r.round, r.at, written[r.round])
		}
	}
	if afterN == 0 || len(st.freeGathers) != afterN {
		t.Fatalf("free gathers: %d after 8 rounds, %d after 16; want the same, nonzero", afterN, len(st.freeGathers))
	}
	s.Shutdown()
}

// TestReleaseIsOwnerChecked: the WAL survives a restart and the locks do
// not, so a key can carry put A's record under put B's lock. Releasing A
// must end A's prepare only.
func TestReleaseIsOwnerChecked(t *testing.T) {
	a, b, c := PutID{Client: 1, Seq: 1}, PutID{Client: 1, Seq: 2}, PutID{Client: 2, Seq: 1}
	run(t, NullDisk(), func(p *sim.Proc, st *Store) {
		st.Lock(p, "k", a, 0)
		st.AppendLog(p, LogRecord{Key: "k", Tag: a})
		st.ResetLocks()
		st.Lock(p, "k", b, 0)

		if !st.Release("k", a) || st.HasLog("k") {
			t.Error("releasing the old put did not drop its record")
		}
		if !st.Locked("k") {
			t.Fatal("releasing the old put freed the newer put's lock")
		}
		if st.Release("k", a) || !st.Locked("k") {
			t.Error("a second release of the old put touched something")
		}

		// A waiter behind B is granted the lock, and with it ownership.
		granted := false
		p.Sim().Spawn("waiter", func(p *sim.Proc) { granted = st.Lock(p, "k", c, 0) })
		p.Sleep(time.Millisecond)
		st.AppendLog(p, LogRecord{Key: "k", Tag: b})
		if !st.Release("k", b) || st.HasLog("k") {
			t.Error("the owner's release did not drop its record")
		}
		p.Sleep(time.Millisecond)
		if !granted || !st.Locked("k") {
			t.Fatalf("waiter granted=%v locked=%v after the owner's release", granted, st.Locked("k"))
		}
		if st.Release("k", b) {
			t.Error("the previous owner released the waiter's lock")
		}
		if !st.Release("k", c) || st.Locked("k") {
			t.Error("the new owner's release did not free the lock")
		}
	})
}

func TestWAL(t *testing.T) {
	run(t, NullDisk(), func(p *sim.Proc, st *Store) {
		rec := LogRecord{Key: "k", Size: 10, Ver: ts(1, 1), Tag: PutID{Seq: 7}}
		st.AppendLog(p, rec)
		if !st.HasLog("k") {
			t.Error("log record missing")
		}
		pend := st.PendingLog()
		if len(pend) != 1 || pend[0].Key != "k" {
			t.Errorf("PendingLog = %v", pend)
		}
		st.Release("k", PutID{Seq: 7})
		if st.HasLog("k") || len(st.PendingLog()) != 0 {
			t.Error("log record not dropped")
		}
	})
}

func TestHandoffNamespaceIsSeparate(t *testing.T) {
	run(t, NullDisk(), func(p *sim.Proc, st *Store) {
		st.PutHandoff(p, &Object{Key: "h", Value: 1, Size: 1, Version: ts(1, 1)})
		if _, ok := st.Get(p, "h"); ok {
			t.Error("handoff object visible in main namespace")
		}
		if got, ok := st.GetHandoff(p, "h"); !ok || got.Value != 1 {
			t.Error("handoff object missing")
		}
		st.Put(p, &Object{Key: "m", Value: 2, Size: 1, Version: ts(1, 2)})
		if _, ok := st.GetHandoff(p, "m"); ok {
			t.Error("main object visible in handoff namespace")
		}
		if st.HandoffLen() != 1 || len(st.HandoffObjects()) != 1 {
			t.Error("handoff enumeration wrong")
		}
		st.ClearHandoff()
		if st.HandoffLen() != 0 {
			t.Error("handoff not cleared")
		}
	})
}

func TestKeysEnumeration(t *testing.T) {
	run(t, NullDisk(), func(p *sim.Proc, st *Store) {
		for i := 0; i < 10; i++ {
			st.Put(p, &Object{Key: fmt.Sprintf("k%d", i), Size: 1, Version: ts(uint64(i+1), 0)})
		}
		if len(st.Keys()) != 10 || st.Len() != 10 {
			t.Errorf("Keys = %d, Len = %d", len(st.Keys()), st.Len())
		}
	})
}

// Property: applying any interleaving of versions leaves the store at the
// maximum version.
func TestVersionConvergenceProperty(t *testing.T) {
	f := func(seqs []uint64) bool {
		if len(seqs) == 0 {
			return true
		}
		if len(seqs) > 32 {
			seqs = seqs[:32]
		}
		s := sim.New(1)
		st := New(s, NullDisk())
		var max uint64
		ok := true
		s.Spawn("t", func(p *sim.Proc) {
			for _, q := range seqs {
				st.Put(p, &Object{Key: "k", Value: q, Size: 1, Version: ts(q, 0)})
				if q > max {
					max = q
				}
			}
			got, _ := st.Peek("k")
			ok = got != nil && got.Version.PrimarySeq == max
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStorePutGet(b *testing.B) {
	s := sim.New(1)
	st := New(s, NullDisk())
	n := b.N
	s.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			st.Put(p, &Object{Key: "k", Value: i, Size: 64, Version: ts(uint64(i+1), 0)})
			st.Get(p, "k")
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
