package kvstore

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
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
	run(t, DiskConfig{}, func(p *sim.Proc, st *Store) {
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
	run(t, DiskConfig{}, func(p *sim.Proc, st *Store) {
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
	st := New(s, DiskConfig{})
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
	st := New(s, DiskConfig{})
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
	st := New(s, DiskConfig{})
	st.Lock(nil, "other", PutID{Seq: 99}, 0) // a free lock never parks
	st.Release("other", PutID{Seq: 99})
	pooled := st.freeLocks.Take()
	st.freeLocks.Put(pooled)

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
	n, last := st.freeLocks.Len(), st.freeLocks.Take()
	if st.Locked("k") || n != 1 || last != pooled {
		t.Fatalf("after the last release: locked %v, %d pooled", st.Locked("k"), n)
	}
	st.freeLocks.Put(last)
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
// as waited at once however many rounds run. The pooled lock state keeps
// its wait list's array from round to round.
func TestGrantQueuesArePooled(t *testing.T) {
	s := sim.New(1)
	st := New(s, DiskConfig{})
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
	// waitArray is the start of the pooled lock state's wait-list array.
	waitArray := func() *lockWaiter {
		ls := st.freeLocks.Take()
		st.freeLocks.Put(ls)
		if ls == nil || cap(ls.waiters) == 0 {
			t.Fatal("no pooled lock state with a wait list")
		}
		return &ls.waiters[:1][0]
	}
	rounds(4)
	afterN, arr := st.freeGrants.Len(), waitArray()
	rounds(4)
	if afterN != 3 || st.freeGrants.Len() != 3 {
		t.Fatalf("pooled grant queues: %d after 4 rounds, %d after 8; want 3, one per waiter", afterN, st.freeGrants.Len())
	}
	if waitArray() != arr {
		t.Fatal("the pooled lock state's wait list was reallocated by later rounds")
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
		st.AppendLog(p, LogRecord{Obj: Object{Key: fmt.Sprint("k", seq), Size: 512}, Tag: PutID{Seq: uint64(seq)}}, window)
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
	afterN := st.freeGathers.Len()
	lead(8)
	if len(rets) != 16*joiners || st.Stats().CombinedWrites != 16*joiners {
		t.Fatalf("%d joiners returned, %d combined writes; want %d", len(rets), st.Stats().CombinedWrites, 16*joiners)
	}
	for _, r := range rets {
		if r.at != written[r.round] {
			t.Fatalf("a joiner of round %d returned at %v, want its gather's write at %v", r.round, r.at, written[r.round])
		}
	}
	if afterN == 0 || st.freeGathers.Len() != afterN {
		t.Fatalf("free gathers: %d after 8 rounds, %d after 16; want the same, nonzero", afterN, st.freeGathers.Len())
	}
	s.Shutdown()
}

// TestUnbatchedPrepareNeverGathers: with no window, AppendLog books one
// forced write of the record and its object the moment it is called and
// opens no gather. Two prepares arriving in the same instant finish FIFO,
// each on its own write, and each record is open in the WAL while its
// write is in flight.
func TestUnbatchedPrepareNeverGathers(t *testing.T) {
	disk := SSD()
	w := xferTime(disk.WriteLatency, disk.WriteBps, 64+1024)
	s := sim.New(1)
	st := New(s, disk)
	var done []string
	for i := 1; i <= 2; i++ {
		key := fmt.Sprint("k", i)
		s.Spawn("prepare", func(p *sim.Proc) {
			st.AppendLog(p, LogRecord{Obj: Object{Key: key, Size: 1024}, Tag: PutID{Seq: uint64(i)}}, 0)
			if want := sim.Time(i) * w; p.Now() != want {
				t.Errorf("%s prepared at %v, want %v", key, p.Now(), want)
			}
			done = append(done, key)
		})
	}
	s.At(w/2, func() {
		if !st.HasLog("k1") || !st.HasLog("k2") {
			t.Error("a prepare whose write is in flight is missing from the WAL")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if got := st.Stats(); !slices.Equal(done, []string{"k1", "k2"}) || got.DiskWrites != 2 ||
		got.CombinedWrites != 0 || got.DiskBusy != 2*w || st.freeGathers.Len() != 0 {
		t.Fatalf("prepared %v with %d writes, %d combined, %v booked, %d gathers; want [k1 k2], 2, 0, %v, 0",
			done, got.DiskWrites, got.CombinedWrites, got.DiskBusy, st.freeGathers.Len(), 2*w)
	}
}

// TestReleaseIsOwnerChecked: the WAL survives a restart and the locks do
// not, so a key can carry put A's record under put B's lock. Releasing A
// must end A's prepare only.
func TestReleaseIsOwnerChecked(t *testing.T) {
	a, b, c := PutID{Client: 1, Seq: 1}, PutID{Client: 1, Seq: 2}, PutID{Client: 2, Seq: 1}
	run(t, DiskConfig{}, func(p *sim.Proc, st *Store) {
		st.Lock(p, "k", a, 0)
		st.AppendLog(p, LogRecord{Obj: Object{Key: "k"}, Tag: a}, 0)
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
		st.AppendLog(p, LogRecord{Obj: Object{Key: "k"}, Tag: b}, 0)
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
	run(t, DiskConfig{}, func(p *sim.Proc, st *Store) {
		rec := LogRecord{Obj: Object{Key: "k", Size: 10, Version: ts(1, 1)}, Tag: PutID{Seq: 7}}
		st.AppendLog(p, rec, 0)
		if !st.HasLog("k") {
			t.Error("log record missing")
		}
		pend := st.PendingLog()
		if len(pend) != 1 || pend[0].Obj.Key != "k" {
			t.Errorf("PendingLog = %v", pend)
		}
		st.Release("k", PutID{Seq: 7})
		if st.HasLog("k") || len(st.PendingLog()) != 0 {
			t.Error("log record not dropped")
		}
	})
	// A map stores values over 128 bytes out of line, at one allocation
	// per insert: the WAL keeps its records inline only below that.
	if size := unsafe.Sizeof(LogRecord{}); size > 128 {
		t.Errorf("a LogRecord is %d bytes, over 128", size)
	}
}

func TestHandoffNamespaceIsSeparate(t *testing.T) {
	run(t, DiskConfig{}, func(p *sim.Proc, st *Store) {
		st.ApplyHandoff(&Object{Key: "h", Value: 1, Size: 1, Version: ts(1, 1)})
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
		if len(st.HandoffObjects()) != 1 {
			t.Error("handoff enumeration wrong")
		}
		st.ClearHandoff()
		if len(st.HandoffObjects()) != 0 {
			t.Error("handoff not cleared")
		}
	})
}

func TestKeysEnumeration(t *testing.T) {
	run(t, DiskConfig{}, func(p *sim.Proc, st *Store) {
		for i := 0; i < 10; i++ {
			st.Put(p, &Object{Key: fmt.Sprintf("k%d", i), Size: 1, Version: ts(uint64(i+1), 0)})
		}
		if len(st.Keys()) != 10 || len(st.objects) != 10 {
			t.Errorf("Keys = %d, objects = %d", len(st.Keys()), len(st.objects))
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
		st := New(s, DiskConfig{})
		var max uint64
		ok := true
		s.Spawn("t", func(p *sim.Proc) {
			for _, q := range seqs {
				st.Put(p, &Object{Key: "k", Value: q, Size: 1, Version: ts(q, 0)})
				if q > max {
					max = q
				}
			}
			got, found := st.Peek("k")
			ok = found && got.Version.PrimarySeq == max
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
	st := New(s, DiskConfig{})
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

// eachMode runs fn against a legacy store and against a durable one whose
// engine snapshots every millisecond.
func eachMode(t *testing.T, fn func(t *testing.T, p *sim.Proc, st *Store)) {
	t.Run("legacy", func(t *testing.T) {
		run(t, DiskConfig{}, func(p *sim.Proc, st *Store) { fn(t, p, st) })
	})
	t.Run("durable", func(t *testing.T) {
		cfg := storage.DefaultConfig()
		cfg.SnapshotEvery = time.Millisecond
		runDurable(t, DiskConfig{}, cfg, func(p *sim.Proc, st *Store) { fn(t, p, st) })
	})
}

// TestStoreOwnsItsObjects: a store keeps its own copy of every object it
// installs and hands out copies, so neither the installer's later writes
// nor a reader's writes reach a stored version.
func TestStoreOwnsItsObjects(t *testing.T) {
	eachMode(t, func(t *testing.T, p *sim.Proc, st *Store) {
		a := Object{Key: "a", Value: "a1", Size: 1, Version: ts(1, 1)}
		b := Object{Key: "b", Value: "b1", Size: 2, Version: ts(1, 2)}
		h := Object{Key: "h", Value: "h1", Size: 3, Version: ts(1, 3)}
		want := map[string]Object{"a": a, "b": b, "h": h}
		st.Apply(&a)
		st.Put(p, &b)
		st.ApplyHandoff(&h)
		check := func(when string) {
			t.Helper()
			for _, k := range []string{"a", "b"} {
				peek, _ := st.Peek(k)
				read, _ := st.Get(p, k)
				if peek != want[k] || read != want[k] {
					t.Errorf("%s: Peek(%q) = %+v, Get = %+v, want %+v", when, k, peek, read, want[k])
				}
			}
			peek, _ := st.PeekHandoff("h")
			read, _ := st.GetHandoff(p, "h")
			all := st.HandoffObjects()
			if peek != want["h"] || read != want["h"] || len(all) != 1 || all[0] != want["h"] {
				t.Errorf("%s: PeekHandoff = %+v, GetHandoff = %+v, HandoffObjects = %+v, want %+v", when, peek, read, all, want["h"])
			}
		}
		for _, o := range []*Object{&a, &b, &h} {
			o.Value, o.Version = "rewritten", ts(9, 9)
		}
		check("after the installer rewrote its objects")

		peek, _ := st.Peek("a")
		read, _ := st.Get(p, "b")
		hand, _ := st.GetHandoff(p, "h")
		for _, o := range []*Object{&peek, &read, &hand, &st.HandoffObjects()[0]} {
			o.Value, o.Version = "rewritten", ts(9, 9)
		}
		check("after a reader rewrote its copies")
	})
}

// TestSteadyCommitAllocatesNothing: re-committing a key the store already
// holds allocates nothing, in either mode — the durable engine's WAL has
// regained its capacity from the last snapshot.
func TestSteadyCommitAllocatesNothing(t *testing.T) {
	eachMode(t, func(t *testing.T, p *sim.Proc, st *Store) {
		obj := Object{Key: "k", Value: "v", Size: 64}
		commit := func() {
			obj.Version.PrimarySeq++
			if !st.Apply(&obj) {
				t.Fatal("a newer version was refused")
			}
		}
		for i := 0; i < 300; i++ {
			commit()
		}
		p.Sleep(2 * time.Millisecond) // a snapshot retires the records
		if allocs := testing.AllocsPerRun(200, commit); allocs != 0 {
			t.Fatalf("re-committing a key allocates %v objects, want 0", allocs)
		}
	})
}
