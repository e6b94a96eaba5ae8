package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) Time { return Time(n) * time.Millisecond }

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(ms(20), func() { order = append(order, 2) })
	s.At(ms(10), func() { order = append(order, 1) })
	s.At(ms(30), func() { order = append(order, 3) })
	s.At(ms(10), func() { order = append(order, 11) }) // same instant: FIFO
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != ms(30) {
		t.Fatalf("Now = %v, want %v", s.Now(), ms(30))
	}
}

func TestEventCancel(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.At(ms(5), func() { fired = true })
	ev.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(ms(10), func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(ms(5), func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var wake Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(ms(42))
		wake = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != ms(42) {
		t.Fatalf("woke at %v, want %v", wake, ms(42))
	}
	if s.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", s.LiveProcs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func(seed int64) []string {
		s := New(seed)
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			s.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(ms(1 + s.Rand().Intn(5)))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a := run(7)
	b := run(7)
	if len(a) != len(b) || len(a) != 9 {
		t.Fatalf("trace lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestQueuePushPop(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	var got []int
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := q.Pop(p)
			if !ok {
				t.Error("unexpected closed queue")
				return
			}
			got = append(got, v)
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(ms(10))
			q.Push(i)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	s := New(1)
	q := NewQueue[string](s)
	var timedOut, gotValue bool
	var at Time
	s.Spawn("c", func(p *Proc) {
		if _, ok := q.PopTimeout(p, ms(5)); !ok {
			timedOut = true
			at = p.Now()
		}
		v, ok := q.PopTimeout(p, ms(100))
		gotValue = ok && v == "x"
	})
	s.At(ms(20), func() { q.Push("x") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || at != ms(5) {
		t.Fatalf("timeout at %v (fired=%v), want 5ms", at, timedOut)
	}
	if !gotValue {
		t.Fatal("second pop did not see pushed value")
	}
}

// TestTimedWaitLeavesNoWaiterBehind polls an idle queue and a pending
// future with timeouts 10^5 times each. Every timed-out waiter must be unlinked
// from its wait list and recycled, so the lists end empty and the steady
// state allocates nothing.
func TestTimedWaitLeavesNoWaiterBehind(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	f := NewFuture[int](s)
	var allocs float64
	s.Spawn("poller", func(p *Proc) {
		poll := func() {
			if _, ok := q.PopTimeout(p, ms(1)); ok {
				t.Error("PopTimeout on an idle queue returned a value")
			}
			if _, ok := f.WaitTimeout(p, ms(1)); ok {
				t.Error("WaitTimeout on a pending future returned a value")
			}
		}
		allocs = testing.AllocsPerRun(100000, poll)
	})
	run(t, s)
	if q.waiters.head != nil || q.waiters.tail != nil || f.waiters.head != nil || f.waiters.tail != nil {
		t.Error("timed-out waiters left on the wait list")
	}
	if allocs != 0 {
		t.Errorf("timed wait allocates %.1f objects per PopTimeout+WaitTimeout, want 0", allocs)
	}
	// One waiter serves every wait: it goes back to the free list each time.
	if s.freeWaiters.Len() != 1 {
		t.Error("free list should hold exactly the one recycled waiter")
	}
}

// TestTimedWaitStaleDeadline pins that a deadline event which outlives its
// wait never touches the waiter's next tenant. The waiter is recycled as
// soon as the waiting process resumes, and the process immediately blocks
// again on it, untimed, across the old deadline — once with the deadline
// event cancelled but still in the wheel, once with it firing at the very
// instant a push already woke the process.
func TestTimedWaitStaleDeadline(t *testing.T) {
	s := New(1)
	q, q2 := NewQueue[int](s), NewQueue[int](s)
	s.At(ms(1), func() { q.Push(1) })
	s.At(ms(15), func() { q.Push(2) }) // same instant as the second deadline, fires first
	s.At(ms(10), func() { q2.Push(10) })
	s.At(ms(20), func() { q2.Push(20) })
	var got []int
	var at []Time
	s.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 2; i++ {
			v, ok := q.PopTimeout(p, ms(5))
			if !ok {
				t.Errorf("round %d: PopTimeout timed out, want a value", i)
			}
			w, _ := q2.Pop(p) // reuses the waiter the timed wait just freed
			got = append(got, v, w)
			at = append(at, p.Now())
		}
	})
	run(t, s)
	if len(got) != 4 || got[0] != 1 || got[1] != 10 || got[2] != 2 || got[3] != 20 {
		t.Fatalf("got %v, want [1 10 2 20]", got)
	}
	if at[0] != ms(10) || at[1] != ms(20) {
		t.Fatalf("untimed waits resumed at %v, want [10ms 20ms]: a stale deadline woke a recycled waiter", at)
	}
}

func TestQueueClose(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	q.Push(9)
	closedSeen := false
	s.Spawn("c", func(p *Proc) {
		if v, ok := q.Pop(p); !ok || v != 9 {
			t.Errorf("Pop = %d,%v want 9,true", v, ok)
		}
		if _, ok := q.Pop(p); !ok {
			closedSeen = true
		}
	})
	s.At(ms(3), func() { q.Close() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !closedSeen {
		t.Fatal("Pop on closed queue returned ok")
	}
}

func TestQueueFIFOAmongWaiters(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	var order []string
	mk := func(name string, delay Time) {
		s.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			if _, ok := q.Pop(p); ok {
				order = append(order, name)
			}
		})
	}
	mk("first", ms(1))
	mk("second", ms(2))
	s.At(ms(10), func() { q.Push(1) })
	s.At(ms(11), func() { q.Push(2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v", order)
	}
}

func TestFuture(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	results := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("w", func(p *Proc) { results[i] = f.Wait(p) })
	}
	s.At(ms(7), func() { f.Set(99) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if results[0] != 99 || results[1] != 99 {
		t.Fatalf("results = %v", results)
	}
	if !f.Done() || f.Value() != 99 {
		t.Fatal("future not resolved")
	}
}

func TestFutureWaitTimeout(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	var ok1, ok2 bool
	s.Spawn("w", func(p *Proc) {
		_, ok1 = f.WaitTimeout(p, ms(5))
		_, ok2 = f.WaitTimeout(p, ms(100))
	})
	s.At(ms(50), func() { f.Set(1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ok1 || !ok2 {
		t.Fatalf("ok1=%v ok2=%v, want false,true", ok1, ok2)
	}
}

func TestFutureDoubleSetPanics(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	f.Set(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double Set")
		}
	}()
	f.Set(2)
}

// TestResetRefusesAParkedWaiter: a queue or future reset while a process
// waits on it panics; reset once its waiter left, it is fresh — buffered
// items dropped, a closed queue reopened, a resolved future pending.
func TestResetRefusesAParkedWaiter(t *testing.T) {
	mustPanic := func(what string, reset func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s reset under a parked waiter did not panic", what)
			}
		}()
		reset()
	}
	s := New(1)
	q := NewQueue[int](s)
	f := NewFuture[int](s)
	s.Spawn("queue waiter", func(p *Proc) { q.PopTimeout(p, ms(10)) })
	s.Spawn("future waiter", func(p *Proc) { f.Wait(p) })
	if err := s.RunUntil(ms(1)); err != nil {
		t.Fatal(err)
	}
	mustPanic("queue", q.Reset)
	mustPanic("future", f.Reset)
	f.Set(7)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	q.Push(1)
	q.Push(2)
	q.Close()
	q.Reset()
	f.Reset()
	if q.Len() != 0 || f.Done() {
		t.Fatalf("after reset: queue holds %d, future done=%v", q.Len(), f.Done())
	}
	q.Push(3)
	if v, ok := q.TryPop(); !ok || v != 3 {
		t.Fatalf("reset queue: TryPop = %d,%v, want 3,true", v, ok)
	}
	f.Set(8)
	if f.Value() != 8 {
		t.Fatalf("reset future resolved to %d, want 8", f.Value())
	}
}

func TestGroup(t *testing.T) {
	s := New(1)
	g := NewGroup(s)
	g.Add(3)
	var doneAt Time
	s.Spawn("waiter", func(p *Proc) {
		g.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := ms(10 * i)
		s.At(d, func() { g.Done() })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != ms(30) {
		t.Fatalf("group released at %v, want 30ms", doneAt)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	s := New(1)
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(ms(1))
		panic("boom")
	})
	if err := s.Run(); err == nil {
		t.Fatal("expected failure from panicking process")
	}
}

func TestShutdownReapsParkedProcs(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	for i := 0; i < 5; i++ {
		s.Spawn("stuck", func(p *Proc) { q.Pop(p) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.LiveProcs() != 5 {
		t.Fatalf("LiveProcs = %d, want 5", s.LiveProcs())
	}
	s.Shutdown()
	if s.LiveProcs() != 0 {
		t.Fatalf("after Shutdown LiveProcs = %d, want 0", s.LiveProcs())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(ms(10*i), func() { count++ })
	}
	if err := s.RunUntil(ms(35)); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if s.Now() != ms(35) {
		t.Fatalf("Now = %v, want 35ms", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

// Property: for any batch of (delay, value) pairs pushed by a producer, a
// consumer pops exactly the same values in push order.
func TestQueueOrderProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 64 {
			delays = delays[:64]
		}
		s := New(42)
		q := NewQueue[int](s)
		var got []int
		s.Spawn("consumer", func(p *Proc) {
			for range delays {
				v, ok := q.Pop(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		s.Spawn("producer", func(p *Proc) {
			for i, d := range delays {
				p.Sleep(Time(d) * time.Microsecond)
				q.Push(i)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if len(got) != len(delays) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
