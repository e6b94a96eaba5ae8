package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestShutdownAfterProcHeldSchedulerRole drives a run whose final
// scheduler-role holder is a process (the last event fires from an exiting
// proc's dispatch loop, which yields to the root with nothing left to run),
// then shuts down. Both the still-parked process and the pooled idle
// coroutine must be reaped.
func TestShutdownAfterProcHeldSchedulerRole(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	s.Spawn("consumer", func(p *Proc) { q.Pop(p) }) // parks forever
	s.Spawn("producer", func(p *Proc) {
		p.Sleep(ms(5)) // ensure the consumer parked first
		// Exit without pushing: this goroutine drains the (empty) heap
		// while the consumer stays parked, then yields to Run's caller.
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.nprocs != 1 {
		t.Fatalf("live procs = %d, want 1 (parked consumer)", s.nprocs)
	}
	s.Shutdown()
	if s.nprocs != 0 {
		t.Fatalf("after Shutdown live procs = %d, want 0", s.nprocs)
	}
}

// TestShutdownAfterStopFromProc stops the run from process context — the
// stopping process's own dispatch loop observes the flag and hands the
// token back — and then reaps everything.
func TestShutdownAfterStopFromProc(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	for i := 0; i < 3; i++ {
		s.Spawn("stuck", func(p *Proc) { q.Pop(p) })
	}
	s.Spawn("stopper", func(p *Proc) {
		p.Sleep(ms(1))
		s.Stop()
		p.Sleep(ms(1)) // parks; its dispatch sees stopped and yields
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.nprocs != 4 {
		t.Fatalf("live procs = %d, want 4", s.nprocs)
	}
	s.Shutdown()
	if s.nprocs != 0 {
		t.Fatalf("after Shutdown live procs = %d, want 0", s.nprocs)
	}
}

// TestProcPanicMidHandoff panics a process right after it has woken
// another one (the wake event is still pending when the failure unwinds).
// The failure must be captured as a procFailure naming the panicking
// process, and Shutdown must still reap the parked peer.
func TestProcPanicMidHandoff(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	s.Spawn("peer", func(p *Proc) { q.Pop(p); q.Pop(p) })
	s.Spawn("bomber", func(p *Proc) {
		p.Sleep(ms(1))
		q.Push(7) // wakes the peer's waiter: its wake event is now pending
		panic("boom")
	})
	err := s.Run()
	if err == nil {
		t.Fatal("expected failure from panicking process")
	}
	if !strings.Contains(err.Error(), "bomber") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("failure = %v, want procFailure naming bomber/boom", err)
	}
	s.Shutdown()
	if s.nprocs != 0 {
		t.Fatalf("after Shutdown live procs = %d, want 0", s.nprocs)
	}
}

// TestSpawnPoolReusesGoroutine proves the spawn pool works: a process that
// ran to completion donates its struct (and goroutine) to the next Spawn,
// and the new tenant starts with a clean slate.
func TestSpawnPoolReusesGoroutine(t *testing.T) {
	s := New(1)
	first := s.Spawn("first", func(p *Proc) {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ran := false
	second := s.Spawn("second", func(p *Proc) {
		ran = true
		if p.name != "second" {
			t.Errorf("reused proc name = %q, want %q", p.name, "second")
		}
	})
	if second != first {
		t.Fatalf("Spawn did not reuse the pooled proc (got %p, want %p)", second, first)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("pooled proc never ran its new fn")
	}
	s.Shutdown()
}

// TestSpawnPoolNoKillLeak exercises the kill flag across pool generations:
// a simulator whose processes were killed by Shutdown must not bleed kill
// state into an unrelated simulator's pool, and within one simulator a
// pooled struct re-armed by Spawn must run (kill reset), even when the
// previous tenant's sibling was killed.
func TestSpawnPoolNoKillLeak(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	s.Spawn("victim", func(p *Proc) { q.Pop(p) }) // will be killed
	s.Spawn("clean", func(p *Proc) {})            // exits, pooled
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Reuse the pooled "clean" struct before any Shutdown: must run.
	ran := 0
	s.Spawn("tenant2", func(p *Proc) { ran++ })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("pooled reuse ran %d times, want 1", ran)
	}
	// Kill the parked victim plus the pooled goroutine; everything exits.
	s.Shutdown()
	if s.nprocs != 0 {
		t.Fatalf("after Shutdown live procs = %d, want 0", s.nprocs)
	}
}

// TestShutdownReapsCoroutines checks that Shutdown ends every coroutine a
// simulator created, whatever state its process was left in. A coroutine
// ends inside the next() call that resumes it, so the goroutine count is
// back at its pre-New baseline the moment Shutdown returns — no polling.
func TestShutdownReapsCoroutines(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T, s *Simulator)
		live  int // live procs before Shutdown
	}{
		{"never started", func(t *testing.T, s *Simulator) {
			s.Spawn("unborn", func(p *Proc) { t.Error("never-started proc ran") })
		}, 1},
		{"parked", func(t *testing.T, s *Simulator) {
			q := NewQueue[int](s)
			for i := 0; i < 8; i++ {
				s.Spawn("stuck", func(p *Proc) {
					q.Pop(p)
					t.Error("parked proc resumed past its wait")
				})
			}
			run(t, s)
		}, 8},
		{"pooled idle", func(t *testing.T, s *Simulator) {
			for i := 0; i < 8; i++ {
				s.Spawn("worker", func(p *Proc) { p.Sleep(ms(1)) })
			}
			run(t, s)
		}, 0},
		{"pooled, re-armed, never started", func(t *testing.T, s *Simulator) {
			first := s.Spawn("first", func(p *Proc) {})
			run(t, s)
			if s.Spawn("unborn", func(p *Proc) { t.Error("never-started tenant ran") }) != first {
				t.Fatal("Spawn did not reuse the pooled proc")
			}
		}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := New(1)
			c.setup(t, s)
			if s.nprocs != c.live {
				t.Fatalf("live procs = %d, want %d", s.nprocs, c.live)
			}
			if runtime.NumGoroutine() <= before {
				t.Fatal("setup created no coroutine; the test proves nothing")
			}
			s.Shutdown()
			if s.nprocs != 0 {
				t.Errorf("after Shutdown live procs = %d, want 0", s.nprocs)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("after Shutdown %d goroutines, %d before New", n, before)
			}
		})
	}
}

// run drives s to completion and fails the test on a process failure.
func run(t *testing.T, s *Simulator) {
	t.Helper()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestProcPanicInEventFromProcDispatch panics inside an event callback that
// fires from a parked process's own dispatch loop. The panic unwinds that
// process's stack, so it is reported as its procFailure; the struct is
// still on the parked list with a wake event referencing it, so it must be
// unlinked and must not enter the spawn pool.
func TestProcPanicInEventFromProcDispatch(t *testing.T) {
	s := New(1)
	victim := s.Spawn("sleeper", func(p *Proc) {
		s.After(ms(1), func() { panic("event boom") })
		p.Sleep(ms(2)) // the sole proc: its park loop fires the event
		t.Error("sleeper resumed after the failure")
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "sleeper") || !strings.Contains(err.Error(), "event boom") {
		t.Fatalf("failure = %v, want procFailure naming sleeper/event boom", err)
	}
	if victim.isParked || s.parked != nil {
		t.Error("panic-unwound proc still on the parked list")
	}
	if s.freeProcs.Len() != 0 {
		t.Error("panic-unwound proc entered the spawn pool")
	}
	if s.nprocs != 0 {
		t.Errorf("live procs = %d, want 0", s.nprocs)
	}
	s.Shutdown()
}

// countSwitches wraps p's resume function so every coroutine switch into p
// is counted; the yields back pair with them one to one.
func countSwitches(p *Proc, n *int) {
	next := p.next
	p.next = func() (struct{}, bool) { *n++; return next() }
}

// TestProcSelfWakeZeroSwitches pins the fast path the coroutine transfer
// must not lose: a process whose own wake event fires during its own drain
// of the wheel returns from park without leaving its coroutine. A lone
// sleeper is switched into exactly once, however often it sleeps; two
// processes that take turns are each switched into once per turn.
func TestProcSelfWakeZeroSwitches(t *testing.T) {
	s := New(1)
	switches := 0
	countSwitches(s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(ms(1))
		}
	}), &switches)
	run(t, s)
	if switches != 1 {
		t.Fatalf("lone sleeper: %d switches for 1000 sleeps, want 1 (the start)", switches)
	}

	// Two procs ping-ponging do switch: one resume per wake of each side.
	s = New(1)
	q := NewQueue[int](s)
	var prod, cons int
	countSwitches(s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.Pop(p)
		}
	}), &cons)
	countSwitches(s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.Push(i)
			p.Sleep(0)
		}
	}), &prod)
	run(t, s)
	if cons != 101 || prod != 101 {
		t.Fatalf("ping-pong: consumer %d, producer %d switches, want 101 each", cons, prod)
	}
	s.Shutdown()
}

// TestCondBroadcast covers the Cond primitive: Broadcast wakes every
// waiter in FIFO order, and an event scheduled after the Broadcast runs
// only once every waiter has resumed — the batch wake occupies the
// broadcaster's position in the event order.
func TestCondBroadcast(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	s.At(ms(20), func() {
		c.Broadcast()
		s.At(s.Now(), func() { order = append(order, "after") })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "after"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestFutureBroadcastOrder pins the batch-wake ordering contract: waiters
// resume in wait order, before any event scheduled after the Set.
func TestFutureBroadcastOrder(t *testing.T) {
	s := New(1)
	f := NewFuture[int](s)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn("w", func(p *Proc) {
			f.WaitTimeout(p, ms(100))
			order = append(order, i)
		})
	}
	s.At(ms(5), func() {
		f.Set(1)
		s.At(s.Now(), func() { order = append(order, 99) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 99}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
