//go:build go1.23

package sim

import "iter"

// Proc is a simulation process: a coroutine that runs protocol code under
// the virtual clock. The kernel guarantees that at most one process (or
// event callback) executes at a time, so process code needs no locking and
// the simulation stays deterministic.
//
// The scheduler is a *role*, not a goroutine. Whoever just ran out of work
// — a parking process, an exiting process, or the Run caller — drains the
// timer wheel itself (Simulator.dispatch). A process whose own wake event
// fires while it is draining resumes with zero switches; otherwise it
// leaves the successor dispatch chose in Simulator.handoff and yields to
// the root trampoline (Simulator.drive), which resumes that successor.
// Processes are iter.Pull coroutines, so both hops are runtime coroswitch
// calls: they swap goroutines on the current thread without touching the
// Go scheduler's run queues, and a proc switch costs the same at any
// GOMAXPROCS. See DESIGN.md §11 for the state machine.
//
// A Proc may only block through the primitives in this package (Sleep,
// Queue.Pop, Future.WaitTimeout, Cond.Wait, ...). Blocking on ordinary Go
// channels from inside a process would stall the whole simulation.
type Proc struct {
	sim    *Simulator
	name   string
	next   func() (struct{}, bool) // root side: switch into the coroutine
	yield  func(struct{}) bool     // proc side: switch back to the root
	fn     func(p *Proc)           // current body; rebound on reuse from the free pool
	wakeFn func()                  // pre-bound p.enqueue, shared by every Sleep/wake
	kill   bool                    // set by Shutdown: next resume must unwind and die

	// Intrusive membership in the simulator's parked list.
	parkNext *Proc
	parkPrev *Proc
	isParked bool

	// nextSched links this proc into exactly one of: the ready queue or a
	// pending batch-wake chain (wakeAll).
	nextSched *Proc
}

// killed is the panic value used to unwind a process during Shutdown.
type killed struct{}

// Spawn starts fn as a new process. fn begins executing at the current
// virtual time, after the currently running event or process yields. The
// name is used in failure reports only.
//
// Finished processes leave their coroutine suspended in a simulator-owned
// free pool; a Spawn that can reuse one re-arms it with the new fn instead
// of creating a coroutine, so per-request/per-connection process churn is
// allocation-free in steady state.
//
// Until its start event fires the process counts as parked, so a Shutdown
// that comes first reaps it like any other parked process.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	s.nprocs++
	p := s.freeProcs.Take()
	if p != nil {
		p.name = name
		p.fn = fn
		p.kill = false // a fresh tenant never inherits a pending kill
	} else {
		p = &Proc{sim: s, name: name, fn: fn}
		p.wakeFn = p.enqueue
		p.next, _ = iter.Pull(p.run)
	}
	s.addParked(p)
	s.After(0, p.wakeFn)
	return p
}

// run is the body of a process coroutine. It outlives individual Spawns:
// after fn returns, the coroutine returns its Proc to the simulator's free
// pool, keeps driving the scheduler loop until another process is due, and
// then yields until a future Spawn re-arms it (or Shutdown kills it). If
// its own next incarnation becomes ready while it is still draining the
// wheel, it runs the new fn directly without any switch. Returning ends
// the coroutine, which the root sees exactly like a yield.
func (p *Proc) run(yield func(struct{}) bool) {
	s := p.sim
	p.yield = yield
	for p.fn != nil { // nil: killed while idle in the pool
		if !p.kill { // else killed before its start event fired
			p.body()
		}
		s.nprocs--
		p.fn = nil
		if p.kill {
			return
		}
		pooled := false
		if p.isParked {
			// The body was unwound by a panic while parked (an event fired
			// from this coroutine's scheduler loop panicked). A stale wake
			// event in the wheel may still reference p, so it cannot be
			// reused: unlink it and let the coroutine end below.
			s.removeParked(p)
		} else {
			pooled = s.freeProcs.Put(p)
		}
		// The coroutine still holds the scheduler role: keep the run going.
		// If dispatch returns p itself, a Spawn fired from this very loop
		// re-armed our struct: stay hot and run the next tenant directly.
		if q := s.dispatch(); q != p {
			s.handoff = q
			if !pooled {
				return
			}
			yield(struct{}{})
		}
	}
}

// body runs the process function, converting a panic into the simulation's
// first failure. The killed{} unwind used by Shutdown is not a failure.
func (p *Proc) body() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok && p.sim.fail == nil {
				p.sim.fail = procFailure{proc: p, val: r}
			}
		}
	}()
	p.fn(p)
}

// Sim returns the simulator the process runs under.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.Now() }

// park suspends the process. The coroutine takes over the scheduler role
// and drains the timer wheel; if an event marks this very process ready
// again, park returns with zero switches. Otherwise it names the next
// runnable process (nil when the run is done) in Simulator.handoff and
// yields to the root, which resumes p once some later scheduler-role
// holder pops it from the ready queue.
func (p *Proc) park() {
	s := p.sim
	s.addParked(p)
	if q := s.dispatch(); q != p {
		s.handoff = q
		p.yield(struct{}{})
	}
	if p.kill {
		panic(killed{})
	}
}

// enqueue moves the process from parked to the tail of the ready queue. It
// is the pre-bound callback behind every Sleep timer and waiter wake, so
// waking stays allocation-free.
func (p *Proc) enqueue() { p.sim.readyPush(p) }

// Sleep suspends the process for d of virtual time. A non-positive d still
// yields, resuming at the current instant after already-scheduled events.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.sim.After(d, p.wakeFn)
	p.park()
}

// waiter tracks a single blocking wait that can be woken by exactly one of
// several sources (a value arriving, a timeout firing, ...). Waiters link
// into intrusive wait lists through next and recycle through the
// simulator's free list, so steady-state blocking allocates nothing. A
// waiter is on its wait list exactly while it has not fired: wakers pop it
// and a timeout unlinks it.
type waiter struct {
	p     *Proc
	fired bool
	timed bool    // owned by parkTimed, which recycles it; wakers must not
	next  *waiter // wait-list / free-list link
}

// newWaiter takes a waiter off the free list, or allocates one.
func (s *Simulator) newWaiter(p *Proc) *waiter {
	if w := s.freeWaiters.Take(); w != nil {
		w.p, w.fired, w.next = p, false, nil
		return w
	}
	return &waiter{p: p}
}

// freeWaiter recycles a waiter that a waker popped from its wait list.
// Timed waiters are skipped: their deadline event still references them,
// so the waiting process recycles them itself (parkTimed) once that event
// can no longer fire.
func (s *Simulator) freeWaiter(w *waiter) {
	if w.timed {
		return
	}
	w.p = nil
	s.freeWaiters.Put(w)
}

// parkTimed parks p on l until a waker pops its waiter or the deadline
// passes, whichever comes first. On return the waiter is off l and its
// deadline event has fired or is cancelled, so nothing references it and
// it goes back to the free list.
func (p *Proc) parkTimed(l *wlist, deadline Time) {
	s := p.sim
	w := s.newWaiter(p)
	w.timed = true
	l.push(w)
	timer := s.At2(deadline, waiterTimeout, w, l)
	p.park()
	timer.Cancel()
	w.timed = false
	s.freeWaiter(w)
}

// waiterTimeout is the static deadline callback armed by parkTimed: if no
// waker got there first, it wakes the process and unlinks the waiter.
func waiterTimeout(a1, a2 any) {
	if w := a1.(*waiter); w.wake() {
		a2.(*wlist).remove(w)
	}
}

// wlist is a FIFO of waiters, linked intrusively through waiter.next.
type wlist struct {
	head, tail *waiter
}

func (l *wlist) push(w *waiter) {
	if l.tail == nil {
		l.head = w
	} else {
		l.tail.next = w
	}
	l.tail = w
}

// pop unlinks and returns the oldest waiter, or nil.
func (l *wlist) pop() *waiter {
	w := l.head
	if w != nil {
		l.head = w.next
		if l.head == nil {
			l.tail = nil
		}
		w.next = nil
	}
	return w
}

// remove unlinks w, which must be on l.
func (l *wlist) remove(w *waiter) {
	if l.head == w {
		l.pop()
		return
	}
	prev := l.head
	for prev.next != w {
		prev = prev.next
	}
	prev.next = w.next
	if l.tail == w {
		l.tail = prev
	}
	w.next = nil
}

// wake resumes the waiting process if nothing woke it yet. It must be
// called from event context. It reports whether this call did the waking.
func (w *waiter) wake() bool {
	if w.fired {
		return false
	}
	w.fired = true
	w.p.sim.After(0, w.p.wakeFn)
	return true
}

// wakeOne fires the oldest waiter on l, if any.
func (s *Simulator) wakeOne(l *wlist) {
	if w := l.pop(); w != nil {
		w.wake()
		s.freeWaiter(w)
	}
}

// wakeAll fires every waiter on l in one pass: the waiting
// processes are chained through nextSched and a single event moves the
// whole chain to the ready queue in FIFO order. A broadcast that used to
// schedule one wake event per waiter (multicast ack fan-in, Queue.Close,
// Cond.Broadcast) now schedules exactly one, and the woken processes run
// back-to-back — same order as the per-waiter events produced, since
// those occupied consecutive sequence numbers that nothing could
// interleave with.
//
// When no pending event can fire at the current instant (wheel.minAt is
// past now), even that one event is skipped: the chain event would carry
// the largest sequence number at now, so it would be dispatched next in
// any case, and the chain goes straight onto the ready queue. The order
// is identical either way — procs only ever become ready through events,
// so anything that could interleave is itself an event with a larger
// sequence number, firing after the elided chain event would have. If an
// event at or before now is pending (minAt ≤ now), it may be an earlier
// batch wake that must ready its procs first, so the event path is kept.
func (s *Simulator) wakeAll(l *wlist) {
	var head, tail *Proc
	for w := l.pop(); w != nil; w = l.pop() {
		w.fired = true
		if tail == nil {
			head = w.p
		} else {
			tail.nextSched = w.p
		}
		tail = w.p
		s.freeWaiter(w)
	}
	if head == nil {
		return
	}
	tail.nextSched = nil
	if s.wheel.minAt > s.now {
		wakeChain(head, nil)
		return
	}
	s.At2(s.now, wakeChain, head, nil)
}

// wakeChain is the static batch-wake callback: it readies every proc in
// the chain built by wakeAll, preserving FIFO order.
func wakeChain(a1, _ any) {
	p := a1.(*Proc)
	s := p.sim
	for p != nil {
		next := p.nextSched
		p.nextSched = nil
		s.readyPush(p)
		p = next
	}
}
