// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock over a priority queue of events.
// Protocol code runs inside coroutine-style processes (Proc): at most one
// process executes at any instant, and processes only yield at explicit
// blocking points (Sleep, Queue.Pop, Future.WaitTimeout, ...). Event
// ordering is a total order on (time, sequence number), so a simulation
// with a fixed seed is fully reproducible.
//
// The kernel is the substrate for the packet-level network simulator in
// package netsim and, transitively, for every experiment in this
// repository. Experiments schedule millions of events per figure cell, so
// the kernel recycles fired event structs on a free list instead of
// allocating one per callback; Event handles carry a generation number so
// a stale Cancel on a recycled event is a no-op.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp, measured as a duration since the start of
// the simulation.
type Time = time.Duration

// event is a scheduled callback. Fired and cancelled events return to the
// simulator's free list; gen distinguishes incarnations so that a stale
// Event handle cannot cancel an unrelated reuse.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  func()
	// fn2/arg1/arg2 are the closure-free form used by At2: the callback is
	// a static function and its context rides in the event struct.
	fn2        func(a1, a2 any)
	arg1, arg2 any
	sim        *Simulator // owner; set once when the struct is allocated
	gen        uint32     // incremented each time the struct is recycled
	// Where the event sits while scheduled, kept by the wheel so Cancel can
	// unlink it in O(1): lvl is the wheel level (inFront = the front
	// cache), slot the bucket within the level, pos the index in the
	// bucket's event list.
	pos  int32
	lvl  int8
	slot uint8
}

// maxFreeEvents bounds the event free list so a burst (a figure cell's
// warm-up) does not pin memory for the rest of the run.
const maxFreeEvents = 4096

// maxFreeProcs bounds the spawn pool: exited processes beyond this many
// end their coroutines instead of idling for re-arm.
const maxFreeProcs = 1024

// Simulator owns the virtual clock, the event queue, and the set of live
// processes. The zero value is not usable; create one with New.
type Simulator struct {
	now         Time
	wheel       timerWheel
	seq         uint64
	rng         *rand.Rand
	handoff     *Proc // successor named by the proc that just yielded to drive
	parked      *Proc // intrusive doubly-linked list of parked procs
	readyHead   *Proc // FIFO of woken procs awaiting their turn
	readyTail   *Proc
	freeProcs   Free[Proc]   // exited procs whose coroutines await re-arm (Spawn pool)
	free        Free[event]  // recycled event structs
	freeWaiters Free[waiter] // recycled wait-list nodes (see newWaiter)
	nprocs      int
	fail        error // first process failure, stops the run
	limit       Time  // 0 = no limit
	bound       Time  // precomputed per-run stop time: until, limit, or maxTime
	untilActive bool
	stopped     bool
}

// maxTime is the largest virtual timestamp; it stands in for "no bound" so
// the dispatch loop needs just one comparison per event.
const maxTime = Time(1<<63 - 1)

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	s := &Simulator{rng: rand.New(rand.NewSource(seed))}
	s.free.Max = maxFreeEvents
	s.freeProcs.Max = maxFreeProcs
	s.wheel.init()
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source. It must only
// be used from event callbacks and processes (never concurrently).
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// newEvent takes an event struct off the free list (or allocates one) and
// initializes it for scheduling.
func (s *Simulator) newEvent(t Time, fn func()) *event {
	s.seq++
	if e := s.free.Take(); e != nil {
		e.at = t
		e.seq = s.seq
		e.fn = fn
		return e
	}
	return &event{at: t, seq: s.seq, fn: fn, sim: s}
}

// freeEvent recycles a fired or cancelled event. Bumping gen invalidates
// any outstanding Event handles; dropping fn/args releases captured
// references.
func (s *Simulator) freeEvent(e *event) {
	e.fn = nil
	e.fn2 = nil
	e.arg1, e.arg2 = nil, nil
	e.gen++
	s.free.Put(e)
}

// fire advances the clock to e, recycles it, and runs its callback. The
// callback and arguments are copied out first: recycling before the call
// is safe (gen already advanced) and lets the callback schedule freely.
func (s *Simulator) fire(e *event) {
	s.now = e.at
	fn, fn2, a1, a2 := e.fn, e.fn2, e.arg1, e.arg2
	s.freeEvent(e)
	if fn2 != nil {
		fn2(a1, a2)
		return
	}
	fn()
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would violate causality. The returned Event can be cancelled.
// It is returned by value so the hot path stays allocation-free.
func (s *Simulator) At(t Time, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := s.newEvent(t, fn)
	s.wheel.push(e)
	return Event{e: e, gen: e.gen}
}

// After schedules fn to run d from now.
func (s *Simulator) After(d Time, fn func()) Event {
	return s.At(s.now+d, fn)
}

// At2 schedules fn(a1, a2) at absolute time t. Unlike At, the callback is
// a static function whose context rides in the event struct, so per-packet
// scheduling (link delivery, switch pipelines) allocates nothing. Pointer
// arguments convert to `any` without allocating.
func (s *Simulator) At2(t Time, fn func(a1, a2 any), a1, a2 any) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := s.newEvent(t, nil)
	e.fn2 = fn
	e.arg1, e.arg2 = a1, a2
	s.wheel.push(e)
	return Event{e: e, gen: e.gen}
}

// Event is a handle on a scheduled callback. The generation captured at
// scheduling time makes Cancel safe to call after the event has fired and
// its struct has been recycled. The zero Event cancels as a no-op, so a
// struct field holding one needs no separate "armed" flag.
type Event struct {
	e   *event
	gen uint32
}

// Cancel prevents the event from firing: it is unlinked from the event
// queue and its struct recycled at once, so a cancelled timer costs
// nothing after this call. Cancelling an already-fired or
// already-cancelled event (or the zero Event) is a no-op.
func (ev *Event) Cancel() {
	e := ev.e
	if e == nil || ev.gen != e.gen {
		return
	}
	e.sim.wheel.remove(e)
	e.sim.freeEvent(e)
}

// procFailure carries a panic out of a process coroutine.
type procFailure struct {
	proc *Proc
	val  any
}

func (f procFailure) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", f.proc.name, f.val)
}

// readyPush appends p to the ready queue: p stops being parked and will
// run, in FIFO order, before the scheduler fires any further event.
func (s *Simulator) readyPush(p *Proc) {
	s.removeParked(p)
	p.nextSched = nil
	if s.readyTail == nil {
		s.readyHead = p
	} else {
		s.readyTail.nextSched = p
	}
	s.readyTail = p
}

// readyPop unlinks and returns the oldest ready proc, or nil.
func (s *Simulator) readyPop() *Proc {
	p := s.readyHead
	if p == nil {
		return nil
	}
	s.readyHead = p.nextSched
	if s.readyHead == nil {
		s.readyTail = nil
	}
	p.nextSched = nil
	return p
}

// dispatch is the scheduler loop, run by whoever holds the scheduler role
// (the Run caller or the one executing process); it fires due events until
// a process becomes ready — returned to the caller, which transfers control
// to it — or the current run is done (nil). Ready processes run before any
// further event fires: an event that wakes several processes (wakeAll)
// queues them all and they execute back-to-back in FIFO order.
func (s *Simulator) dispatch() *Proc {
	for {
		if p := s.readyPop(); p != nil {
			return p
		}
		if s.fail != nil || s.stopped || s.wheel.n == 0 {
			return nil
		}
		e := s.wheel.popBound(s.bound)
		if e == nil {
			// The earliest event lies beyond the bound; it stays queued.
			if !s.untilActive {
				s.now = s.limit // Run hit SetLimit: clock lands on the limit
			}
			return nil
		}
		s.fire(e)
	}
}

// drive drains the simulation from the caller's goroutine. It is the root
// trampoline of every process coroutine: it resumes the process dispatch
// returned, and when that process yields or exits, the process has already
// drained the wheel itself and left the next one to run in s.handoff (nil
// once the run is done), so the root only ever relays.
func (s *Simulator) drive() {
	for q := s.dispatch(); q != nil; q = s.handoff {
		q.next()
	}
}

// Run executes events until the queue is empty, the time limit (if any set
// with SetLimit) is reached, or a process panics. It returns the first
// process failure, or nil.
//
// Hitting the limit leaves the offending event in the queue, so a later
// Run or RunUntil (after raising the limit) still sees it.
//
// Processes that are still blocked when Run returns remain parked; call
// Shutdown to reap their coroutines.
func (s *Simulator) Run() error {
	s.stopped = false
	s.untilActive = false
	if s.limit > 0 {
		s.bound = s.limit
	} else {
		s.bound = maxTime
	}
	s.drive()
	return s.fail
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// It returns the first process failure, or nil. Like Run, it honors Stop:
// a Stop call from inside an event ends the pass after that event.
func (s *Simulator) RunUntil(t Time) error {
	s.stopped = false
	s.bound = t
	s.untilActive = true
	s.drive()
	s.untilActive = false
	if s.fail == nil && t > s.now {
		s.now = t
	}
	return s.fail
}

// SetLimit makes Run stop once the clock would pass t. Zero removes the
// limit.
func (s *Simulator) SetLimit(t Time) { s.limit = t }

// Stop makes Run return after the current event. Deployments with
// periodic processes (heartbeats) never drain their event queue; a driver
// calls Stop when its workload is done.
func (s *Simulator) Stop() { s.stopped = true }

// Pending reports the number of scheduled events; a cancelled event stops
// counting the moment it is cancelled. The wheel maintains the count, so
// this stays O(1).
func (s *Simulator) Pending() int { return s.wheel.n }

// addParked links p into the parked list.
func (s *Simulator) addParked(p *Proc) {
	p.parkNext = s.parked
	p.parkPrev = nil
	if s.parked != nil {
		s.parked.parkPrev = p
	}
	s.parked = p
	p.isParked = true
}

// removeParked unlinks p from the parked list if present.
func (s *Simulator) removeParked(p *Proc) {
	if !p.isParked {
		return
	}
	if p.parkPrev != nil {
		p.parkPrev.parkNext = p.parkNext
	} else {
		s.parked = p.parkNext
	}
	if p.parkNext != nil {
		p.parkNext.parkPrev = p.parkPrev
	}
	p.parkNext, p.parkPrev = nil, nil
	p.isParked = false
}

// Shutdown terminates every parked process (spawned-but-unstarted ones
// included) and every pooled idle coroutine, so no goroutine outlives it:
// each is resumed with its kill flag set, unwinds, and has ended by the
// time next returns. Call it between runs, never from inside one. The
// simulator must not be used afterward.
func (s *Simulator) Shutdown() {
	for s.parked != nil {
		p := s.parked
		s.removeParked(p)
		p.kill = true
		p.next()
	}
	for p := s.freeProcs.Take(); p != nil; p = s.freeProcs.Take() {
		p.kill = true
		p.next()
	}
	s.fail = nil
}
