package sim

// Queue is an unbounded FIFO mailbox carrying values of type T between
// processes (or from event callbacks into processes). It is the basic
// communication primitive of the kernel: sockets, timers and protocol
// mailboxes are all built on it.
//
// The item buffer is a slice drained by a moving head index (reset when it
// empties, so capacity is reused) and blocked processes wait on pooled
// intrusive list nodes, which together make the steady-state
// push/pop handoff allocation-free.
//
// Queue is not safe for use outside the simulation's single-threaded
// discipline; that is by design.
type Queue[T any] struct {
	sim     *Simulator
	items   []T
	head    int // items[:head] are consumed
	waiters wlist
	closed  bool
}

// NewQueue returns an empty queue bound to s.
func NewQueue[T any](s *Simulator) *Queue[T] {
	return &Queue[T]{sim: s}
}

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v and wakes the oldest waiting process, if any. It never
// blocks and may be called from event callbacks or processes. Pushes to
// a closed queue are dropped (teardown races are expected in protocol
// code).
func (q *Queue[T]) Push(v T) {
	if q.closed {
		return
	}
	q.items = append(q.items, v)
	q.sim.wakeOne(&q.waiters)
}

// Close marks the queue closed: blocked and future Pops return ok=false
// once the buffer drains, and later pushes are dropped. All waiters are
// released by one batch-wake event.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.sim.wakeAll(&q.waiters)
}

// take removes and returns the oldest buffered item; the buffer must be
// non-empty. Draining the last item resets the slice so its capacity is
// reused by later pushes.
func (q *Queue[T]) take() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release the reference for the GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Pop blocks p until an item is available and returns it. ok is false when
// the queue was closed and drained.
func (q *Queue[T]) Pop(p *Proc) (v T, ok bool) {
	for q.Len() == 0 {
		if q.closed {
			return v, false
		}
		q.waiters.push(q.sim.newWaiter(p))
		p.park()
	}
	return q.take(), true
}

// PopTimeout is Pop with a deadline d from now. ok is false on timeout or
// close.
func (q *Queue[T]) PopTimeout(p *Proc, d Time) (v T, ok bool) {
	if q.Len() > 0 {
		return q.take(), true
	}
	if q.closed || d <= 0 {
		return v, false
	}
	deadline := p.sim.Now() + d
	for {
		p.parkTimed(&q.waiters, deadline)
		if q.Len() > 0 {
			return q.take(), true
		}
		if q.closed || p.sim.Now() >= deadline {
			return v, false
		}
		// Spurious wakeup (an earlier waker lost the race); wait again.
	}
}

// TryPop removes and returns an item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.take(), true
}

// Reset returns the queue to its fresh state for reuse: buffered items
// are dropped (their buffer's capacity kept) and a closed queue reopens.
// It panics if a process is parked on the queue — only the queue's last
// reader may recycle it.
func (q *Queue[T]) Reset() {
	if q.waiters.head != nil {
		panic("sim: Queue.Reset with a parked waiter")
	}
	clear(q.items)
	q.items, q.head, q.closed = q.items[:0], 0, false
}

// Future is a write-once value that processes can await. It is the
// rendezvous for request/reply protocols.
type Future[T any] struct {
	sim     *Simulator
	value   T
	set     bool
	waiters wlist
}

// NewFuture returns an unresolved future bound to s.
func NewFuture[T any](s *Simulator) *Future[T] {
	return &Future[T]{sim: s}
}

// Set resolves the future and wakes all waiters with one batch-wake
// event (the fan-in pattern: many processes awaiting one reply). Resolving
// twice panics: it would indicate a protocol bug.
func (f *Future[T]) Set(v T) {
	if f.set {
		panic("sim: Future resolved twice")
	}
	f.value = v
	f.set = true
	f.sim.wakeAll(&f.waiters)
}

// Done reports whether the future is resolved.
func (f *Future[T]) Done() bool { return f.set }

// Reset returns the future to its pending state for reuse. It panics if a
// process is parked on the future — only its last waiter may recycle it.
func (f *Future[T]) Reset() {
	if f.waiters.head != nil {
		panic("sim: Future.Reset with a parked waiter")
	}
	var zero T
	f.value, f.set = zero, false
}

// Value returns the resolved value; it panics if the future is pending.
func (f *Future[T]) Value() T {
	if !f.set {
		panic("sim: Future.Value on pending future")
	}
	return f.value
}

// WaitTimeout blocks p until the future resolves, for at most d from
// now, and returns the value; ok is false on timeout.
func (f *Future[T]) WaitTimeout(p *Proc, d Time) (v T, ok bool) {
	if f.set {
		return f.value, true
	}
	if d <= 0 {
		return v, false
	}
	deadline := p.sim.Now() + d
	for {
		p.parkTimed(&f.waiters, deadline)
		if f.set {
			return f.value, true
		}
		if p.sim.Now() >= deadline {
			return v, false
		}
	}
}

// Group counts outstanding work, like a sync.WaitGroup for processes.
type Group struct {
	sim     *Simulator
	n       int
	waiters wlist
}

// NewGroup returns a group with zero outstanding work.
func NewGroup(s *Simulator) *Group { return &Group{sim: s} }

// Add adds delta (which may be negative) to the counter. The counter going
// negative panics.
func (g *Group) Add(delta int) {
	g.n += delta
	if g.n < 0 {
		panic("sim: negative Group counter")
	}
	if g.n == 0 {
		g.sim.wakeAll(&g.waiters)
	}
}

// Done decrements the counter by one.
func (g *Group) Done() { g.Add(-1) }

// Wait blocks p until the counter is zero.
func (g *Group) Wait(p *Proc) {
	for g.n != 0 {
		g.waiters.push(g.sim.newWaiter(p))
		p.park()
	}
}

// Cond is a condition variable for processes: Wait parks until a later
// Broadcast. There is no associated lock — the simulation's
// single-threaded discipline replaces it — so the idiom is simply to
// re-check the guarded predicate after every Wait.
type Cond struct {
	sim     *Simulator
	waiters wlist
}

// NewCond returns a condition variable bound to s.
func NewCond(s *Simulator) *Cond { return &Cond{sim: s} }

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(c.sim.newWaiter(p))
	p.park()
}

// WaitTimeout is Wait with a deadline d from now.
func (c *Cond) WaitTimeout(p *Proc, d Time) {
	p.parkTimed(&c.waiters, p.sim.Now()+d)
}

// Broadcast wakes every waiting process with one batch-wake event; the
// waiters run back-to-back in FIFO order off the ready queue.
func (c *Cond) Broadcast() { c.sim.wakeAll(&c.waiters) }
