package sim

// Gather is one leader/joiner batch, the rule the commit batch, the
// prepare gather and WAL group commit share (DESIGN.md §16.1). The first
// caller opens it and leads; while its owner keeps it open, later callers
// Join and park; the leader's one charged action covers them all, and its
// End wakes them. The owner closes it to new joiners by dropping its
// reference, so Gather has no branch for any one caller.
//
// The leader and each joiner hold the gather until they leave it, the
// leader in End and a joiner as its Join returns, and the last to leave
// puts it back on its free list. Recycling at End would strand a joiner
// End woke but that has not yet resumed: it would find the gather open
// again and never wake. A holder Simulator.Shutdown unwinds never leaves,
// so its gather is dropped.
type Gather[T any] struct {
	// Val is the owner's payload. It survives recycling, so a slice in it
	// keeps its array; the leader resets what it reads.
	Val     T
	sim     *Simulator
	pool    *Free[Gather[T]]
	waiters wlist
	holders int
	ended   bool
}

// OpenGather opens a gather led by the caller, reusing one from free.
func OpenGather[T any](s *Simulator, free *Free[Gather[T]]) *Gather[T] {
	g := free.Take()
	if g == nil {
		g = &Gather[T]{sim: s, pool: free}
	}
	g.holders, g.ended = 1, false
	return g
}

// Join parks p on g until it ends, then leaves it.
func (g *Gather[T]) Join(p *Proc) {
	g.holders++
	for !g.ended {
		g.waiters.push(g.sim.newWaiter(p))
		p.park()
	}
	g.leave()
}

// Ended reports whether g has ended, by its leader or by Wake.
func (g *Gather[T]) Ended() bool { return g.ended }

// Wake ends g for its joiners without leaving it: a crash tears a batch
// its leader still holds, whose End then only leaves.
func (g *Gather[T]) Wake() {
	if !g.ended {
		g.ended = true
		g.sim.wakeAll(&g.waiters)
	}
}

// End is the leader's: it wakes the joiners, unless Wake did, and leaves.
func (g *Gather[T]) End() {
	g.Wake()
	g.leave()
}

func (g *Gather[T]) leave() {
	if g.holders--; g.holders == 0 {
		g.pool.Put(g)
	}
}
