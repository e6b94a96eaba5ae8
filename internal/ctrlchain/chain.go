// Package ctrlchain replicates the controller's coordination state
// across a chain of switch-resident state stores, after NetChain
// (arXiv 1802.08236). Writes enter at the head and propagate hop by
// hop to the tail, which acks; reads are served from the tail alone,
// sub-RTT, because the chain invariant (every store holds a superset
// of its successor) makes the tail the committed prefix. A fail-stop
// replica is detected by probing, spliced out of the chain, and the
// survivors re-converge by copying state down from the head-most
// store; the chain epoch is bumped on every splice and reads are
// refused while a repair is in flight, so a healing chain never
// serves a pre-failure view. Writer generations (Acquire) fence
// zombie controllers: a write stamped with a generation below the
// newest acquired one is rejected at the head.
//
// The chain is modeled on the simulator the same way switchcache
// models the data-plane cache: hops are sim.After delays, not
// packets, which keeps the replication protocol deterministic and
// cheap while preserving its timing shape.
package ctrlchain

import (
	"sort"
	"time"

	"repro/internal/sim"
)

// The chain geometry and its failure detector: three switch-resident
// stores, as in NetChain.
const (
	// Replicas is the chain length (head..tail).
	Replicas = 3
	// HopDelay is the one-hop propagation delay between adjacent chain
	// stores (and the head's ingress delay).
	HopDelay = 50 * time.Microsecond
	// ProbeEvery is the failure-detector probe period.
	ProbeEvery = time.Millisecond
	// MissedProbes is how many consecutive probes a store must miss
	// before it is spliced out.
	MissedProbes = 2
	// CopyDelay is the base latency of the repair state copy from the
	// surviving replica (in-flight writes are also drained, so the total
	// repair window is CopyDelay plus a chain traversal).
	CopyDelay = 200 * time.Microsecond
)

// Entry is one replicated key. Ver must be monotonic per key across
// all writers (the controller composes writer generation and a
// sequence number), so a delayed duplicate or a post-repair flush can
// never roll a key back.
type Entry struct {
	Key string
	Ver uint64
	Val any
}

// Stats counts chain traffic and repair activity.
type Stats struct {
	Writes       int64 // accepted writes (propagated or buffered)
	Fenced       int64 // writes rejected for a stale writer generation
	Buffered     int64 // writes queued while a repair was in flight
	Acked        int64 // writes that reached the tail
	Dropped      int64 // hop deliveries abandoned at a dead store
	Reads        int64 // tail reads served
	ReadsBlocked int64 // reads refused mid-repair
	Repairs      int64 // splices of a dead store
	Rejoins      int64 // revived stores re-added at the tail
}

// store is one switch-resident replica of the coordination state.
type store struct {
	idx  int
	down bool
	miss int
	data map[string]Entry
}

func (st *store) apply(e Entry) {
	if old, ok := st.data[e.Key]; ok && old.Ver > e.Ver {
		return // delayed duplicate from an older chain pass
	}
	st.data[e.Key] = e
}

type pendingWrite struct {
	gen  uint64
	e    Entry
	done func(bool)
}

// Chain is the replicated state store. All methods must be called
// from simulator context; the chain owns no goroutines besides its
// probe proc.
type Chain struct {
	s      *sim.Simulator
	stores []*store
	order  []int // live chain, head first, tail last
	epoch  uint64
	gen    uint64
	// repairing is true from fail-stop detection (or a revive) until
	// the splice's state copy lands; reads are refused and writes
	// buffered for the whole window.
	repairing bool
	pending   []pendingWrite
	stats     Stats
}

// New builds a chain of Replicas stores and starts its failure detector.
func New(s *sim.Simulator) *Chain {
	c := &Chain{s: s, epoch: 1}
	for i := 0; i < Replicas; i++ {
		c.stores = append(c.stores, &store{idx: i, data: make(map[string]Entry)})
		c.order = append(c.order, i)
	}
	s.Spawn("ctrlchain-probe", c.monitor)
	return c
}

// Acquire hands out the next writer generation. The controller calls
// it once at startup; a promoted standby calls it again, and from
// that moment every write stamped with an older generation is fenced.
func (c *Chain) Acquire() uint64 {
	c.gen++
	return c.gen
}

// Live returns the number of stores currently in the chain.
func (c *Chain) Live() int { return len(c.order) }

// Stats returns a snapshot of the chain counters.
func (c *Chain) Stats() Stats { return c.stats }

// Write replicates e down the chain. It reports synchronously whether
// the write was accepted (fence check); done, if non-nil, fires when
// the tail acks or the write is fenced. A write accepted while a
// repair is in flight is buffered and flushed, in order, once the
// chain heals.
func (c *Chain) Write(gen uint64, e Entry, done func(ok bool)) bool {
	if gen < c.gen {
		c.stats.Fenced++
		if done != nil {
			done(false)
		}
		return false
	}
	c.stats.Writes++
	if c.repairing || len(c.order) == 0 {
		c.stats.Buffered++
		c.pending = append(c.pending, pendingWrite{gen, e, done})
		return true
	}
	path := append([]int(nil), c.order...)
	c.propagate(path, 0, e, done)
	return true
}

// propagate delivers e to path[i] after one hop delay and chains the
// next hop. Delivery to a store that died mid-flight is abandoned:
// the repair's state copy from the surviving upstream replica
// restores the chain invariant for everything the dead store missed.
func (c *Chain) propagate(path []int, i int, e Entry, done func(bool)) {
	c.s.After(HopDelay, func() {
		st := c.stores[path[i]]
		if st.down {
			c.stats.Dropped++
			return
		}
		st.apply(e)
		if i+1 < len(path) {
			c.propagate(path, i+1, e, done)
			return
		}
		c.stats.Acked++
		if done != nil {
			done(true)
		}
	})
}

// Snapshot returns every entry held by the tail, sorted by key for
// determinism. ok is false while a repair is in flight — a healing
// chain never serves a (possibly pre-failure) view.
func (c *Chain) Snapshot() ([]Entry, bool) {
	if c.repairing || len(c.order) == 0 {
		c.stats.ReadsBlocked++
		return nil, false
	}
	c.stats.Reads++
	tail := c.stores[c.order[len(c.order)-1]]
	out := make([]Entry, 0, len(tail.data))
	for _, e := range tail.data {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, true
}

// SetDown fail-stops (or revives) chain store idx. This is the fault
// hook: the store drops hop deliveries immediately; the probe loop
// notices after MissedProbes periods and splices it out.
func (c *Chain) SetDown(idx int, down bool) {
	if idx < 0 || idx >= len(c.stores) {
		return
	}
	c.stores[idx].down = down
	if !down {
		c.stores[idx].miss = 0
	}
}

func (c *Chain) inOrder(idx int) bool {
	for _, i := range c.order {
		if i == idx {
			return true
		}
	}
	return false
}

// monitor is the fail-stop detector: every ProbeEvery it probes all
// stores, splicing out a live-chain member that missed MissedProbes
// consecutive probes and rejoining a revived store at the tail.
func (c *Chain) monitor(p *sim.Proc) {
	for {
		p.Sleep(ProbeEvery)
		for _, st := range c.stores {
			live := c.inOrder(st.idx)
			switch {
			case st.down && live:
				st.miss++
				if st.miss >= MissedProbes {
					c.splice(st.idx)
				}
			case !st.down && !live:
				c.rejoin(st.idx)
			default:
				st.miss = 0
			}
		}
	}
}

// splice removes a dead store, bumps the chain epoch and schedules
// the neighbor repair: after the in-flight writes drain and the copy
// delay elapses, the head-most survivor (which holds a superset of
// every successor) pushes its state down the remaining chain.
func (c *Chain) splice(dead int) {
	if c.repairing {
		return // one repair at a time; the probe loop re-triggers
	}
	c.repairing = true
	c.epoch++
	c.stats.Repairs++
	out := c.order[:0]
	for _, i := range c.order {
		if i != dead {
			out = append(out, i)
		}
	}
	c.order = out
	c.stores[dead].miss = 0
	drain := HopDelay * sim.Time(len(c.order)+1)
	c.s.After(CopyDelay+drain, func() {
		if len(c.order) > 0 {
			src := c.stores[c.order[0]]
			for _, i := range c.order[1:] {
				c.stores[i].data = cloneData(src.data)
			}
		}
		c.repairing = false
		c.flush()
	})
}

// rejoin re-adds a revived store at the tail: it first receives a
// copy of the current tail's state (exactly the acked prefix), so the
// chain invariant holds the moment it starts serving. The epoch bump
// and the repairing window fence out anything it held pre-crash.
func (c *Chain) rejoin(idx int) {
	if c.repairing {
		return
	}
	c.repairing = true
	c.epoch++
	c.stats.Rejoins++
	drain := HopDelay * sim.Time(len(c.order)+1)
	c.s.After(CopyDelay+drain, func() {
		if c.stores[idx].down {
			// Died again while the copy was in flight; abandon the
			// rejoin and let the probe loop sort it out.
			c.repairing = false
			c.flush()
			return
		}
		if len(c.order) > 0 {
			tail := c.stores[c.order[len(c.order)-1]]
			c.stores[idx].data = cloneData(tail.data)
		}
		c.order = append(c.order, idx)
		c.repairing = false
		c.flush()
	})
}

// flush replays the writes buffered during a repair, in arrival
// order, re-checking the writer fence (a generation may have been
// acquired while the chain healed).
func (c *Chain) flush() {
	pend := c.pending
	c.pending = nil
	for _, w := range pend {
		if w.gen < c.gen {
			c.stats.Fenced++
			if w.done != nil {
				w.done(false)
			}
			continue
		}
		if c.repairing || len(c.order) == 0 {
			c.stats.Buffered++
			c.pending = append(c.pending, w)
			continue
		}
		path := append([]int(nil), c.order...)
		c.propagate(path, 0, w.e, w.done)
	}
}

func cloneData(m map[string]Entry) map[string]Entry {
	out := make(map[string]Entry, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
