package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file implements the kernel's event queue as a hierarchical timer
// wheel. The binary heap it replaced (eventHeap, kept in wheel_test.go as
// the differential-test oracle) made every schedule and dispatch O(log n)
// in the pending-event count. The wheel makes both O(1) amortized: an
// insert is two shifts, a bitmap OR and an append (plus a few compares at
// level 0); a pop is two TrailingZeros scans and a slice index; a cancel
// is a swap-remove at the position the event records.
//
// Shape: wheelLevels levels of wheelSlots buckets each. A level-L bucket
// spans 2^(bucketBits+6L) ns of virtual time: 4.096 µs at level 0, the
// full 63-bit Time range at the top. An event at absolute time t files
// under the level of the highest 6-bit field (above the low bucketBits) in
// which t differs from the wheel cursor `cur`, at index
// (t >> (bucketBits+6L)) & 63 — absolute indexing, no modular wrap.
// Level 0 therefore takes everything due within 2^18 ns (262 µs) of the
// cursor's window, and its buckets are kept in dispatch order, so such an
// event is filed once and popped from where it was filed. Far-future
// events sit in coarse buckets until dispatch reaches them, then cascade
// toward level 0, each re-filing strictly downward (after the cursor
// advances to the bucket's start, the remaining difference is confined to
// lower fields).
//
// Determinism: dispatch order must stay bit-identical to the heap's
// total order on (at, seq). Two facts make the scan order-correct:
//
//   - cur is a lower bound on every scheduled event's time. It only
//     advances to the start of the bucket holding the current minimum,
//     and only when that start is within the run's bound. Every queued
//     event is live (remove unlinks a cancelled one), so the scan that
//     moved the cursor ends by firing an event at or after it or by
//     setting the clock to the bound: user code never observes cur > now
//     and causality keeps inserts at or after it. Under that invariant an
//     event's level strictly identifies the highest field where it
//     exceeds cur, hence the lowest non-empty level's lowest-index bucket
//     always holds the global minimum.
//   - Within a level-0 bucket events[head:] is sorted by (at, seq), so its
//     head is that minimum. An insert that belongs within nearTail places
//     of the end is shifted into place; one that belongs further up (a
//     cascade dropping old events in, a same-instant wake behind a long
//     bucket) and a cancel (which fills its hole with the bucket's last
//     event) set `unsorted`, and the first pop after that sorts the
//     bucket. Coarser buckets have no order to keep.
const (
	wheelBits  = 6
	wheelSlots = 1 << wheelBits // 64 buckets per level
	wheelMask  = wheelSlots - 1
	// bucketBits sets the level-0 bucket width, 2^12 ns. The delays a
	// packet meets are 2 µs (switch), 5 µs (propagation) and 12 µs (one
	// MTU at 1 Gbps): at this width all of them land inside level 0's
	// 262 µs reach while a bucket still holds only a handful of events.
	bucketBits  = 12
	wheelLevels = 9 // 12 + 6*9 = 66 bits ≥ the 63-bit Time range
	// nearTail bounds the in-place insertion walk, so filing a burst in
	// descending time order costs one sort, not a quadratic shuffle.
	nearTail = 8
	// bucketCap is the capacity init gives every bucket: room for a
	// same-instant burst (a flood's seven clones), so a run grows no
	// bucket it reaches from nothing, whichever level a burst files in.
	bucketCap = 8

	inFront = -1 // event.lvl of the event held in the front cache
)

// before is the dispatch order: the total order on (at, seq).
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// wheelBucket is one slot's event list. head and unsorted are only
// meaningful at level 0, where buckets are drained in place: events[:head]
// have been popped, events[head:] are pending, and unsorted marks an
// insert or a cancel having broken dispatch order. Capacity is reused
// across activations.
type wheelBucket struct {
	events   []*event
	head     int
	unsorted bool
}

// timerWheel is the simulator's event queue.
type timerWheel struct {
	// next caches the earliest event outside any bucket. The kernel's
	// dominant pattern — schedule one timer, pop it moments later
	// (Sleep, packet delivery) — then costs a pointer swap instead of a
	// bucket round trip and cascade. Invariant: when non-nil, next
	// orders before every bucket event, and the cursor has not moved
	// since next was filed (popping buckets is what advances it), so a
	// displaced next can always re-file legally.
	next *event
	// cur is the scan cursor: a lower bound on every scheduled event's
	// timestamp. All bitmap indices are interpreted relative to its
	// high-order fields.
	cur Time
	// n counts scheduled events (including next), so Pending() is O(1).
	n int
	// minAt is a conservative lower bound on the earliest pending event
	// (maxTime when empty). wakeAll uses minAt > now as a cheap proof
	// that no event can fire at the current instant, and push uses
	// e.at < minAt as a cheap proof that e is the new minimum.
	minAt Time
	// summary bit L is set iff occupied[L] != 0; occupied[L] bit i is set
	// iff buckets[L][i] holds events.
	summary  uint32
	occupied [wheelLevels]uint64
	buckets  [wheelLevels][wheelSlots]wheelBucket
}

// init empties the wheel and gives every bucket its first bucketCap slots
// out of one array. A burst crossing a coarse boundary of the cursor files
// into a coarser bucket, so carving only the levels nearly every timer
// passes through would still grow each coarse bucket a run reaches.
func (w *timerWheel) init() {
	w.minAt = maxTime
	slots := make([]*event, wheelLevels*wheelSlots*bucketCap)
	for lvl := range wheelLevels {
		for i := range w.buckets[lvl] {
			at := (lvl*wheelSlots + i) * bucketCap
			w.buckets[lvl][i].events = slots[at : at : at+bucketCap]
		}
	}
}

// level returns the wheel level for an event at absolute time t: the
// 6-bit field of the highest bit in which t differs from the cursor. The
// OR-ed bit folds every difference inside level 0's span onto level 0.
func (w *timerWheel) level(t Time) int {
	return (bits.Len64(uint64(t^w.cur)|1<<(bucketBits+wheelBits-1)) - 1 - bucketBits) / wheelBits
}

// shift returns the bit position of level lvl's bucket index.
func shift(lvl int) uint { return bucketBits + uint(lvl)*wheelBits }

// push files e, parking it in the front cache when it is provably the new
// minimum: the buckets are empty, e beats the conservative minAt bound, or
// e beats the cached minimum directly (which then re-files into the
// buckets — legal because the cursor never moves while the cache is
// occupied). Everything else goes through pushBucket.
func (w *timerWheel) push(e *event) {
	if nx := w.next; nx == nil {
		if e.at < w.minAt || w.summary == 0 {
			w.next = e
			e.lvl = inFront
			w.n++
			if e.at < w.minAt {
				w.minAt = e.at
			}
			return
		}
	} else if e.at < nx.at {
		w.next = e
		e.lvl = inFront
		if e.at < w.minAt {
			w.minAt = e.at
		}
		e = nx // pushBucket's count covers the net one-event growth
	}
	w.pushBucket(e)
}

// pushBucket files e into its bucket. Scheduling before the cursor would
// break the scan-order invariant; causality (At panics on t < now) plus the
// bounded cursor advance make it unreachable, so it is a hard failure.
func (w *timerWheel) pushBucket(e *event) {
	if e.at < w.cur {
		panic(fmt.Sprintf("sim: wheel insert at %v before cursor %v", e.at, w.cur))
	}
	lvl := w.level(e.at)
	idx := int(e.at>>shift(lvl)) & wheelMask
	b := &w.buckets[lvl][idx]
	i := len(b.events)
	b.events = append(b.events, e)
	if lvl == 0 && !b.unsorted {
		for stop := i - nearTail; i > b.head && e.before(b.events[i-1]); i-- {
			if i == stop {
				b.unsorted = true // belongs further up: leave it to the sort
				break
			}
			b.events[i] = b.events[i-1]
			b.events[i].pos = int32(i)
		}
		b.events[i] = e
	}
	e.lvl, e.slot, e.pos = int8(lvl), uint8(idx), int32(i)
	w.occupied[lvl] |= 1 << idx
	w.summary |= 1 << lvl
	w.n++
	if e.at < w.minAt {
		w.minAt = e.at
	}
}

// bucketStart returns the absolute time at which bucket idx of level lvl
// begins: the cursor's fields above lvl, idx in field lvl, zeros below.
// At the top level the shifted mask overflows to "keep nothing", which is
// exactly right.
func (w *timerWheel) bucketStart(lvl, idx int) Time {
	sh := shift(lvl)
	return Time(uint64(w.cur)&^(uint64(1)<<(sh+wheelBits)-1) | uint64(idx)<<sh)
}

// popBound removes and returns the earliest event if its time is at most
// bound, cascading coarse buckets toward level 0 as needed. It returns
// nil — leaving the queue untouched beyond already-safe cursor advances —
// when the wheel is empty or the earliest event lies beyond bound. The
// front cache, when occupied, IS the minimum, so the common case is a
// pointer swap with no bucket traffic at all.
func (w *timerWheel) popBound(bound Time) *event {
	if e := w.next; e != nil {
		if e.at > bound {
			return nil
		}
		w.next = nil
		w.n--
		w.refreshMin()
		return e
	}
	return w.popBucket(bound)
}

// popBucket is the bucket-scan slow path of popBound: it finds the lowest
// pending bucket via the occupancy bitmaps, cascading coarse levels toward
// level 0 until the minimum heads a sorted bucket.
func (w *timerWheel) popBucket(bound Time) *event {
	for {
		if w.summary == 0 {
			return nil
		}
		lvl := bits.TrailingZeros32(w.summary)
		idx := bits.TrailingZeros64(w.occupied[lvl])
		if lvl > 0 {
			start := w.bucketStart(lvl, idx)
			if start > bound {
				return nil
			}
			w.cascade(lvl, idx, start)
			continue
		}
		b := &w.buckets[0][idx]
		if b.unsorted {
			slices.SortFunc(b.events[b.head:], func(a, c *event) int {
				if a.before(c) {
					return -1
				}
				return 1
			})
			for i := b.head; i < len(b.events); i++ {
				b.events[i].pos = int32(i)
			}
			b.unsorted = false
		}
		e := b.events[b.head]
		if e.at > bound {
			return nil
		}
		b.events[b.head] = nil
		b.head++
		if b.head == len(b.events) {
			w.emptied(0, idx)
		}
		w.n--
		w.refreshMin()
		return e
	}
}

// emptied resets bucket (lvl, idx), whose last pending event just left,
// and clears its occupancy bits.
func (w *timerWheel) emptied(lvl, idx int) {
	b := &w.buckets[lvl][idx]
	b.events = b.events[:0]
	b.head = 0
	b.unsorted = false
	w.occupied[lvl] &^= 1 << idx
	if w.occupied[lvl] == 0 {
		w.summary &^= 1 << lvl
	}
}

// remove unlinks a scheduled event (Event.Cancel) from wherever it sits.
// A bucket's hole is filled with its last event: above level 0 order
// within a bucket means nothing, at level 0 the unsorted bit restores it
// on the next pop. The cursor does not move, and minAt stays a lower
// bound: the front-cache event's time while there is one, recomputed
// from the bitmaps otherwise.
func (w *timerWheel) remove(e *event) {
	w.n--
	if e.lvl == inFront {
		w.next = nil
		w.refreshMin()
		return
	}
	lvl, idx := int(e.lvl), int(e.slot)
	b := &w.buckets[lvl][idx]
	last := len(b.events) - 1
	if pos := int(e.pos); pos != last {
		moved := b.events[last]
		b.events[pos] = moved
		moved.pos = e.pos
		b.unsorted = true
	}
	b.events[last] = nil
	b.events = b.events[:last]
	if last == b.head {
		w.emptied(lvl, idx)
	}
	if w.next == nil {
		w.refreshMin()
	}
}

// cascade redistributes bucket (lvl, idx) after advancing the cursor to
// its start. Every event re-files at a strictly lower level: with the
// cursor now sharing fields lvl and above with each event, their highest
// differing field is below lvl.
func (w *timerWheel) cascade(lvl, idx int, start Time) {
	w.cur = start
	evs := w.buckets[lvl][idx].events
	w.emptied(lvl, idx)
	w.n -= len(evs) // pushBucket re-counts
	for i, e := range evs {
		// pushBucket, not push: diverting the minimum into the front cache
		// mid-scan would hide it from popBucket's bitmap walk.
		w.pushBucket(e)
		evs[i] = nil // drop the stale reference in the reused backing array
	}
}

// refreshMin recomputes the minAt lower bound after a pop or a cancel (its
// callers have the front cache empty, so buckets are everything): the
// exact next timestamp when the lowest pending bucket is a sorted level-0
// one, else that bucket's start (below every event in it), else maxTime.
func (w *timerWheel) refreshMin() {
	if w.summary == 0 {
		w.minAt = maxTime
		return
	}
	lvl := bits.TrailingZeros32(w.summary)
	idx := bits.TrailingZeros64(w.occupied[lvl])
	if b := &w.buckets[0][idx]; lvl == 0 && !b.unsorted {
		w.minAt = b.events[b.head].at
		return
	}
	w.minAt = w.bucketStart(lvl, idx)
}
