package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// eventHeap is a min-heap ordered by (at, seq). It was the production
// event queue before the timer wheel and is kept as the executable oracle
// for the randomized wheel-vs-heap differential test: its (at, seq) total
// order defines the dispatch order the wheel must reproduce bit-for-bit.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// wheelEmpty reports whether nothing at all is left in w: no front-cache
// event, a zero count, every occupancy bitmap clear and every bucket reset.
func wheelEmpty(w *timerWheel) bool {
	if w.next != nil || w.n != 0 || w.summary != 0 || w.minAt != maxTime {
		return false
	}
	for lvl := range w.buckets {
		if w.occupied[lvl] != 0 {
			return false
		}
		for i := range w.buckets[lvl] {
			if b := &w.buckets[lvl][i]; len(b.events) != 0 || b.head != 0 {
				return false
			}
		}
	}
	return true
}

// wheelDiff drives a timer wheel and the retained eventHeap oracle side by
// side, following the dispatch loop's discipline: the clock only advances
// to popped events or drain bounds, and inserts are never in the past.
type wheelDiff struct {
	t   *testing.T
	w   timerWheel
	h   eventHeap
	seq uint64
	now Time

	scheduled, popped, cancelled int
	cancelledAt                  [wheelLevels + 1]int // by level; last = front cache
}

func (d *wheelDiff) push(at Time) {
	d.seq++
	e := &event{at: at, seq: d.seq}
	d.w.push(e)
	heap.Push(&d.h, e)
	d.scheduled++
}

// cancel removes the oracle's i-th event from both queues.
func (d *wheelDiff) cancel(i int) {
	e := heap.Remove(&d.h, i).(*event)
	if e.lvl == inFront {
		d.cancelledAt[wheelLevels]++
	} else {
		d.cancelledAt[e.lvl]++
	}
	d.w.remove(e)
	d.cancelled++
}

// popOne pops both structures and cross-checks; it reports false when the
// wheel says nothing is due by bound.
func (d *wheelDiff) popOne(bound Time) bool {
	t := d.t
	we := d.w.popBound(bound)
	if we == nil {
		if d.h.Len() > 0 && d.h[0].at <= bound {
			t.Fatalf("wheel dry at bound %d, heap still holds (at=%d seq=%d)",
				bound, d.h[0].at, d.h[0].seq)
		}
		return false
	}
	he := heap.Pop(&d.h).(*event)
	if we != he {
		t.Fatalf("pop mismatch: wheel (at=%d seq=%d) vs heap (at=%d seq=%d)",
			we.at, we.seq, he.at, he.seq)
	}
	if we.at > bound {
		t.Fatalf("wheel popped at=%d beyond bound %d", we.at, bound)
	}
	if d.w.cur > we.at {
		t.Fatalf("cursor %d passed the event it popped (at=%d)", d.w.cur, we.at)
	}
	d.now = we.at
	d.popped++
	return true
}

// drainTo pops everything due by bound and lands the clock on it, as
// RunUntil does.
func (d *wheelDiff) drainTo(bound Time) {
	for d.popOne(bound) {
	}
	d.now = bound
}

// check asserts the invariants that hold between any two operations.
func (d *wheelDiff) check(i int) {
	t := d.t
	if d.w.n != d.h.Len() {
		t.Fatalf("iter %d: wheel count %d != heap len %d", i, d.w.n, d.h.Len())
	}
	if d.w.cur > d.now {
		t.Fatalf("iter %d: cursor %d ahead of the clock %d", i, d.w.cur, d.now)
	}
	if d.h.Len() > 0 && d.w.minAt > d.h[0].at {
		t.Fatalf("iter %d: minAt %d exceeds the pending minimum %d", i, d.w.minAt, d.h[0].at)
	}
}

// finish drains both queues and checks nothing was lost.
func (d *wheelDiff) finish() {
	t := d.t
	for d.popOne(maxTime) {
	}
	if !wheelEmpty(&d.w) || d.h.Len() != 0 {
		t.Fatalf("final drain left wheel=%d heap=%d", d.w.n, d.h.Len())
	}
	if d.popped+d.cancelled != d.scheduled {
		t.Fatalf("popped %d + cancelled %d of %d scheduled", d.popped, d.cancelled, d.scheduled)
	}
	t.Logf("differential: %d scheduled, %d popped, %d cancelled (by level, front cache last: %v)",
		d.scheduled, d.popped, d.cancelled, d.cancelledAt)
	if total := d.scheduled + d.popped + d.cancelled; total < 100000 {
		t.Fatalf("workload too small for the differential claim: %d ops", total)
	}
}

// TestWheelHeapDifferential asserts that the wheel pops the exact same
// event structs in the exact same order the heap's (at, seq) total order
// defines, that a cancel removes the event from both at once, and that
// cur ≤ now and minAt ≤ the true minimum hold throughout.
//
// spread: delay magnitudes span every wheel level, so cascades, the bound
// cutoff and removal from the front cache and from every level are all
// exercised. clustered: thousands of events share one level-0 bucket —
// equal times, descending times, inserts into the bucket being drained,
// cancels from its middle, drain bounds that fall inside it — which is
// where the in-place insertion and the lazy sort decide the order.
func TestWheelHeapDifferential(t *testing.T) {
	t.Run("spread", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		d := &wheelDiff{t: t}
		d.w.init()
		// Delay scales: same-instant wakes through multi-hour timers and a
		// two-week one, at least one per wheel level up to topLvl.
		const topBit = 50
		const topLvl = (topBit - bucketBits) / wheelBits
		scales := []Time{0, 1, 63, 1 << 6, 1 << 12, 1 << 18, 1 << 24, 1 << 30,
			1 << 36, 1 << 42, 1 << 48, 1 << topBit, Time(3 * time.Hour)}
		delta := func() Time {
			s := scales[rng.Intn(len(scales))]
			if s == 0 {
				return 0
			}
			return s + Time(rng.Int63n(int64(s)+1))
		}
		for i := 0; i < 60000; i++ {
			switch r := rng.Float64(); {
			case r < 0.55: // schedule a burst
				for k := rng.Intn(4) + 1; k > 0; k-- {
					d.push(d.now + delta())
				}
			case r < 0.65: // cancel something: it leaves both queues
				if d.h.Len() > 0 {
					d.cancel(rng.Intn(d.h.Len()))
				}
			case r < 0.85: // unbounded drain of a few events
				for k := rng.Intn(6) + 1; k > 0 && d.popOne(maxTime); k-- {
				}
			default: // bounded drain, mimicking RunUntil: clock lands on the bound
				d.drainTo(d.now + delta())
			}
			d.check(i)
		}
		d.finish()
		for lvl, n := range d.cancelledAt[:topLvl+1] {
			if n == 0 {
				t.Fatalf("no cancel ever hit level %d", lvl)
			}
		}
		if d.cancelledAt[wheelLevels] == 0 {
			t.Fatal("no cancel ever hit the front cache")
		}
	})

	t.Run("clustered", func(t *testing.T) {
		const width = Time(1) << bucketBits
		rng := rand.New(rand.NewSource(11))
		d := &wheelDiff{t: t}
		d.w.init()
		deepest, sorts := 0, 0
		for i := 0; i < 400; i++ {
			// Fill one bucket — the one being drained, or one a few ahead.
			lo := d.now
			if ahead := Time(rng.Intn(4)); ahead > 0 {
				lo = (d.now>>bucketBits + ahead) << bucketBits
			}
			room := int64(width - lo&(width-1)) // ns left in lo's bucket
			n := 50 + rng.Intn(1000)
			for k := 0; k < n; k++ {
				switch i % 4 {
				case 0: // one instant: seq alone orders them
					d.push(lo)
				case 1: // descending: every insert belongs at the head
					d.push(lo + Time(int64(n-1-k)*room/int64(n)))
				case 2: // ascending with ties: every insert belongs at the tail
					d.push(lo + Time(int64(k/3)*room/int64(n)))
				default:
					d.push(lo + Time(rng.Int63n(room)))
				}
			}
			d.check(i)
			b := &d.w.buckets[0][int(lo>>bucketBits)&wheelMask]
			deepest = max(deepest, len(b.events)-b.head)

			// Drain part of it, inserting behind the head and at the tail of
			// the bucket being drained, and cancelling from its middle.
			for k := rng.Intn(n); k > 0; k-- {
				if b.unsorted {
					sorts++
				}
				if !d.popOne(maxTime) {
					break
				}
				switch rng.Intn(8) {
				case 0:
					d.push(d.now) // same-instant wake
				case 1:
					d.push(d.now + Time(rng.Int63n(int64(width))))
				case 2:
					d.push(d.now | (width - 1)) // the bucket's last instant
				case 3:
					if d.h.Len() > 2 {
						d.cancel(1 + rng.Intn(d.h.Len()-1))
					}
				}
			}
			d.check(i)
			if i%3 == 0 { // a RunUntil bound that falls inside a bucket
				d.drainTo(d.now + Time(rng.Int63n(int64(width))))
				d.check(i)
			}
		}
		d.finish()
		t.Logf("deepest bucket %d events, %d pops found it unsorted", deepest, sorts)
		if deepest < 2000 || sorts == 0 {
			t.Fatalf("clustered mode never built a deep bucket (%d) or never sorted one (%d)", deepest, sorts)
		}
		if d.cancelledAt[0] == 0 {
			t.Fatal("no cancel ever hit a level-0 bucket")
		}
	})
}

// TestWheelDenseBucketIsNotQuadratic files 10^5 events into one level-0
// bucket in descending time order — the worst case for insertion from the
// tail — then drains it with one insert per pop, as a busy link does. The
// budget is on comparisons, counted by what causes them. An insert may
// make nearTail+1 and no more: had the filing walked each event to its
// place (5·10^9 steps) the bucket would come out of it sorted, so it must
// come out unsorted. A pop that finds the bucket unsorted pays one
// n·log n sort: the drain may need that one and no other, where a wheel
// that re-sorted per insert would need 10^5.
func TestWheelDenseBucketIsNotQuadratic(t *testing.T) {
	const n = 100000
	const width = Time(1) << bucketBits
	var w timerWheel
	w.init()
	var seq uint64
	push := func(at Time) {
		seq++
		w.push(&event{at: at, seq: seq})
	}
	push(0) // holds the front cache, so everything below files into the bucket
	for k := n - 1; k >= 0; k-- {
		push(width + Time(int64(k)*int64(width)/n))
	}
	b := &w.buckets[0][1]
	if len(b.events) != n || !b.unsorted {
		t.Fatalf("bucket holds %d of %d events, unsorted=%v", len(b.events), n, b.unsorted)
	}
	w.popBound(maxTime)
	sorts := 0
	var last *event
	for i := 0; i < n; i++ {
		if b.unsorted {
			sorts++
		}
		e := w.popBound(maxTime)
		if last != nil && !last.before(e) {
			t.Fatalf("pop %d out of order: (at=%d seq=%d) after (at=%d seq=%d)", i, e.at, e.seq, last.at, last.seq)
		}
		last = e
		// Alternate the two inserts a delivery causes: the next hop three
		// buckets on, and a follow-up at the end of the bucket being drained.
		if i%2 == 0 {
			push(e.at + 3*width)
		} else {
			push(e.at | (width - 1))
		}
	}
	if sorts != 1 {
		t.Fatalf("draining one dense bucket sorted it %d times", sorts)
	}
	for w.popBound(maxTime) != nil {
	}
	if !wheelEmpty(&w) {
		t.Fatalf("wheel not empty: n=%d", w.n)
	}
}

// TestWheelSameInstantSeqOrder forces the cascade-after-direct-insert
// inversion: an old small-seq event parked in a coarse bucket must still
// pop before a newer event at the same timestamp that was filed directly
// into the level-0 bucket.
func TestWheelSameInstantSeqOrder(t *testing.T) {
	w := &timerWheel{}
	w.init()
	const T = Time(1<<18 + 37)
	early := &event{at: T, seq: 1} // filed coarse: cur is 0
	w.push(early)
	mid := &event{at: T - 100, seq: 2}
	w.push(mid)
	// Drain up to T-1: cascades both events toward level 0 and pops mid,
	// leaving `early` resident in the level-0 bucket for T.
	if e := w.popBound(T - 1); e != mid {
		t.Fatalf("expected mid event first, got %+v", e)
	}
	if e := w.popBound(T - 1); e != nil {
		t.Fatalf("expected nothing else before T, got %+v", e)
	}
	late := &event{at: T, seq: 3}
	w.push(late)
	if e := w.popBound(T); e != early {
		t.Fatalf("expected seq 1 before seq 3 at the shared instant, got seq %d", e.seq)
	}
	if e := w.popBound(T); e != late {
		t.Fatalf("expected seq 3 second, got %+v", e)
	}
	if w.n != 0 {
		t.Fatalf("wheel not empty: %d", w.n)
	}
}

// TestWheelFarFutureBound checks that a bound-limited scan against a far
// event neither pops it nor advances the cursor past the bound, so later
// inserts between now and the event stay schedulable.
func TestWheelFarFutureBound(t *testing.T) {
	w := &timerWheel{}
	w.init()
	far := &event{at: Time(time.Hour), seq: 1}
	w.push(far)
	if e := w.popBound(Time(time.Millisecond)); e != nil {
		t.Fatalf("bound-limited pop returned %+v", e)
	}
	if w.cur > Time(time.Millisecond) {
		t.Fatalf("cursor %d advanced past the bound", w.cur)
	}
	near := &event{at: Time(2 * time.Millisecond), seq: 2}
	w.push(near) // must not panic: cursor stayed at or below the bound
	if e := w.popBound(maxTime); e != near {
		t.Fatalf("expected near event first, got seq %d", e.seq)
	}
	if e := w.popBound(maxTime); e != far {
		t.Fatalf("expected far event second, got %+v", e)
	}
}

// TestWheelMinAtBound checks the minAt lower bound wakeAll relies on: it
// must never exceed the true minimum, and must go back to maxTime when
// the wheel drains.
func TestWheelMinAtBound(t *testing.T) {
	w := &timerWheel{}
	w.init()
	if w.minAt != maxTime {
		t.Fatalf("empty wheel minAt = %d", w.minAt)
	}
	evs := []*event{
		{at: 5, seq: 1}, {at: 5, seq: 2}, {at: 700, seq: 3}, {at: Time(time.Second), seq: 4},
	}
	for _, e := range evs {
		w.push(e)
	}
	for _, want := range evs {
		if w.minAt > want.at {
			t.Fatalf("minAt %d exceeds pending minimum %d", w.minAt, want.at)
		}
		if e := w.popBound(maxTime); e != want {
			t.Fatalf("expected seq %d, got seq %d", want.seq, e.seq)
		}
	}
	if w.minAt != maxTime {
		t.Fatalf("drained wheel minAt = %d", w.minAt)
	}
}

// TestCancelledTimerDoesNotMoveCursor: a cancelled timer that outlives the
// last live event used to stay queued, drag the cursor to its own bucket
// when the run drained it, and leave the clock behind — so the second
// schedule after that Run panicked ("wheel insert at 22µs before cursor
// 5ms"). A cancelled event now leaves the wheel, so nothing can move the
// cursor past an instant the clock does not reach.
func TestCancelledTimerDoesNotMoveCursor(t *testing.T) {
	s := New(1)
	var order []Time
	note := func() { order = append(order, s.Now()) }
	s.After(time.Microsecond, note)
	ev := s.After(5*time.Millisecond, func() { t.Error("cancelled timer fired") })
	s.After(2*time.Microsecond, ev.Cancel)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 2*time.Microsecond || s.wheel.cur > s.Now() {
		t.Fatalf("after the run: now %v, cursor %v", s.Now(), s.wheel.cur)
	}
	s.After(10*time.Microsecond, note)
	s.After(20*time.Microsecond, note)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{time.Microsecond, 12 * time.Microsecond, 22 * time.Microsecond}
	if !slices.Equal(order, want) {
		t.Fatalf("fired at %v, want %v", order, want)
	}
}

// TestCancelLeavesNothingInWheel arms 10^5 timers spread over the front
// cache and the five lowest wheel levels, cancels them all in shuffled order —
// some twice, one after it fired, one through a handle whose struct has
// been recycled into a newer timer — and checks the wheel is as empty as
// a new one: nothing pending, no occupancy bit, and a Run that fires
// nothing and moves neither the clock nor the cursor.
func TestCancelLeavesNothingInWheel(t *testing.T) {
	const timers = 100000
	s := New(1)
	rng := rand.New(rand.NewSource(3))
	fired := 0
	count := func(_, _ any) { fired++ }

	early := s.At2(time.Microsecond, count, nil, nil)
	if err := s.Run(); err != nil || fired != 1 {
		t.Fatalf("warm-up: fired %d, err %v", fired, err)
	}
	early.Cancel() // after it fired: no-op
	fired = 0

	// One bit position per timer, drawn from inside level 0's reach up to
	// the top of level topLvl's field: the level a timer files at follows
	// from the geometry constants, not from a number written here.
	const topLvl = 4
	handles := make([]Event, timers)
	var levels [wheelLevels]int
	front := 0
	for i := range handles {
		sh := uint(wheelBits) + uint(rng.Intn(int(shift(topLvl+1))-wheelBits))
		handles[i] = s.At2(s.Now()+Time(1)<<sh+Time(rng.Int63n(1<<sh)), count, nil, nil)
	}
	for _, ev := range handles {
		if ev.e.lvl == inFront {
			front++
		} else {
			levels[ev.e.lvl]++
		}
	}
	for lvl := 0; lvl <= topLvl; lvl++ {
		if levels[lvl] == 0 {
			t.Fatalf("no timer on level %d (by level: %v)", lvl, levels)
		}
	}
	if front != 1 || s.Pending() != timers {
		t.Fatalf("front cache holds %d, pending %d", front, s.Pending())
	}

	rng.Shuffle(len(handles), func(i, j int) { handles[i], handles[j] = handles[j], handles[i] })
	for i := range handles {
		handles[i].Cancel()
		if i%7 == 0 {
			handles[rng.Intn(i+1)].Cancel() // double cancel: no-op
		}
		if s.Pending() != timers-i-1 {
			t.Fatalf("after %d cancels: pending %d", i+1, s.Pending())
		}
	}
	if !wheelEmpty(&s.wheel) {
		t.Fatalf("wheel not empty: n=%d summary=%b", s.wheel.n, s.wheel.summary)
	}

	// A stale handle must not reach the timer that reuses its struct.
	stale := s.At2(s.Now()+time.Second, count, nil, nil)
	stale.Cancel()
	fresh := s.At2(s.Now()+time.Millisecond, count, nil, nil)
	if fresh.e != stale.e {
		t.Fatal("the free list did not hand the last cancelled struct back")
	}
	stale.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("stale handle cancelled the struct's new timer: pending %d", s.Pending())
	}
	fresh.Cancel()

	now, cur := s.Now(), s.wheel.cur
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 || s.Now() != now || s.wheel.cur != cur || !wheelEmpty(&s.wheel) {
		t.Fatalf("run over cancelled timers: fired %d, now %v→%v, cursor %v→%v",
			fired, now, s.Now(), cur, s.wheel.cur)
	}

	if a := testing.AllocsPerRun(1000, func() {
		ev := s.At2(s.Now()+5*time.Millisecond, count, nil, nil)
		ev.Cancel()
	}); a != 0 {
		t.Fatalf("arm+cancel allocates %v per round", a)
	}
}

// TestWheelCancelKeepsSameInstantOrder: removing from the middle of a
// level-0 bucket fills the hole with the bucket's last event; the events
// left must still pop in seq order.
func TestWheelCancelKeepsSameInstantOrder(t *testing.T) {
	w := &timerWheel{}
	w.init()
	w.push(&event{at: 1, seq: 1}) // takes the front cache
	evs := make([]*event, 6)
	for i := range evs {
		evs[i] = &event{at: 5, seq: uint64(i + 2)}
		w.push(evs[i])
	}
	w.remove(evs[1])
	w.popBound(maxTime) // seq 1; the bucket is now the whole wheel
	if e := w.popBound(maxTime); e != evs[0] {
		t.Fatalf("expected seq 2 first, got seq %d", e.seq)
	}
	w.remove(evs[3]) // with the bucket partly drained
	for _, want := range []*event{evs[2], evs[4], evs[5]} {
		if e := w.popBound(maxTime); e != want {
			t.Fatalf("expected seq %d, got seq %d", want.seq, e.seq)
		}
	}
	if !wheelEmpty(w) {
		t.Fatalf("wheel not empty: n=%d", w.n)
	}
}
