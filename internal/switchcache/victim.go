package switchcache

import "container/heap"

// The victim index answers the detector's admission question — which
// resident key ranks coldest, ties to the smallest key — without visiting
// the whole table. It is a min-heap over the keys the switch table holds
// right now (Cache.MirrorResidents keeps the set equal to the table's
// membership), ordered by (rank, key). A resident's rank is its sketch
// estimate plus its entry's decayed switch hit count: a key the switch
// answers never reaches the sketch again, so the estimate alone would
// freeze at admission and halve away while the key stays hot (NetCache
// ranks its cached keys by their switch counters the same way).
//
// The stored ranks are lower bounds, not current values: Add only raises
// counters and a hit only raises its entry's count, so a rank computed
// earlier can only be too low. Halve and Reset — the operations that
// lower ranks — recompute every stored rank exactly and rebuild the heap.
// Halving the stored sum instead would not do: ⌊(s+h)/2⌋ can exceed
// ⌊s/2⌋+⌊h/2⌋, which would leave a stored rank above the true one.
// Coldest therefore needs to look at the top alone: it re-ranks the top
// and sifts it down until the top's stored value is exact. At that point
// every other key's true (rank, key) is at least its stored pair, which
// is above the top's, so the top is the answer the full scan would give.
// Nothing here iterates a map, so neither the answer nor the heap's
// layout depends on map order.

// victim is one resident key in the index.
type victim struct {
	key  string
	rank uint64  // lower bound on the key's rank, exact when last computed
	hits *uint64 // the resident entry's hit count; nil for a bare Track
	idx  int     // position in victimIndex.heap
}

// victimIndex implements heap.Interface over the resident keys.
type victimIndex struct {
	heap  []*victim
	byKey map[string]*victim
}

func (x *victimIndex) Len() int { return len(x.heap) }

func (x *victimIndex) Less(i, j int) bool {
	a, b := x.heap[i], x.heap[j]
	return a.rank < b.rank || (a.rank == b.rank && a.key < b.key)
}

func (x *victimIndex) Swap(i, j int) {
	x.heap[i], x.heap[j] = x.heap[j], x.heap[i]
	x.heap[i].idx, x.heap[j].idx = i, j
}

func (x *victimIndex) Push(v any) {
	e := v.(*victim)
	e.idx = len(x.heap)
	x.heap = append(x.heap, e)
}

func (x *victimIndex) Pop() any {
	last := len(x.heap) - 1
	e := x.heap[last]
	x.heap[last] = nil
	x.heap = x.heap[:last]
	return e
}

// rank is v's current rank: its estimate plus its entry's hit count.
func (s *Sketch) rank(v *victim) uint64 {
	r := uint64(s.Estimate(v.key))
	if v.hits != nil {
		r += *v.hits
	}
	return r
}

// rerank halves each tracked entry's hit count, the table's share of the
// sketch's Halve, then recomputes every stored rank exactly and rebuilds
// the heap.
func (s *Sketch) rerank() {
	x := &s.victims
	for _, v := range x.heap {
		if v.hits != nil {
			*v.hits >>= 1
		}
		v.rank = s.rank(v)
	}
	heap.Init(x)
}

// Track adds key to the victim index: the key became resident in the
// switch table. Tracking a tracked key is a no-op. A key tracked here
// ranks by its estimate alone; Cache.MirrorResidents tracks its entries
// with their hit counts.
func (s *Sketch) Track(key string) { s.track(key, nil) }

func (s *Sketch) track(key string, hits *uint64) {
	x := &s.victims
	if _, ok := x.byKey[key]; ok {
		return
	}
	v := &victim{key: key, hits: hits}
	v.rank = s.rank(v)
	x.byKey[key] = v
	heap.Push(x, v)
}

// forget empties the victim index: the table s mirrored now mirrors into
// another sketch, so s must neither name its keys nor decay their hits.
func (s *Sketch) forget() {
	s.victims = victimIndex{byKey: make(map[string]*victim)}
}

// Untrack removes key from the victim index: the key left the switch
// table. Untracking an untracked key is a no-op.
func (s *Sketch) Untrack(key string) {
	x := &s.victims
	if v, ok := x.byKey[key]; ok {
		delete(x.byKey, key)
		heap.Remove(x, v.idx)
	}
}

// Coldest returns the tracked key with the lowest rank, ties to the
// smallest key, and that rank; ("", max uint64) when nothing is tracked.
// O(1) when the top's stored rank is still exact, O(log C) per stale top
// otherwise; it allocates nothing.
func (s *Sketch) Coldest() (string, uint64) {
	x := &s.victims
	for len(x.heap) > 0 {
		top := x.heap[0]
		r := s.rank(top)
		if r == top.rank {
			return top.key, r
		}
		top.rank = r
		heap.Fix(x, 0)
	}
	return "", ^uint64(0)
}
