package switchcache

import "container/heap"

// The victim index answers the detector's admission question — which
// resident key does the sketch rank coldest, ties to the smallest key —
// without visiting the whole table. It is a min-heap over the keys the
// switch table holds right now (Cache.MirrorResidents keeps the set
// equal to the table's membership), ordered by (estimate, key).
//
// The stored estimates are lower bounds, not current values: Add only
// raises counters, so an estimate computed earlier can only be too low,
// and Halve and Reset — the two operations that lower counters — halve
// or zero the stored values alike and rebuild the heap (halving is
// monotone but not strictly so, which can reorder ties). Coldest
// therefore needs to look at the top alone: it re-estimates the top and
// sifts it down until the top's stored value is exact. At that point
// every other key's true (estimate, key) is at least its stored pair,
// which is above the top's, so the top is the answer the full scan
// would give. Nothing here iterates a map, so neither the answer nor the
// heap's layout depends on map order.

// victim is one resident key in the index.
type victim struct {
	key string
	est uint32 // lower bound on Estimate(key), exact when last computed
	idx int    // position in victimIndex.heap
}

// victimIndex implements heap.Interface over the resident keys.
type victimIndex struct {
	heap  []*victim
	byKey map[string]*victim
}

func (x *victimIndex) Len() int { return len(x.heap) }

func (x *victimIndex) Less(i, j int) bool {
	a, b := x.heap[i], x.heap[j]
	return a.est < b.est || (a.est == b.est && a.key < b.key)
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

func (x *victimIndex) halve() {
	for _, v := range x.heap {
		v.est >>= 1
	}
	heap.Init(x)
}

func (x *victimIndex) reset() {
	for _, v := range x.heap {
		v.est = 0
	}
	heap.Init(x)
}

// Track adds key to the victim index: the key became resident in the
// switch table. Tracking a tracked key is a no-op.
func (s *Sketch) Track(key string) {
	x := &s.victims
	if _, ok := x.byKey[key]; ok {
		return
	}
	v := &victim{key: key, est: s.Estimate(key)}
	x.byKey[key] = v
	heap.Push(x, v)
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

// Coldest returns the tracked key with the lowest estimate, ties to the
// smallest key, and that estimate; ("", max uint32) when nothing is
// tracked. O(1) when the top's stored estimate is still exact, O(log C)
// per stale top otherwise; it allocates nothing.
func (s *Sketch) Coldest() (string, uint32) {
	x := &s.victims
	for len(x.heap) > 0 {
		top := x.heap[0]
		est := s.Estimate(top.key)
		if est == top.est {
			return top.key, est
		}
		top.est = est
		heap.Fix(x, 0)
	}
	return "", ^uint32(0)
}
