package switchcache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// hitsOf returns a resident entry's switch hits, halved at each decay of
// the mirrored sketch (0 when not resident).
func hitsOf(c *Cache, key string) uint64 {
	if e, ok := c.entries[key]; ok {
		return e.hits
	}
	return 0
}

// scanColdest is the admission rule computed without the victim index,
// kept as the index's oracle: visit every resident key in sorted order,
// take the lowest rank — sketch estimate plus the entry's hit count —,
// ties to the smallest key.
func scanColdest(c *Cache, s *Sketch) (string, uint64) {
	victim, cold := "", ^uint64(0)
	for _, k := range c.Keys() {
		if r := uint64(s.Estimate(k)) + hitsOf(c, k); r < cold || (r == cold && (victim == "" || k < victim)) {
			victim, cold = k, r
		}
	}
	return victim, cold
}

// checkIndex verifies what Coldest relies on without calling it (Coldest
// repairs the heap, checkIndex must not): the index holds exactly the
// table's keys, every stored rank is a lower bound, and the heap order
// and back-pointers are intact.
func checkIndex(t *testing.T, c *Cache, s *Sketch) {
	t.Helper()
	x := &s.victims
	if len(x.heap) != c.Len() || len(x.byKey) != c.Len() {
		t.Fatalf("index holds %d keys (%d by key), table %d", len(x.heap), len(x.byKey), c.Len())
	}
	for i, v := range x.heap {
		if !c.Contains(v.key) {
			t.Fatalf("index tracks %q, which is not resident", v.key)
		}
		if v.idx != i || x.byKey[v.key] != v {
			t.Fatalf("index entry %q at %d has idx %d", v.key, i, v.idx)
		}
		if r := uint64(s.Estimate(v.key)) + hitsOf(c, v.key); v.rank > r {
			t.Fatalf("stored rank of %q is %d, above its true %d", v.key, v.rank, r)
		}
		if i > 0 && x.Less(i, (i-1)/2) {
			t.Fatalf("heap order broken between %d and its parent", i)
		}
	}
}

// TestVictimIndexMatchesScan drives a cache, its mirrored sketch and the
// control channel through randomized histories and requires the index to
// name the scan's victim. The key space (24 keys over an 8-entry table)
// and the sketch (2 x 8 counters) are small enough that estimates collide
// and tie constantly. Commands and gets are issued and left in flight
// across steps, so membership changes and hits land when they reach the
// switch, not when they are sent. In "every" mode the decision is
// compared after every step; in "sparse" mode only now and then, so that
// stored ranks go stale several layers deep before the next repair.
func TestVictimIndexMatchesScan(t *testing.T) {
	const steps = 12000
	for seed := int64(1); seed <= 4; seed++ {
		for _, mode := range []string{"every", "sparse"} {
			t.Run(fmt.Sprintf("seed%d-%s", seed, mode), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Capacity = 8
				r := newRig(t, cfg)
				s := NewSketch(2, 8)
				rng := rand.New(rand.NewSource(seed))
				keys := make([]string, 24)
				for i := range keys {
					keys[i] = fmt.Sprintf("k%02d", i)
				}
				// Start from a half-full table so the mirror has to seed.
				for _, k := range keys[:4] {
					r.cache.InstallAs(0, k, "v", 10, 1)
				}
				r.run(t)
				r.cache.MirrorResidents(s)

				ver := uint64(1)
				decisions := 0
				for step := 0; step < steps; step++ {
					k := keys[rng.Intn(len(keys))]
					switch op := rng.Intn(100); {
					case op < 35: // a sampled miss
						s.Add(k)
					case op < 45: // a get; of a resident key it is a hit
						r.sendGet(k)
					case op < 60: // install; of a resident key it is a duplicate
						r.cache.InstallAs(0, k, "v", 10, ver)
					case op < 70: // evict; of a non-resident key it is a no-op
						r.cache.EvictAs(0, k)
					case op < 82: // a put's write-through
						ver++
						r.cache.Invalidate(k, ver)
					case op < 94: // the control channel drains
						r.run(t)
					default:
						s.Halve()
					}
					checkIndex(t, r.cache, s)
					if mode == "every" || rng.Intn(16) == 0 {
						decisions++
						gotKey, gotRank := s.Coldest()
						wantKey, wantRank := scanColdest(r.cache, s)
						if gotKey != wantKey || gotRank != wantRank {
							t.Fatalf("step %d: index says (%q, %d), scan says (%q, %d)", step, gotKey, gotRank, wantKey, wantRank)
						}
					}
				}
				st := r.cache.Stats()
				if st.Installs < 100 || st.Evictions < 100 || st.Invalidations < 100 || st.Hits < 200 || decisions < 500 {
					t.Fatalf("history too thin to mean anything: %+v, %d decisions", st, decisions)
				}
			})
		}
	}
}

// admission is the steady state the detector lives in on a skewed read
// workload, shared by the zero-alloc test and the benchmark: a full
// C-entry table over a zipfian key space 8x its size, about 2.4 sampled
// misses per admission decision (12 per 5), a sketch halving every 16384
// decisions, and the victim replaced whenever the candidate is hotter.
type admission struct {
	c      *Cache
	s      *Sketch
	keys   []string
	stream []int32 // precomputed zipfian sample stream, indices into keys
	pos    int
	n      int
}

func newAdmission(t testing.TB, capacity int) *admission {
	cfg := DefaultConfig()
	cfg.Capacity = capacity
	a := &admission{c: newRig(t, cfg).cache, s: NewSketch(4, 1024)}
	a.keys = make([]string, 8*capacity)
	for i := range a.keys {
		a.keys[i] = fmt.Sprintf("user%d", i)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := workload.NewZipfian(len(a.keys))
	a.stream = make([]int32, 1<<16)
	for i := range a.stream {
		a.stream[i] = int32(zipf.Next(rng))
	}
	a.c.MirrorResidents(a.s)
	for _, k := range a.keys[len(a.keys)-capacity:] { // fill with the cold tail
		a.c.add(k, &entry{})
	}
	return a
}

// nextMiss draws the next sampled key: a get of a resident key is a hit
// at the switch and never reaches the detector.
func (a *admission) nextMiss() string {
	for {
		k := a.keys[a.stream[a.pos]]
		a.pos = (a.pos + 1) % len(a.stream)
		if !a.c.Contains(k) {
			return k
		}
	}
}

// decide runs one admission decision, preceded by its share of samples;
// coldest is the victim choice under test.
func (a *admission) decide(coldest func() (string, uint64)) {
	samples := 2 + (a.n%5)/3 // 2, 2, 2, 3, 3
	a.n++
	if a.n%16384 == 0 {
		a.s.Halve()
	}
	var cand string
	for i := 0; i < samples; i++ {
		cand = a.nextMiss()
		a.s.Add(cand)
	}
	if victim, cold := coldest(); cold < uint64(a.s.Estimate(cand)) {
		a.c.remove(victim, a.c.entries[victim])
		a.c.add(cand, a.c.newEntry())
	}
}

// TestAdmissionDecisionZeroAlloc: at a full 512-entry table a decision —
// samples and victim choice — allocates nothing.
func TestAdmissionDecisionZeroAlloc(t *testing.T) {
	a := newAdmission(t, 512)
	for i := 0; i < 20000; i++ { // let the table reach its churning steady state
		a.decide(a.s.Coldest)
	}
	var victim string
	if avg := testing.AllocsPerRun(5000, func() {
		for i := 0; i < 3; i++ {
			a.s.Add(a.nextMiss())
		}
		victim, _ = a.s.Coldest()
	}); avg != 0 {
		t.Fatalf("%.2f allocs per decision, want 0", avg)
	}
	if want, _ := scanColdest(a.c, a.s); victim != want {
		t.Fatalf("index victim %q, scan victim %q", victim, want)
	}
}

// BenchmarkCacheAdmission reports the host cost of one admission
// decision (ns/op = ns/decision) at three table sizes, for the victim
// index and, for reference, for the scan it replaced.
func BenchmarkCacheAdmission(b *testing.B) {
	for _, capacity := range []int{64, 512, 4096} {
		for _, impl := range []string{"index", "scan"} {
			b.Run(fmt.Sprintf("%s/C=%d", impl, capacity), func(b *testing.B) {
				a := newAdmission(b, capacity)
				coldest := a.s.Coldest
				if impl == "scan" {
					coldest = func() (string, uint64) { return scanColdest(a.c, a.s) }
				}
				for i := 0; i < 4*capacity; i++ {
					a.decide(coldest)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.decide(coldest)
				}
			})
		}
	}
}

// TestHitsDecayWithTheMirroredSketchOnly: a resident's switch hits count
// toward its rank and halve with the sketch the table mirrors into; once
// the mirror passes to another sketch (a takeover), the old one forgets
// the table and its decay leaves the live counts alone.
func TestHitsDecayWithTheMirroredSketchOnly(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.install(t, "hot", "v", 10, 1)
	old, cur := NewSketch(2, 8), NewSketch(2, 8)
	r.cache.MirrorResidents(old)
	for i := 0; i < 7; i++ {
		r.sendGet("hot")
	}
	r.run(t)
	if key, rank := old.Coldest(); key != "hot" || rank != 7 || hitsOf(r.cache, "hot") != 7 {
		t.Fatalf("after 7 hits: coldest (%q, %d), hits %d", key, rank, hitsOf(r.cache, "hot"))
	}
	old.Halve()
	if got := hitsOf(r.cache, "hot"); got != 3 {
		t.Fatalf("hits after the mirrored sketch's decay = %d, want 3", got)
	}
	r.cache.MirrorResidents(cur)
	old.Halve()
	if got := hitsOf(r.cache, "hot"); got != 3 {
		t.Fatalf("the superseded sketch's decay halved the live hits to %d", got)
	}
	if key, _ := old.Coldest(); key != "" {
		t.Fatalf("the superseded sketch still names %q", key)
	}
	cur.Halve()
	if key, rank := cur.Coldest(); key != "hot" || rank != 1 || hitsOf(r.cache, "hot") != 1 {
		t.Fatalf("after the current sketch's decay: coldest (%q, %d), hits %d", key, rank, hitsOf(r.cache, "hot"))
	}
}
