package workload

import "math"

// OpenLoop schedules request arrivals for a fleet of virtual clients in
// open-loop fashion: each client fires with exponential (Poisson)
// inter-arrival gaps regardless of whether earlier requests completed, so
// offered load never degrades to the closed-loop one-outstanding-op
// pattern under server slowdown. It is the arrival half of the traffic
// engine — sim-free and deterministic, so the same seed replays the same
// arrival sequence everywhere.
//
// The implementation is a calendar ring sized to the truncation cap on a
// single gap. A client is always in exactly one bucket, so buckets are
// intrusive chains through two flat int32 arrays — head (per bucket) and
// next (per client) — and per-client PRNG state is one uint64 in a flat
// slice. Nothing is ever appended or resized: after construction the
// engine allocates zero bytes regardless of fleet size or run length.
// Serving a tick walks the chain and re-files each client by pushing it
// onto its next bucket's chain; within a tick clients therefore fire in
// reverse filing order, which is as deterministic as any other.
type OpenLoop struct {
	mean float64  // mean inter-arrival gap per client, ns
	tick int64    // calendar bucket width, ns
	cap  int64    // truncation cap on one gap, ns (8x mean)
	rng  []uint64 // per-client PRNG state
	head []int32  // per-bucket chain head: client index, or -1
	next []int32  // per-client chain link
	mask int64    // len(head)-1; ring length is a power of two
	cur  int64    // absolute tick index the next Tick call serves
}

// NewOpenLoop builds the arrival schedule for `clients` virtual clients
// with the given mean inter-arrival gap per client, batching arrivals
// into ticks of the given width (both in virtual nanoseconds). Gaps are
// truncated at 8x the mean (probability e^-8 ≈ 3e-4, negligible rate
// bias) so the calendar ring stays bounded; gaps under one tick round up,
// so a single client fires at most once per tick and the offered rate
// per client is capped at 1/tick. Initial arrivals draw a full
// exponential gap, so the aggregate process is Poisson from t=0.
func NewOpenLoop(clients int, mean, tick int64, seed int64) *OpenLoop {
	if tick <= 0 || mean < tick {
		panic("workload: open-loop mean gap must be at least one tick")
	}
	o := &OpenLoop{
		mean: float64(mean),
		tick: tick,
		cap:  8 * mean,
		rng:  make([]uint64, clients),
		next: make([]int32, clients),
		cur:  1, // tick 0 is never served: first arrivals land at tick >= 1
	}
	ringLen := int64(2)
	for ringLen < o.cap/tick+2 {
		ringLen *= 2
	}
	o.head = make([]int32, ringLen)
	o.mask = ringLen - 1
	for b := range o.head {
		o.head[b] = -1
	}
	for c := range o.rng {
		// splitmix64 of (seed, client) decorrelates per-client streams.
		o.rng[c] = splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(c) + 1)
		// The first gap is a full exponential draw, like every later one:
		// the process is memoryless, so anything else (say, a uniform
		// stagger) would bias the arrival count over the first mean gap.
		gap := int64(-o.mean * math.Log(1-o.u01(int32(c))))
		if gap > o.cap {
			gap = o.cap
		}
		o.file(int32(c), int64(1)+gap/tick)
	}
	return o
}

// file pushes client c onto the chain of the bucket for absolute tick at.
func (o *OpenLoop) file(c int32, at int64) {
	b := at & o.mask
	o.next[c] = o.head[b]
	o.head[b] = c
}

// Tick serves the next tick's arrival batch: fn is called once per
// arriving client, and each served client is re-filed at its next
// arrival. It returns the batch size. The caller owns pacing — the
// traffic engine calls Tick once per elapsed tick of virtual time.
func (o *OpenLoop) Tick(fn func(client int32)) int {
	b := o.cur & o.mask
	c := o.head[b]
	o.head[b] = -1
	n := 0
	for c >= 0 {
		nx := o.next[c] // read before re-filing overwrites the link
		fn(c)
		gap := int64(-o.mean * math.Log(1-o.u01(c)))
		if gap > o.cap {
			gap = o.cap
		}
		o.file(c, o.cur+1+gap/o.tick) // at least one full tick ahead
		n++
		c = nx
	}
	o.cur++
	return n
}

// u01 draws the client's next uniform in [0, 1) from its xorshift64*
// stream.
func (o *OpenLoop) u01(c int32) float64 {
	x := o.rng[c]
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	o.rng[c] = x
	return float64((x*0x2545f4914f6cdd1d)>>11) / (1 << 53)
}

// splitmix64 is the one-shot seeding hash (same constants as
// cluster.DeriveSeed).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
