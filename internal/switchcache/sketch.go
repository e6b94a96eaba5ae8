package switchcache

// Sketch is a count-min sketch with conservative update: the frequency
// estimator the hot-key detector runs over sampled cache-miss keys
// (NetCache keeps the same structure in switch registers for uncached
// keys). Conservative update only raises the counters that equal the
// current minimum, which tightens the overestimate under skew — exactly
// the regime a hot-key detector lives in.
//
// The sketch also carries the detector's victim index (victim.go): the
// set of keys resident in the switch table, ordered by their ranks
// (estimate plus switch hits). It lives here rather than in the detector
// because every operation that can lower a rank — Halve and Reset — has
// to repair it, and those are reachable by anyone holding the sketch.
type Sketch struct {
	rows, cols int
	counts     [][]uint32
	victims    victimIndex
}

// sketchSeeds salt the row hash functions; fixed so two simulations with
// equal inputs produce equal sketches (the determinism tests rely on it).
var sketchSeeds = [...]uint64{
	0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0x2545f4914f6cdd1d,
	0xd6e8feb86659fd93, 0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0x8ebc6af09c88c6e3,
}

// NewSketch builds a rows x cols sketch; rows is capped by the number of
// built-in hash seeds.
func NewSketch(rows, cols int) *Sketch {
	if rows < 1 {
		rows = 1
	}
	if rows > len(sketchSeeds) {
		rows = len(sketchSeeds)
	}
	if cols < 1 {
		cols = 1
	}
	s := &Sketch{rows: rows, cols: cols}
	s.victims.byKey = make(map[string]*victim)
	s.counts = make([][]uint32, rows)
	for r := range s.counts {
		s.counts[r] = make([]uint32, cols)
	}
	return s
}

// hash is FNV-1a over the key, salted per row.
func sketchHash(key string, seed uint64) uint64 {
	h := uint64(14695981039346656037) ^ seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// Add counts one occurrence (conservative update) and returns the new
// estimate. Counters only ever rise here, which is what keeps the victim
// index's stored ranks valid lower bounds without touching it.
func (s *Sketch) Add(key string) uint32 {
	var cell [len(sketchSeeds)]*uint32
	min := ^uint32(0)
	for r := 0; r < s.rows; r++ {
		c := &s.counts[r][sketchHash(key, sketchSeeds[r])%uint64(s.cols)]
		cell[r] = c
		if *c < min {
			min = *c
		}
	}
	next := min + 1
	for _, c := range cell[:s.rows] {
		if *c < next {
			*c = next
		}
	}
	return next
}

// Estimate returns the key's frequency upper bound.
func (s *Sketch) Estimate(key string) uint32 {
	min := ^uint32(0)
	for r := 0; r < s.rows; r++ {
		c := s.counts[r][sketchHash(key, sketchSeeds[r])%uint64(s.cols)]
		if c < min {
			min = c
		}
	}
	return min
}

// Halve decays every counter by half: the detector's sliding window, run
// periodically so cold keys age out of the hot set. The hit counts of the
// table entries the sketch mirrors (Cache.MirrorResidents) halve in the
// same step, so a resident's rank decays as a whole.
func (s *Sketch) Halve() {
	for r := range s.counts {
		row := s.counts[r]
		for i := range row {
			row[i] >>= 1
		}
	}
	s.rerank()
}
