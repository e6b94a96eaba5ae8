// Package workload generates YCSB-compatible key-value workloads [16]:
// the standard core workload mixes (A-D, F) with zipfian, uniform and
// latest request distributions. The paper's evaluation (§6.7) uses
// workload C (read-only) and F (read-modify-write), both zipfian, with
// 1 KB objects.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// OpType is one YCSB operation kind.
type OpType int

// Operation kinds.
const (
	Read OpType = iota
	Update
	Insert
	ReadModifyWrite
)

// String names the operation.
func (t OpType) String() string {
	switch t {
	case Read:
		return "read"
	case Update:
		return "update"
	case Insert:
		return "insert"
	case ReadModifyWrite:
		return "rmw"
	}
	return "unknown"
}

// Op is one generated operation.
type Op struct {
	Type OpType
	Key  string
}

// DefaultValueSize is YCSB's default record size (10 fields x 100 B).
const DefaultValueSize = 1000

// KeyChooser picks a record index from [0, n).
type KeyChooser interface {
	Next(rng *rand.Rand) int
}

// Uniform picks records uniformly.
type Uniform struct{ N int }

// Next implements KeyChooser.
func (u Uniform) Next(rng *rand.Rand) int { return rng.Intn(u.N) }

// Zipfian picks records with the YCSB zipfian distribution (Gray et
// al.'s algorithm, theta = 0.99), scrambled so popular records spread
// over the keyspace.
type Zipfian struct {
	n            int
	theta        float64
	alpha        float64
	zetan, zeta2 float64
	eta          float64
	scramble     bool
}

// ZipfTheta is YCSB's default skew.
const ZipfTheta = 0.99

// NewZipfian builds a scrambled zipfian chooser over n records.
func NewZipfian(n int) *Zipfian {
	return newZipfian(n, ZipfTheta, true)
}

// NewZipfianTheta builds a scrambled zipfian chooser with an explicit
// skew parameter (the skew sweeps vary theta; YCSB fixes it at 0.99).
func NewZipfianTheta(n int, theta float64) *Zipfian {
	return newZipfian(n, theta, true)
}

func newZipfian(n int, theta float64, scramble bool) *Zipfian {
	z := &Zipfian{n: n, theta: theta, scramble: scramble}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements KeyChooser.
func (z *Zipfian) Next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	if !z.scramble {
		return rank
	}
	return int(fnv64(uint64(rank)) % uint64(z.n))
}

// fnv64 hashes a record rank for scrambling.
func fnv64(v uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// HotSpot concentrates HotOpFrac of the operations on the first
// HotSetFrac of the records (YCSB's hotspot distribution): a step-shaped
// skew that, unlike zipfian, has a sharp boundary between hot and cold —
// the worst case for any fixed-size cache sized below the hot set and the
// best case above it.
type HotSpot struct {
	N int
	// HotSetFrac is the fraction of records forming the hot set (y).
	HotSetFrac float64
	// HotOpFrac is the fraction of operations addressing the hot set (x).
	HotOpFrac float64
}

// NewHotSpot builds the classic x/y hotspot chooser (e.g. 0.9 of ops on
// 0.1 of records).
func NewHotSpot(n int, hotOpFrac, hotSetFrac float64) HotSpot {
	return HotSpot{N: n, HotOpFrac: hotOpFrac, HotSetFrac: hotSetFrac}
}

// Next implements KeyChooser: uniform within the chosen set.
func (h HotSpot) Next(rng *rand.Rand) int {
	hot := int(float64(h.N) * h.HotSetFrac)
	if hot < 1 {
		hot = 1
	}
	if hot >= h.N {
		return rng.Intn(h.N)
	}
	if rng.Float64() < h.HotOpFrac {
		return rng.Intn(hot)
	}
	return hot + rng.Intn(h.N-hot)
}

// Latest favors recently inserted records (YCSB workload D).
type Latest struct {
	w *Workload
	z *Zipfian
}

// Next implements KeyChooser: zipfian over recency.
func (l *Latest) Next(rng *rand.Rand) int {
	max := l.w.records
	back := l.z.Next(rng)
	if back >= max {
		back = max - 1
	}
	return max - 1 - back
}

// Workload is one YCSB core workload instance.
type Workload struct {
	Name      string
	ValueSize int

	readProp, updateProp, insertProp, rmwProp float64

	records int
	chooser KeyChooser
}

// Define builds one of the YCSB core workloads over `records` preloaded
// records. Supported: "A", "B", "C", "D", "F" (E is scan-based; this
// store has no scans).
func Define(name string, records int) (*Workload, error) {
	w := &Workload{Name: name, ValueSize: DefaultValueSize, records: records}
	switch name {
	case "A": // update heavy: 50/50 zipfian
		w.readProp, w.updateProp = 0.5, 0.5
		w.chooser = NewZipfian(records)
	case "B": // read mostly: 95/5 zipfian
		w.readProp, w.updateProp = 0.95, 0.05
		w.chooser = NewZipfian(records)
	case "C": // read only, zipfian
		w.readProp = 1.0
		w.chooser = NewZipfian(records)
	case "D": // read latest: 95/5 insert
		w.readProp, w.insertProp = 0.95, 0.05
		// Latest needs rank order preserved: unscrambled zipfian over
		// recency.
		w.chooser = &Latest{w: w, z: newZipfian(records, ZipfTheta, false)}
	case "F": // read-modify-write: 50/50 zipfian
		w.readProp, w.rmwProp = 0.5, 0.5
		w.chooser = NewZipfian(records)
	default:
		return nil, fmt.Errorf("workload: unsupported YCSB workload %q", name)
	}
	return w, nil
}

// MustDefine is Define that panics on error.
func MustDefine(name string, records int) *Workload {
	w, err := Define(name, records)
	if err != nil {
		panic(err)
	}
	return w
}

// Key renders record index i as its YCSB key.
func (w *Workload) Key(i int) string { return fmt.Sprintf("user%d", i) }

// Next draws one operation.
func (w *Workload) Next(rng *rand.Rand) Op {
	r := rng.Float64()
	switch {
	case r < w.readProp:
		return Op{Type: Read, Key: w.Key(w.chooser.Next(rng))}
	case r < w.readProp+w.updateProp:
		return Op{Type: Update, Key: w.Key(w.chooser.Next(rng))}
	case r < w.readProp+w.updateProp+w.rmwProp:
		return Op{Type: ReadModifyWrite, Key: w.Key(w.chooser.Next(rng))}
	default:
		w.records++
		return Op{Type: Insert, Key: w.Key(w.records - 1)}
	}
}
