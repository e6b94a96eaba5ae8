package workload

import (
	"math/rand"
	"sort"
	"testing"
)

func TestDefineUnknownWorkload(t *testing.T) {
	if _, err := Define("E", 100); err == nil {
		t.Fatal("E (scan workload) should be rejected")
	}
	if _, err := Define("zzz", 100); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWorkloadMixes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name   string
		counts map[OpType]float64 // expected proportions
	}{
		{"A", map[OpType]float64{Read: 0.5, Update: 0.5}},
		{"B", map[OpType]float64{Read: 0.95, Update: 0.05}},
		{"C", map[OpType]float64{Read: 1.0}},
		{"F", map[OpType]float64{Read: 0.5, ReadModifyWrite: 0.5}},
	}
	const n = 20000
	for _, c := range cases {
		w := MustDefine(c.name, 1000)
		got := map[OpType]int{}
		for i := 0; i < n; i++ {
			got[w.Next(rng).Type]++
		}
		for typ, want := range c.counts {
			frac := float64(got[typ]) / n
			if frac < want-0.02 || frac > want+0.02 {
				t.Errorf("workload %s: %v fraction = %.3f, want ~%.2f", c.name, typ, frac, want)
			}
		}
		for typ, cnt := range got {
			if _, expected := c.counts[typ]; !expected && cnt > 0 {
				t.Errorf("workload %s produced unexpected op %v", c.name, typ)
			}
		}
	}
}

func TestWorkloadDInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := MustDefine("D", 1000)
	inserts := 0
	for i := 0; i < 10000; i++ {
		op := w.Next(rng)
		if op.Type == Insert {
			inserts++
		}
	}
	if inserts == 0 {
		t.Fatal("workload D produced no inserts")
	}
	if w.records != 1000+inserts {
		t.Fatalf("records = %d, want %d", w.records, 1000+inserts)
	}
}

func TestZipfianSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipfian(1000)
	counts := make(map[int]int)
	const n = 100000
	for i := 0; i < n; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	// Zipf(0.99): the most popular record draws a few percent of all
	// requests; the top 10 together dominate a uniform distribution.
	if freqs[0] < n/100 {
		t.Fatalf("hottest key got %d/%d; not skewed enough", freqs[0], n)
	}
	top10 := 0
	for _, f := range freqs[:10] {
		top10 += f
	}
	if top10 < n/5 {
		t.Fatalf("top-10 keys got %d/%d; zipf should concentrate >20%%", top10, n)
	}
	// Uniform comparison: top-10 of uniform is ~1%.
	u := Uniform{N: 1000}
	ucounts := make(map[int]int)
	for i := 0; i < n; i++ {
		ucounts[u.Next(rng)]++
	}
	if len(ucounts) < 990 {
		t.Fatalf("uniform chooser missed keys: %d distinct", len(ucounts))
	}
}

func TestZipfianUnscrambledMonotone(t *testing.T) {
	// Without scrambling, rank 0 must be the most popular.
	rng := rand.New(rand.NewSource(4))
	z := newZipfian(100, ZipfTheta, false)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Next(rng)]++
	}
	if counts[0] < counts[1] || counts[1] < counts[5] {
		t.Fatalf("unscrambled zipf not rank-ordered: %v", counts[:6])
	}
}

func TestLatestFavorsRecentRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := MustDefine("D", 1000)
	recent, old := 0, 0
	for i := 0; i < 20000; i++ {
		op := w.Next(rng)
		if op.Type != Read {
			continue
		}
		var idx int
		if _, err := fscan(op.Key, &idx); err != nil {
			t.Fatal(err)
		}
		if idx >= w.records-100 {
			recent++
		} else if idx < w.records-500 {
			old++
		}
	}
	if recent <= old {
		t.Fatalf("latest distribution: recent=%d old=%d", recent, old)
	}
}

func fscan(key string, idx *int) (int, error) {
	var n int
	_, err := sscanf(key, &n)
	*idx = n
	return n, err
}

func sscanf(key string, n *int) (int, error) {
	v := 0
	for i := 4; i < len(key); i++ { // skip "user"
		v = v*10 + int(key[i]-'0')
	}
	*n = v
	return v, nil
}

// TestPutFraction: updates, inserts and the write half of
// read-modify-writes are the puts.
func TestPutFraction(t *testing.T) {
	puts := func(w *Workload) float64 { return w.updateProp + w.insertProp + w.rmwProp }
	if f := puts(MustDefine("C", 10)); f != 0 {
		t.Fatalf("C put fraction = %v", f)
	}
	if f := puts(MustDefine("F", 10)); f != 0.5 {
		t.Fatalf("F put fraction = %v", f)
	}
}

func TestHotSpotSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHotSpot(1000, 0.9, 0.1)
	const n = 50000
	hot := 0
	for i := 0; i < n; i++ {
		k := h.Next(rng)
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		if k < 100 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.88 || frac > 0.92 {
		t.Fatalf("hot-set op fraction = %.3f, want ~0.90", frac)
	}
}

// TestHotSpotUniformWithin is the chi-square sanity check: within each of
// the hot and cold sets the chooser must be uniform. With k cells of
// expectation E, sum((obs-E)^2/E) is chi-square distributed with k-1
// degrees of freedom; the thresholds below are the 0.999 quantiles, so a
// correct generator fails with probability ~1e-3 (and the seed is fixed).
func TestHotSpotUniformWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewHotSpot(1000, 0.9, 0.1)
	const n = 200000
	counts := make([]int, 1000)
	hotOps := 0
	for i := 0; i < n; i++ {
		k := h.Next(rng)
		counts[k]++
		if k < 100 {
			hotOps++
		}
	}
	chi2 := func(cells []int, total int) float64 {
		e := float64(total) / float64(len(cells))
		var sum float64
		for _, c := range cells {
			d := float64(c) - e
			sum += d * d / e
		}
		return sum
	}
	// 0.999 chi-square quantiles: df=99 -> ~148.2, df=899 -> ~1043.
	if v := chi2(counts[:100], hotOps); v > 148.2 {
		t.Fatalf("hot-set chi-square = %.1f (df=99), want < 148.2", v)
	}
	if v := chi2(counts[100:], n-hotOps); v > 1043 {
		t.Fatalf("cold-set chi-square = %.1f (df=899), want < 1043", v)
	}
}

func TestHotSpotDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Hot set rounds to the whole keyspace: must still cover [0, n).
	h := NewHotSpot(4, 0.9, 1.0)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[h.Next(rng)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("degenerate hotspot covered %d/4 keys", len(seen))
	}
}

func TestNewZipfianTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	low := NewZipfianTheta(1000, 0.1)
	high := NewZipfianTheta(1000, 1.2)
	top := func(z *Zipfian) float64 {
		counts := map[int]int{}
		for i := 0; i < 20000; i++ {
			counts[z.Next(rng)]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		return float64(best) / 20000
	}
	if lo, hi := top(low), top(high); hi <= lo {
		t.Fatalf("theta=1.2 hottest-key share %.3f not above theta=0.1 share %.3f", hi, lo)
	}
}
