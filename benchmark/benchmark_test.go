package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
)

// tinySpec is a 3-node cluster with the switch cache on and a keyspace
// small and hot enough that the controller installs it: gets are served
// by nodes first and by the switch later, puts invalidate in between.
func tinySpec() spec {
	return spec{
		name: "tiny", clients: 2, opsPerClient: 400, putPct: 5, valueSize: 256, keys: 4, zipf: true,
		options: func() cluster.Options {
			o := cluster.DefaultOptions()
			o.Nodes = 3
			o.Cache = true
			o.CacheHotThreshold = 2
			return o
		},
	}
}

func TestSpanReconstruction(t *testing.T) {
	sp := tinySpec()
	base, err := runOnce(sp, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := runOnce(sp, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*raw{base, tr} {
		if err := r.gate(); err != nil {
			t.Fatal(err)
		}
	}
	if diffs := virtualDiff(base.reduce(), tr.reduce(), false); len(diffs) > 0 {
		t.Fatalf("tap perturbed the simulation: %v", diffs)
	}
	tb := tr.spans
	if err := tb.check(); err != nil {
		t.Fatal(err)
	}
	// Every op was cut into spans that sum to the latency the client
	// reported (finish counts the ones that do not).
	if tb.Traced != tr.ops || tb.Incomplete != 0 || tb.Mismatched != 0 {
		t.Fatalf("traced %d of %d ops, %d incomplete, %d mismatched", tb.Traced, tr.ops, tb.Incomplete, tb.Mismatched)
	}
	get, put := tb.Stats["get"], tb.Stats["put"]
	hits, served := get["switch.cache_reply"].N, get["node.service"].N
	if hits == 0 || served == 0 {
		t.Fatalf("want both cache-answered and node-served gets, got %d and %d", hits, served)
	}
	if hits+served != get["client.send"].N {
		t.Fatalf("a get is answered by the switch or by a node: %d + %d != %d", hits, served, get["client.send"].N)
	}
	if want := float64(hits) / float64(hits+served); math.Abs(base.reduce().Counters["switchcache.hit_frac"]-want) > 1e-9 {
		t.Fatalf("tap saw hit fraction %v, the cache's own counters say %v", want, base.reduce().Counters["switchcache.hit_frac"])
	}
	if put["put.fanout"].N != tr.puts() || put["put.commit"].N != tr.puts() {
		t.Fatalf("put spans cover %d/%d of %d puts", put["put.fanout"].N, put["put.commit"].N, tr.puts())
	}
	for ty, byName := range tb.Stats {
		var sum float64
		for name, st := range byName {
			sum += st.Share
			found := false
			for _, n := range spansOf[ty] {
				found = found || n == name
			}
			if !found {
				t.Errorf("%s reports span %q, which BENCHMARK.json does not list", ty, name)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s span shares sum to %v, want 1", ty, sum)
		}
	}

	shares, err := hostShares(tr.profile)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 { // a run this short may catch no sample
		t.Errorf("host shares sum to %v, want 1", sum)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Simulator).drive":                                 "sim",
		"repro/internal/sim.(*Queue[go.shape.*repro/internal/transport.X]).Pop": "sim",
		"repro/internal/kvstore.(*Store).Get":                                   "storage",
		"repro/internal/ring.Hash":                                              "workload",
		"repro/internal/core.(*Node).Start.func1":                               "core",
		"repro/internal/erasure.Encode":                                         "other",
		"main.(*tracer).tap":                                                    "benchmark",
		"runtime.mallocgc":                                                      "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                               "runtime",
		"sort.Float64s":                                                         "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{120000, 99}, {1200, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 50}, {0, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if p50, p99 := percentile(vs, 50), percentile(vs, 99); p50 != 500 || p99 != 990 {
		t.Errorf("nearest-rank p50, p99 of 1..1000 = %v, %v; want 500, 990 (ten samples beyond p99)", p50, p99)
	}
}

func TestMaxRateUnderSLO(t *testing.T) {
	rate := func(r, achieved, p99 float64, timedOut int64) rateResult {
		rr := rateResult{Rate: r, Issued: int64(2 * r), TimedOut: timedOut, Achieved: achieved, P99Micros: p99}
		rr.TimeoutFrac = float64(timedOut) / float64(rr.Issued)
		rr.MeetsSLO = meetsSLO(rr)
		return rr
	}
	for _, c := range []struct {
		name  string
		rates []rateResult
		want  float64
	}{
		{"knee in the tail", []rateResult{rate(60e3, 60e3, 230, 0), rate(90e3, 90e3, 300, 0), rate(120e3, 119.9e3, 575, 0), rate(150e3, 150e3, 4500, 0)}, 120e3},
		// Tail still fine, but completions fall behind arrivals: the queue
		// is growing and the rate does not count.
		{"growing backlog", []rateResult{rate(60e3, 60e3, 230, 0), rate(90e3, 87e3, 900, 0), rate(120e3, 100e3, 950, 0)}, 60e3},
		{"timeouts", []rateResult{rate(60e3, 60e3, 230, 0), rate(90e3, 90e3, 300, 500)}, 60e3},
		{"one timeout in 180k is within the SLO", []rateResult{rate(90e3, 90e3, 300, 1)}, 90e3},
		{"none", []rateResult{rate(60e3, 60e3, 2000, 0)}, 0},
	} {
		if got := maxRateUnderSLO(c.rates); got != c.want {
			t.Errorf("%s: max rate %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v; want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "host_us_per_op", Bound: 0.10}
	higher := metricDef{Name: "ops_per_vsec", Higher: true, Bound: 0.03}
	for _, c := range []struct {
		name       string
		m          metricDef
		base, cand []float64
		want       string
	}{
		{"identical", lower, []float64{40, 41, 40.5}, []float64{40, 41, 40.5}, "same"},
		{"within bound", lower, []float64{40, 41, 40.5}, []float64{42, 43, 42.5}, "same"},
		{"worse", lower, []float64{40, 41, 40.5}, []float64{46, 47, 46.5}, "worse"},
		{"better", lower, []float64{40, 41, 40.5}, []float64{30, 31, 30.5}, "better"},
		{"noisy", lower, []float64{36, 41, 46}, []float64{37, 40, 45}, "unresolved"},
		{"higher is better: drop", higher, []float64{28800, 28850, 28900}, []float64{27000, 27050, 27100}, "worse"},
		{"higher is better: gain", higher, []float64{28800, 28850, 28900}, []float64{30000, 30050, 30100}, "better"},
		{"a step down the rate ladder", endToEnd[6], []float64{120e3, 120e3, 120e3}, []float64{90e3, 90e3, 90e3}, "worse"},
	} {
		if got := verdict(c.m, c.base, c.cand); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	set := func(hostUs float64) setResult {
		ws := workloadSet{Name: "small-mixed"}
		for seed, jitter := range []float64{0, 0.3, -0.2} {
			e := map[string]float64{}
			for _, m := range endToEnd {
				e[m.Name] = 100
			}
			e["host_us_per_op"] = hostUs + jitter
			ws.Runs = append(ws.Runs, &report{Workload: ws.Name, Seed: int64(seed + 1), EndToEnd: e})
		}
		return setResult{Workloads: []workloadSet{ws}}
	}
	dir := t.TempDir()
	write := func(name string, s setResult) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, s); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, slow := write("base.json", set(40)), write("same.json", set(41)), write("slow.json", set(56))
	if err := compareFiles(base, same); err != nil {
		t.Errorf("within bounds, yet: %v", err)
	}
	if err := compareFiles(base, slow); err == nil {
		t.Error("40% more host time per op was not reported as worse")
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	sp, err := findSpec("durable-write")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.smoke()
	a, b, c := makeInputs(sp, 3), makeInputs(sp, 3), makeInputs(sp, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different inputs")
	}
	if reflect.DeepEqual(a.perClient, c.perClient) {
		t.Error("different seeds, same inputs")
	}
	for cl, ops := range a.perClient {
		puts := 0
		for _, o := range ops {
			if o.put {
				puts++
			}
		}
		if want := (len(ops)*sp.putPct + 50) / 100; puts != want {
			t.Errorf("client %d was dealt %d puts of %d ops, want exactly %d", cl, puts, len(ops), want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the tables in this package (regenerate with -describe).
func TestBenchmarkJSONMatches(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run -C benchmark . -describe`")
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q (unit %q) is repeated or too long", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// TestSmokeSet runs the whole protocol (-smoke) on all four workloads and
// checks, from the counters, that each workload does what its row in
// README.md claims and that the traced tables are complete.
func TestSmokeSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads three times each")
	}
	out := filepath.Join(t.TempDir(), "smoke.json")
	if err := runSet("", []int64{1}, 10, true, out, ""); err != nil {
		t.Fatal(err)
	}
	set, err := readSet(out)
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]map[string]float64{}
	for _, ws := range set.Workloads {
		layers[ws.Name] = ws.Layers
		for _, m := range endToEnd {
			if v := ws.Median[m.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", ws.Name, m.Name, v)
			}
		}
		for _, m := range perLayer {
			if _, ok := ws.Layers[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", ws.Name, m.Name)
			}
		}
		var shares float64
		for _, l := range shareLayers {
			shares += ws.Layers[l+".host_share"]
		}
		if math.Abs(shares-1) > 1e-9 {
			t.Errorf("%s: host shares sum to %v", ws.Name, shares)
		}
		for _, ty := range []string{"get", "put"} {
			var sum float64
			for _, sn := range spansOf[ty] {
				sum += ws.Layers["span."+ty+"."+sn+".share"]
			}
			if traced := len(ws.Spans.Stats[ty]) > 0; traced && math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: %s span shares sum to %v", ws.Name, ty, sum)
			}
		}
	}
	if len(layers) != len(specs) {
		t.Fatalf("ran %d workloads, want %d", len(layers), len(specs))
	}
	for name, l := range layers {
		if cached := l["switchcache.hit_frac"] > 0.5; cached != (name == "open-read-skew") {
			t.Errorf("%s: switchcache.hit_frac = %v", name, l["switchcache.hit_frac"])
		}
		if durable := l["storage.fsyncs_per_put"] > 0; durable != (name == "durable-write") {
			t.Errorf("%s: storage.fsyncs_per_put = %v", name, l["storage.fsyncs_per_put"])
		}
	}
	if big, small := layers["large-object"]["netsim.pkts_per_op"], layers["small-mixed"]["netsim.pkts_per_op"]; big < 100*small {
		t.Errorf("large-object moves %v packets per op, small-mixed %v: want 100x", big, small)
	}
	if hit := layers["open-read-skew"]["span.get.switch.cache_reply.share"]; hit <= 0 {
		t.Error("open-read-skew: no get was traced to the switch cache")
	}
}
