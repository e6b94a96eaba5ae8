package main

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/openflow"
	"repro/internal/sim"
)

// switchPoint is one cell of the switch-scale sweep: the indexed and the
// linear-scan lookup cost on the same rule population and traffic mix.
type switchPoint struct {
	Nodes              int     `json:"nodes"`
	Mix                string  `json:"mix"`
	Rules              int     `json:"rules"`
	IndexedNsPerOp     float64 `json:"indexed_ns_per_op"`
	IndexedAllocsPerOp int64   `json:"indexed_allocs_per_op"`
	LinearNsPerOp      float64 `json:"linear_ns_per_op"`
	LinearAllocsPerOp  int64   `json:"linear_allocs_per_op"`
	Speedup            float64 `json:"speedup"`
}

// switchBenchmarks sweeps datapath lookup cost over deployment sizes and
// rule mixes (plain NICEKV vs NICEKV with the hot-key cache tier),
// measuring the two-tier indexed FlowTable against the linear-scan
// ReferenceTable on identical rules and packets.
func switchBenchmarks(w io.Writer) []switchPoint {
	var points []switchPoint
	for _, nodes := range []int{8, 32, 64, 128, 256} {
		for _, cache := range []bool{false, true} {
			mix := "nicekv"
			if cache {
				mix = "nicekv+cache"
			}
			rules := openflow.SyntheticRules(nodes, cache)
			pkts := openflow.SyntheticPackets(nodes, 1024, cache, 7)
			measure := func(linear bool) testing.BenchmarkResult {
				return testing.Benchmark(func(b *testing.B) {
					s := sim.New(1)
					var do func(i int) *openflow.FlowEntry
					if linear {
						t := openflow.NewReferenceTable(s)
						for _, r := range rules {
							if _, err := t.Add(r); err != nil {
								b.Fatal(err)
							}
						}
						do = func(i int) *openflow.FlowEntry { return t.Lookup(&pkts[i%len(pkts)], 2) }
					} else {
						t := openflow.NewFlowTable(s)
						for _, r := range rules {
							if _, err := t.Add(r); err != nil {
								b.Fatal(err)
							}
						}
						do = func(i int) *openflow.FlowEntry { return t.Lookup(&pkts[i%len(pkts)], 2) }
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if do(i) == nil {
							b.Fatal("table miss: every synthetic packet has a covering rule")
						}
					}
				})
			}
			idx := measure(false)
			lin := measure(true)
			pt := switchPoint{
				Nodes:              nodes,
				Mix:                mix,
				Rules:              len(rules),
				IndexedNsPerOp:     float64(idx.T.Nanoseconds()) / float64(idx.N),
				IndexedAllocsPerOp: idx.AllocsPerOp(),
				LinearNsPerOp:      float64(lin.T.Nanoseconds()) / float64(lin.N),
				LinearAllocsPerOp:  lin.AllocsPerOp(),
			}
			if pt.IndexedNsPerOp > 0 {
				pt.Speedup = pt.LinearNsPerOp / pt.IndexedNsPerOp
			}
			points = append(points, pt)
			fmt.Fprintf(w, "switch-scale nodes=%-4d mix=%-13s rules=%-5d indexed %8.1f ns/op (%d allocs) linear %9.1f ns/op  %6.1fx\n",
				pt.Nodes, pt.Mix, pt.Rules, pt.IndexedNsPerOp, pt.IndexedAllocsPerOp, pt.LinearNsPerOp, pt.Speedup)
		}
	}
	return points
}
