package openflow

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
)

// benchSizes are the deployment scales the lookup benchmarks sweep.
var benchSizes = []int{8, 32, 64, 128, 256}

func runLookupBench(b *testing.B, nodes int, cache bool, linear bool) {
	rules := SyntheticRules(nodes, cache)
	pkts := SyntheticPackets(nodes, 1024, cache, 7)
	var lookup func(pkt *netsim.Packet, inPort int) *FlowEntry
	if linear {
		t := NewReferenceTable()
		for _, r := range rules {
			t.Add(r)
		}
		lookup = t.Lookup
	} else {
		t := NewFlowTable()
		for _, r := range rules {
			t.Add(r)
		}
		lookup = t.Lookup
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lookup(&pkts[i%len(pkts)], 2) == nil {
			b.Fatal("table miss: every synthetic packet has a covering rule")
		}
	}
}

// BenchmarkLookupIndexed measures the two-tier indexed FlowTable on the
// controller's rule mix; cost should stay flat as the deployment grows.
func BenchmarkLookupIndexed(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			runLookupBench(b, n, false, false)
		})
	}
}

// BenchmarkLookupIndexedCache is the same sweep with the hot-key cache
// tier installed and hot traffic in the mix.
func BenchmarkLookupIndexedCache(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			runLookupBench(b, n, true, false)
		})
	}
}

// BenchmarkLookupLinear is the O(n) ReferenceTable baseline.
func BenchmarkLookupLinear(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			runLookupBench(b, n, false, true)
		})
	}
}
