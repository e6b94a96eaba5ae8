package cluster

import (
	"hash/fnv"
	"strings"
	"testing"
)

// fig5GoldenHash is the FNV-1a hash of the rendered fig5/6/7 figures at
// Ops=40, Seed=42, first captured from the linear-scan flow table before
// the indexed fast path landed, and re-recorded twice since: when the
// multicast sender began to slide its window (NICE's puts of 64 KB and up
// moved; no NOOB column and no smaller row did), and when a prepare became
// one forced write (every NICE put moved; no NOOB column did). The
// indexed table must reproduce the sweep bit-identically: any drift in
// match selection, tie-breaking, or idle expiry shows up here as a
// different hash.
const fig5GoldenHash uint64 = 0xf838d5b592ce53c3

// TestFig5BitIdenticalGolden locks the replication sweep's metrics to the
// pre-index implementation.
func TestFig5BitIdenticalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig5 sweep in -short mode")
	}
	f5, f6, f7, err := ReplicationFigures(Params{Ops: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	f5.Fprint(&b)
	f6.Fprint(&b)
	f7.Fprint(&b)
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	if got := h.Sum64(); got != fig5GoldenHash {
		t.Fatalf("fig5-7 output hash = %#x, want %#x; the flow-table index changed sweep results:\n%s",
			got, fig5GoldenHash, b.String())
	}
}
