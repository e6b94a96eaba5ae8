package cluster

import (
	"testing"
)

// TestReadScaleDeterminism: the sweep is a simulation — same params,
// same cells, bit for bit, sequential or parallel.
func TestReadScaleDeterminism(t *testing.T) {
	pr := Params{Ops: 200, Seed: 7}
	a, _, err := ReadScaleSweep(pr)
	if err != nil {
		t.Fatal(err)
	}
	pr.Seq = true
	b, _, err := ReadScaleSweep(pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("cell counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cell %d diverged:\n  parallel:   %+v\n  sequential: %+v", i, a[i], b[i])
		}
	}
}
