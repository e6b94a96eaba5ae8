package ring

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

func TestHashStableAndSpread(t *testing.T) {
	if Hash("alpha") != Hash("alpha") {
		t.Fatal("hash not deterministic")
	}
	if Hash("alpha") == Hash("beta") {
		t.Fatal("suspicious collision on distinct short keys")
	}
	// Spread: 10k keys over 16 partitions should put something in every
	// partition and nothing too skewed.
	s := NewSpace(16)
	counts := make([]int, 16)
	for i := 0; i < 10000; i++ {
		counts[s.PartitionOf(fmt.Sprintf("key-%d", i))]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d empty", p)
		}
		if c > 3*10000/16 {
			t.Fatalf("partition %d has %d keys (heavy skew)", p, c)
		}
	}
}

func TestPartitionOfHashCoversRing(t *testing.T) {
	s := NewSpace(15)
	if s.PartitionOfHash(0) != 0 {
		t.Fatal("hash 0 not in partition 0")
	}
	if got := s.PartitionOfHash(^uint64(0)); got != 14 {
		t.Fatalf("max hash in partition %d, want 14", got)
	}
	// Property: every hash maps to a valid partition, and partition
	// boundaries are monotone.
	f := func(h uint64) bool {
		p := s.PartitionOfHash(h)
		return p >= 0 && p < 15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementReplicas(t *testing.T) {
	p := NewPlacement(5, 3)
	got := p.Replicas(3)
	want := []int{3, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Replicas(3) = %v, want %v", got, want)
		}
	}
	if p.Primary(3) != 3 {
		t.Fatal("primary mismatch")
	}
}

func TestPlacementPartitionsOfIsInverse(t *testing.T) {
	// Property: node n appears in Replicas(part) exactly when part is in
	// PartitionsOf(n), for all layouts.
	for _, cfg := range []struct{ n, r int }{{5, 3}, {15, 3}, {9, 9}, {7, 1}, {16, 5}} {
		p := NewPlacement(cfg.n, cfg.r)
		for node := 0; node < cfg.n; node++ {
			prim, sec := p.PartitionsOf(node)
			if len(prim) != 1 || len(sec) != cfg.r-1 {
				t.Fatalf("N=%d R=%d node %d: %d primary, %d secondary partitions",
					cfg.n, cfg.r, node, len(prim), len(sec))
			}
			member := map[int]bool{}
			for _, pt := range prim {
				member[pt] = true
				if p.Primary(pt) != node {
					t.Fatalf("primary inverse broken at node %d", node)
				}
			}
			for _, pt := range sec {
				member[pt] = true
			}
			for part := 0; part < cfg.n; part++ {
				if p.IsReplica(part, node) != member[part] {
					t.Fatalf("N=%d R=%d: IsReplica(%d,%d)=%v but membership=%v",
						cfg.n, cfg.r, part, node, p.IsReplica(part, node), member[part])
				}
			}
		}
	}
}

func TestPlacementLoadIsUniform(t *testing.T) {
	// Every node serves exactly R partitions: the basis for the paper's
	// O(R) per-node membership state.
	p := NewPlacement(12, 5)
	load := make([]int, 12)
	for part := 0; part < 12; part++ {
		for _, n := range p.Replicas(part) {
			load[n]++
		}
	}
	for n, l := range load {
		if l != 5 {
			t.Fatalf("node %d serves %d partitions, want 5", n, l)
		}
	}
}

func TestPlacementValidation(t *testing.T) {
	for _, cfg := range []struct{ n, r int }{{0, 1}, {3, 0}, {3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlacement(%d,%d) did not panic", cfg.n, cfg.r)
				}
			}()
			NewPlacement(cfg.n, cfg.r)
		}()
	}
}

func vr(t *testing.T) VRing {
	t.Helper()
	return MustVRing(netsim.MustParsePrefix("10.10.0.0/16"), 15, 8)
}

func TestVRingSubgroups(t *testing.T) {
	v := vr(t)
	if got := v.SubgroupPrefix(0).String(); got != "10.10.0.0/24" {
		t.Fatalf("subgroup 0 = %s", got)
	}
	if got := v.SubgroupPrefix(14).String(); got != "10.10.14.0/24" {
		t.Fatalf("subgroup 14 = %s", got)
	}
}

func TestVRingAddrRoundTrip(t *testing.T) {
	v := vr(t)
	sp := NewSpace(v.Partitions)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("object/%d", i)
		addr := v.AddrOfKey(key)
		part, ok := v.PartitionOfAddr(addr)
		if !ok {
			t.Fatalf("address %s of key %q outside vring", addr, key)
		}
		if want := sp.PartitionOf(key); part != want {
			t.Fatalf("key %q: vring partition %d, hash partition %d", key, part, want)
		}
		if !v.SubgroupPrefix(part).Contains(addr) {
			t.Fatalf("address %s outside its subgroup", addr)
		}
	}
}

func TestVRingRejectsOutsiders(t *testing.T) {
	v := vr(t)
	if _, ok := v.PartitionOfAddr(netsim.MustParseIP("10.11.0.1")); ok {
		t.Fatal("address outside base accepted")
	}
	// Inside base but beyond the last subgroup (partition 15+ of /24s).
	if _, ok := v.PartitionOfAddr(netsim.MustParseIP("10.10.200.1")); ok {
		t.Fatal("address beyond last subgroup accepted")
	}
	if _, ok := v.PartitionOfAddr(netsim.MustParseIP("10.10.3.77")); !ok {
		t.Fatal("valid vnode address rejected")
	}
}

func TestVRingBudgetValidation(t *testing.T) {
	if _, err := NewVRing(netsim.MustParsePrefix("10.10.0.0/24"), 2, 8); err == nil {
		t.Fatal("2x256 vnodes cannot fit a /24")
	}
	if _, err := NewVRing(netsim.MustParsePrefix("10.10.0.0/16"), 0, 8); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if _, err := NewVRing(netsim.MustParsePrefix("10.10.0.0/16"), 4, 40); err == nil {
		t.Fatal("oversized subgroup accepted")
	}
}

// Property: distinct partitions get disjoint subgroup prefixes.
func TestVRingSubgroupsDisjoint(t *testing.T) {
	v := vr(t)
	for a := 0; a < v.Partitions; a++ {
		pa := v.SubgroupPrefix(a)
		for b := a + 1; b < v.Partitions; b++ {
			pb := v.SubgroupPrefix(b)
			if pa.Contains(pb.Addr) || pb.Contains(pa.Addr) {
				t.Fatalf("subgroups %d and %d overlap (%s, %s)", a, b, pa, pb)
			}
		}
	}
}

func BenchmarkHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Hash("user4821734")
	}
}

func BenchmarkAddrOfKey(b *testing.B) {
	v := MustVRing(netsim.MustParsePrefix("10.10.0.0/16"), 64, 8)
	for i := 0; i < b.N; i++ {
		v.AddrOfKey("user4821734")
	}
}

func BenchmarkPlacementReplicas(b *testing.B) {
	p := NewPlacement(64, 3)
	for i := 0; i < b.N; i++ {
		p.Replicas(i % 64)
	}
}

func TestHashAvalancheOnTrailingByte(t *testing.T) {
	// Keys differing only in the final character must spread across
	// partitions (this is what the fmix64 finalizer guarantees; raw FNV
	// does not avalanche into the high bits range partitioning uses).
	s := NewSpace(10)
	parts := map[int]bool{}
	for i := 0; i < 16; i++ {
		parts[s.PartitionOf(fmt.Sprintf("object/ec%d", i))] = true
	}
	if len(parts) < 4 {
		t.Fatalf("16 sibling keys landed in only %d partitions", len(parts))
	}
}
