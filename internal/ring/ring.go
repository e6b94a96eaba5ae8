// Package ring implements the consistent-hashing layout NICE and NOOB
// share (§3.1): the object hash space is a circular ring split into equal
// partitions; each partition has a primary replica and R-1 secondary
// replicas on successor nodes. For NICE it additionally implements the
// virtual rings (§3.2): ranges of virtual IP addresses divided into
// power-of-two subgroups, one subgroup per partition, so a switch can map
// a whole subgroup to a physical node with a single prefix rule.
package ring

import (
	"fmt"

	"repro/internal/netsim"
)

// Hash maps a key to its position on the ring: FNV-1a (64-bit) followed
// by an avalanche finalizer. The finalizer matters: range partitioning
// uses the hash's high bits, and raw FNV barely propagates a trailing
// byte change upward — keys like "obj/1" vs "obj/2" would land in the
// same partition.
func Hash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// fmix64 (MurmurHash3 finalizer).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Space divides the 64-bit hash ring into P equal partitions.
type Space struct {
	P int
}

// NewSpace returns a hash space with p partitions; p must be positive.
func NewSpace(p int) Space {
	if p <= 0 {
		panic(fmt.Sprintf("ring: non-positive partition count %d", p))
	}
	return Space{P: p}
}

// width returns the size of one partition's hash range. The last
// partition absorbs the remainder.
func (s Space) width() uint64 { return ^uint64(0)/uint64(s.P) + 1 }

// PartitionOfHash returns the partition owning hash position h.
func (s Space) PartitionOfHash(h uint64) int {
	p := int(h / s.width())
	if p >= s.P { // remainder tail of the ring
		p = s.P - 1
	}
	return p
}

// PartitionOf returns the partition owning key.
func (s Space) PartitionOf(key string) int { return s.PartitionOfHash(Hash(key)) }

// Placement assigns partitions to storage nodes with successor-list
// replication: partition i's primary is node i, and its R-1 secondaries
// are the next nodes around the physical ring. Every node is thus a
// primary for one partition and a secondary for R-1 others (§4.2).
type Placement struct {
	N int // storage nodes (= partitions)
	R int // replication level
}

// NewPlacement validates and builds a placement; R must be in [1, N].
func NewPlacement(n, r int) Placement {
	if n <= 0 || r <= 0 || r > n {
		panic(fmt.Sprintf("ring: bad placement N=%d R=%d", n, r))
	}
	return Placement{N: n, R: r}
}

// Replicas returns the nodes holding partition part, primary first.
func (p Placement) Replicas(part int) []int {
	out := make([]int, p.R)
	for i := 0; i < p.R; i++ {
		out[i] = (part + i) % p.N
	}
	return out
}

// Primary returns the primary replica of a partition.
func (p Placement) Primary(part int) int { return part % p.N }

// PartitionsOf returns the partitions node serves as primary and as
// secondary. |primary| = 1 and |secondary| = R-1 in this layout, matching
// the paper's O(R) per-node membership state.
func (p Placement) PartitionsOf(node int) (primary, secondary []int) {
	primary = []int{node}
	for i := 1; i < p.R; i++ {
		secondary = append(secondary, ((node-i)%p.N+p.N)%p.N)
	}
	return primary, secondary
}

// IsReplica reports whether node holds partition part.
func (p Placement) IsReplica(part, node int) bool {
	for _, r := range p.Replicas(part) {
		if r == node {
			return true
		}
	}
	return false
}

// VRing is a virtual consistent-hashing ring deployed on a range of
// virtual IP addresses (§3.2). The base prefix is divided into P
// subgroups of 2^SubgroupBits addresses each; subgroup i serves
// partition i. Clients hash a key to an address inside its partition's
// subgroup, and the switch maps the whole subgroup with one prefix rule.
type VRing struct {
	Base         netsim.Prefix
	Partitions   int
	SubgroupBits int
}

// NewVRing builds a vring and checks the address budget.
func NewVRing(base netsim.Prefix, partitions, subgroupBits int) (VRing, error) {
	v := VRing{Base: base, Partitions: partitions, SubgroupBits: subgroupBits}
	if partitions <= 0 {
		return v, fmt.Errorf("ring: non-positive partition count %d", partitions)
	}
	if subgroupBits < 0 || subgroupBits > 31 {
		return v, fmt.Errorf("ring: bad subgroup bits %d", subgroupBits)
	}
	need := uint64(partitions) << subgroupBits
	if need > base.Size() {
		return v, fmt.Errorf("ring: %d partitions x 2^%d vnodes exceed %s (%d addresses)",
			partitions, subgroupBits, base, base.Size())
	}
	return v, nil
}

// MustVRing is NewVRing that panics on error; for fixed topologies.
func MustVRing(base netsim.Prefix, partitions, subgroupBits int) VRing {
	v, err := NewVRing(base, partitions, subgroupBits)
	if err != nil {
		panic(err)
	}
	return v
}

// subgroupSize returns the number of vnode addresses per subgroup.
func (v VRing) subgroupSize() uint32 { return 1 << v.SubgroupBits }

// SubgroupPrefix returns the address prefix covering partition part's
// vnodes: what the controller installs as a single switch rule.
func (v VRing) SubgroupPrefix(part int) netsim.Prefix {
	base := v.Base.Nth(uint32(part) << v.SubgroupBits)
	return netsim.PrefixOf(base, 32-v.SubgroupBits)
}

// AddrOfKey returns the vnode address a client sends key's requests to.
func (v VRing) AddrOfKey(key string) netsim.IP {
	h := Hash(key)
	part := NewSpace(v.Partitions).PartitionOfHash(h)
	off := uint32(h) & (v.subgroupSize() - 1)
	return v.SubgroupPrefix(part).Nth(off)
}

// PartitionOfAddr maps a vnode address back to its partition; ok is false
// when ip is outside the vring.
func (v VRing) PartitionOfAddr(ip netsim.IP) (part int, ok bool) {
	if !v.Base.Contains(ip) {
		return 0, false
	}
	idx := uint32(ip-v.Base.Addr) >> v.SubgroupBits
	if idx >= uint32(v.Partitions) {
		return 0, false
	}
	return int(idx), true
}
