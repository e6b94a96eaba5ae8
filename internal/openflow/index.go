package openflow

import (
	"sort"

	"repro/internal/netsim"
)

// This file holds the two-tier match index behind FlowTable.Lookup.
//
// Tier one is a set of exact-match hash groups, one per distinct mask
// signature (which fields a rule constrains, and at what prefix length):
// all rules sharing a signature live in one map keyed by their concrete
// field tuple, so a packet resolves against the whole group with a single
// map probe on its correspondingly masked headers. This is the tuple-space
// search of the OVS megaflow classifier, and the software analogue of the
// exact-match SRAM tables real switch ASICs use next to their tiny TCAMs:
// NICE's controller installs thousands of structurally identical rules
// (per-partition vring prefixes, per-division LB rules, per-host /32
// forwarding), which collapse into a handful of signatures.
//
// Tier two is a short priority-ordered list for rules that constrain
// nothing at all (the default-miss catch-alls); it is consulted after the
// groups and loses ties by the same (priority, insertion order) rule.

// maskSig is the mask signature of a Match: which fields it pins and the
// prefix lengths it pins them at. The zero maskSig is the all-wildcard
// signature.
type maskSig struct {
	srcBits, dstBits uint8
	proto            bool
	srcPort, dstPort bool
	inPort           bool
}

// sig extracts m's mask signature.
func (m Match) sig() maskSig {
	return maskSig{
		srcBits: uint8(m.SrcIP.Bits),
		dstBits: uint8(m.DstIP.Bits),
		proto:   m.Proto != netsim.ProtoNone,
		srcPort: m.SrcPort != 0,
		dstPort: m.DstPort != 0,
		inPort:  m.InPort != AnyPort,
	}
}

// flowKey is the concrete tuple a signature group hashes on. Fields a
// signature leaves wild are zero on both the rule and the packet side, so
// they never split the key space.
type flowKey struct {
	src, dst         netsim.IP
	proto            netsim.Proto
	srcPort, dstPort uint16
	inPort           int32
}

// ruleKey reduces m to its group key. Constrained prefix addresses are
// taken verbatim (not re-masked): Prefix.Contains compares against the
// unmasked address, so a prefix carrying bits below its mask can never
// contain any address, and keeping those bits in the key preserves
// exactly that never-matches behavior. A /0 prefix is a full wildcard
// whatever its address (Prefix.IsWildcard), so it contributes zero.
func (m Match) ruleKey() flowKey {
	k := flowKey{proto: m.Proto, srcPort: m.SrcPort, dstPort: m.DstPort}
	if m.SrcIP.Bits != 0 {
		k.src = m.SrcIP.Addr
	}
	if m.DstIP.Bits != 0 {
		k.dst = m.DstIP.Addr
	}
	if m.InPort != AnyPort {
		k.inPort = int32(m.InPort)
	}
	return k
}

// matchGroup is one tier-one hash group: every installed rule with the
// same mask signature, keyed by its concrete tuple. A bucket holds the
// (rare) rules with byte-identical matches, ordered best-first.
type matchGroup struct {
	sig     maskSig
	buckets map[flowKey][]*FlowEntry
	maxPrio int // upper bound over resident entries; not lowered on remove
	size    int
}

// pktKey reduces a packet to g's key: each constrained field is copied,
// prefix fields masked to the group's lengths.
func (g *matchGroup) pktKey(pkt *netsim.Packet, inPort int) flowKey {
	k := flowKey{
		src: pkt.SrcIP.Masked(int(g.sig.srcBits)),
		dst: pkt.DstIP.Masked(int(g.sig.dstBits)),
	}
	if g.sig.proto {
		k.proto = pkt.Proto
	}
	if g.sig.srcPort {
		k.srcPort = pkt.SrcPort
	}
	if g.sig.dstPort {
		k.dstPort = pkt.DstPort
	}
	if g.sig.inPort {
		k.inPort = int32(inPort)
	}
	return k
}

// The microflow cache in front of both tiers is OVS's exact-match cache
// (the software twin of the ASIC's exact-match SRAM): a fixed,
// direct-mapped array keyed by the packet's whole header tuple and
// ingress port, remembering which entry the index resolved that tuple to
// — nil for a table miss. The winner is a function of the tuple and the
// installed rules alone, so a slot stays right until a rule is added or
// removed; index and unindex bump FlowTable.ver and every older slot stops
// answering. Slots hold nothing the index cannot recompute: the hit
// counters live on the entries and are bumped on every Lookup.
const (
	microflowBits  = 10
	microflowSlots = 1 << microflowBits
)

// microflow is one slot: the full tuple it answers for (as an unmasked
// flowKey), the table version it was classified under, and the winner.
type microflow struct {
	key flowKey
	ver uint64
	e   *FlowEntry
}

// tupleOf is the microflow key of pkt arriving on inPort: every header
// field a Match can read, unmasked.
func tupleOf(pkt *netsim.Packet, inPort int) flowKey {
	return flowKey{
		src: pkt.SrcIP, dst: pkt.DstIP, proto: pkt.Proto,
		srcPort: pkt.SrcPort, dstPort: pkt.DstPort, inPort: int32(inPort),
	}
}

// slot hashes a full tuple to its (only) cache slot: two odd 64-bit
// multipliers, top bits of the product.
func (k flowKey) slot() int {
	h := (uint64(k.src)<<32 | uint64(k.dst)) * 0x9e3779b97f4a7c15
	h ^= (uint64(k.srcPort)<<48 | uint64(k.dstPort)<<32 | uint64(uint32(k.inPort))<<8 | uint64(k.proto)) * 0xc2b2ae3d27d4eb4f
	return int(h >> (64 - microflowBits))
}

// beats reports whether e wins over cur (which may be nil): higher
// priority, then earlier installation.
func beats(e, cur *FlowEntry) bool {
	if cur == nil {
		return true
	}
	if e.Priority != cur.Priority {
		return e.Priority > cur.Priority
	}
	return e.seq < cur.seq
}

// insertOrdered places e into a best-first (priority desc, seq asc) slice.
func insertOrdered(list []*FlowEntry, e *FlowEntry) []*FlowEntry {
	i := sort.Search(len(list), func(i int) bool { return beats(e, list[i]) })
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = e
	return list
}

// removeFrom cuts e out of an ordered slice (identity match).
func removeFrom(list []*FlowEntry, e *FlowEntry) []*FlowEntry {
	for i, x := range list {
		if x == e {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			return list[:len(list)-1]
		}
	}
	return list
}
