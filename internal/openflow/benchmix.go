package openflow

import (
	"fmt"
	"math/rand"

	"repro/internal/netsim"
)

// This file synthesizes the rule populations and traffic the switch-scale
// benchmark replays. The shapes (cookies, priorities, match structure)
// mirror what internal/controller installs on a mapping
// datapath so the lookup numbers reflect the table a real deployment
// carries, without paying for a full cluster boot per benchmark point.

// Priorities as installed by the controller (internal/controller) plus
// the hot-key cache tier above the LB rules.
const (
	benchPrioARP     = 90
	benchPrioCache   = 70
	benchPrioLB      = 60
	benchPrioMapping = 50
	benchPrioPhys    = 10
)

// benchDivisions is the client-space split the LB tier uses (§4.5,
// R=3 plus the primary: four /10 source divisions).
func benchDivisions() []netsim.Prefix {
	divs := make([]netsim.Prefix, 4)
	for d := range divs {
		divs[d] = netsim.PrefixOf(netsim.IPv4(10, byte(d*64), 0, 0), 10)
	}
	return divs
}

func benchUniPrefix(p int) netsim.Prefix {
	return netsim.PrefixOf(netsim.IPv4(20, byte(p>>8), byte(p), 0), 24)
}

func benchMcPrefix(p int) netsim.Prefix {
	return netsim.PrefixOf(netsim.IPv4(30, byte(p>>8), byte(p), 0), 24)
}

func benchHostIP(i int) netsim.IP { return netsim.IPv4(10, 0, byte(i>>8), byte(i)) }

// benchHotKeys is the number of hot-key cache rules the "+cache" mix adds.
const benchHotKeys = 64

// SyntheticRules builds the flow-table population of a mapping datapath
// in an n-node deployment (one partition per node): ARP punt, per-division
// LB rules, unicast/multicast vring mappings, group-direct entries, and
// per-host physical forwarding. With cache set, hot-key exact-match rules
// (the switchcache tier) sit above the LB rules.
func SyntheticRules(n int, cache bool) []FlowEntry {
	var rules []FlowEntry
	add := func(prio int, m Match, cookie string) {
		rules = append(rules, FlowEntry{Priority: prio, Match: m, Cookie: cookie})
	}

	arp := NewMatch()
	arp.Proto = netsim.ProtoARP
	add(benchPrioARP, arp, "arp-punt")

	divs := benchDivisions()
	for p := 0; p < n; p++ {
		uni := benchUniPrefix(p)
		add(benchPrioMapping, MatchDst(uni), fmt.Sprintf("uni-p%d.", p))
		for d, div := range divs {
			m := MatchDst(uni)
			m.SrcIP = div
			add(benchPrioLB, m, fmt.Sprintf("uni-p%d.d%d", p, d))
		}
		add(benchPrioMapping, MatchDst(benchMcPrefix(p)), fmt.Sprintf("mc-p%d.", p))
		gd := MatchDst(netsim.HostPrefix(benchMcPrefix(p).Nth(1)))
		prio := benchPrioMapping
		if p%4 == 0 { // a quarter of the group-direct entries are ingress-specific
			gd.InPort = p % 8
			prio += 2
		}
		add(prio, gd, fmt.Sprintf("gd-p%d.k0", p))
	}
	for i := 0; i < n; i++ {
		add(benchPrioPhys, MatchDst(netsim.HostPrefix(benchHostIP(i))), "phys-"+benchHostIP(i).String())
	}
	if cache {
		for k := 0; k < benchHotKeys; k++ {
			m := MatchDst(netsim.HostPrefix(benchUniPrefix(k % n).Nth(1)))
			m.DstPort = 9000
			add(benchPrioCache, m, fmt.Sprintf("cache-k%d", k))
		}
	}
	return rules
}

// SyntheticPackets draws count packets of the traffic mix the rule set
// serves: mostly KV requests into the unicast vring space (resolved by
// the LB tier, or the cache tier when present), plus host-to-host
// physical traffic — whose rules sit at the very end of a linear scan —
// and some multicast. Every packet hits some rule.
func SyntheticPackets(n, count int, cache bool, seed int64) []netsim.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]netsim.Packet, count)
	for i := range pkts {
		pkt := &pkts[i]
		pkt.SrcIP = netsim.IPv4(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(250)))
		pkt.Proto = netsim.ProtoTCP
		pkt.SrcPort = uint16(30000 + rng.Intn(1000))
		pkt.DstPort = 9000
		pkt.Size = 256
		p := rng.Intn(n)
		switch r := rng.Intn(100); {
		case cache && r < 15: // hot key, served by the cache tier
			pkt.DstIP = benchUniPrefix(rng.Intn(benchHotKeys) % n).Nth(1)
		case r < 65: // KV request into the vring space
			pkt.DstIP = benchUniPrefix(p).Nth(uint32(2 + rng.Intn(200)))
		case r < 85: // host-to-host physical traffic
			pkt.DstIP = benchHostIP(rng.Intn(n))
			pkt.DstPort = uint16(7000 + rng.Intn(3))
		default: // multicast put
			pkt.DstIP = benchMcPrefix(p).Nth(uint32(2 + rng.Intn(200)))
		}
	}
	return pkts
}
