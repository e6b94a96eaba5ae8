package openflow

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netsim"
)

// randPrefix draws a prefix biased toward the shapes the controller
// installs (/16 vring spaces, /24 subgroups, /32 hosts), plus wildcards
// and the occasional unmasked-address prefix that can never match.
func randPrefix(rng *rand.Rand) netsim.Prefix {
	bits := []int{0, 8, 16, 24, 26, 32}[rng.Intn(6)]
	addr := netsim.IPv4(10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(6)))
	if rng.Intn(16) == 0 {
		// Raw construction with stray host bits: Contains never holds.
		return netsim.Prefix{Addr: addr | 1, Bits: bits}
	}
	return netsim.PrefixOf(addr, bits)
}

// randMatch draws a match over a deliberately tiny field space so rules
// overlap, shadow each other, and tie on priority.
func randMatch(rng *rand.Rand) Match {
	m := NewMatch()
	if rng.Intn(2) == 0 {
		m.DstIP = randPrefix(rng)
	}
	if rng.Intn(3) == 0 {
		m.SrcIP = randPrefix(rng)
	}
	if rng.Intn(4) == 0 {
		m.Proto = []netsim.Proto{netsim.ProtoUDP, netsim.ProtoTCP, netsim.ProtoARP}[rng.Intn(3)]
	}
	if rng.Intn(5) == 0 {
		m.SrcPort = uint16(7000 + rng.Intn(3))
	}
	if rng.Intn(5) == 0 {
		m.DstPort = uint16(9000 + rng.Intn(3))
	}
	if rng.Intn(6) == 0 {
		m.InPort = rng.Intn(3)
	}
	return m
}

func randPacket(rng *rand.Rand) *netsim.Packet {
	ports := []uint16{0, 7000, 7001, 7002, 9000, 9001, 9002}
	return &netsim.Packet{
		SrcIP:   netsim.IPv4(10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(6))),
		DstIP:   netsim.IPv4(10, byte(rng.Intn(3)), byte(rng.Intn(4)), byte(rng.Intn(6))),
		Proto:   []netsim.Proto{netsim.ProtoNone, netsim.ProtoUDP, netsim.ProtoTCP, netsim.ProtoARP}[rng.Intn(4)],
		SrcPort: ports[rng.Intn(len(ports))],
		DstPort: ports[rng.Intn(len(ports))],
		Size:    1 + rng.Intn(1400),
	}
}

// sameHit reports whether two tables resolved a probe to the same rule —
// same cookie, same priority/insertion-order tie-break — with the same
// packet and byte counters on it, or missed alike.
func sameHit(a, b *FlowEntry) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Cookie == b.Cookie && a.Priority == b.Priority && a.seq == b.seq &&
		a.Matches() == b.Matches() && a.MatchedBytes() == b.MatchedBytes()
}

// TestDifferentialLookup drives the indexed FlowTable and the linear
// ReferenceTable through identical randomized histories of adds, removes
// (by cookie class, and of one victim when a size bound is reached) and
// lookups — a third of them repeating a recent packet, so the microflow
// cache answers across every kind of table change — and demands that
// every lookup resolves to the identical entry with identical counters,
// or misses in both, and that all tables hold the same number of rules at
// every step. A second FlowTable has its microflow cache emptied before
// every lookup: the cache may change no result and no counter. Well over
// 10k (ruleset, packet) cases.
func TestDifferentialLookup(t *testing.T) {
	const (
		iterations = 400
		opsPerIter = 160
	)
	lookups, repeats := 0, 0
	for iter := 0; iter < iterations; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		ft := NewFlowTable()
		cold := NewFlowTable() // ft with its microflow cache always empty
		rt := NewReferenceTable()
		bound := 0
		if iter%3 == 0 {
			bound = 12 + rng.Intn(12) // every add past it removes a victim first
		}
		type probe struct {
			pkt    *netsim.Packet
			inPort int
		}
		var recent []probe
		nrules := 0
		for op := 0; op < opsPerIter; op++ {
			switch r := rng.Intn(100); {
			case r < 25: // install a rule in all tables
				if bound > 0 && rt.Len() >= bound {
					victim := rt.Entries()[rng.Intn(rt.Len())].Cookie
					isVictim := func(e *FlowEntry) bool { return e.Cookie == victim }
					ft.Remove(isVictim)
					cold.Remove(isVictim)
					rt.Remove(isVictim)
				}
				e := FlowEntry{
					Priority: rng.Intn(5),
					Match:    randMatch(rng),
					Cookie:   fmt.Sprintf("c%d.r%d", rng.Intn(4), nrules),
				}
				nrules++
				ft.Add(e)
				cold.Add(e)
				rt.Add(e)
			case r < 32: // remove a random cookie class from all
				pfx := fmt.Sprintf("c%d.", rng.Intn(4))
				ft.RemoveCookie(pfx)
				cold.RemoveCookie(pfx)
				rt.RemoveCookie(pfx)
			default: // differential probe, fresh or repeated
				pr := probe{randPacket(rng), rng.Intn(4) - 1}
				if len(recent) > 0 && rng.Intn(3) == 0 {
					pr = recent[rng.Intn(len(recent))]
					repeats++
				} else if len(recent) < 8 {
					recent = append(recent, pr)
				} else {
					recent[rng.Intn(len(recent))] = pr
				}
				got := ft.Lookup(pr.pkt, pr.inPort)
				cold.ver++
				uncached := cold.Lookup(pr.pkt, pr.inPort)
				want := rt.Lookup(pr.pkt, pr.inPort)
				lookups++
				if !sameHit(got, want) {
					t.Fatalf("iter %d op %d pkt %v in=%d: indexed hit %v, reference hit %v",
						iter, op, pr.pkt, pr.inPort, got, want)
				}
				if !sameHit(got, uncached) {
					t.Fatalf("iter %d op %d pkt %v in=%d: hit %v, with the microflow cache emptied %v",
						iter, op, pr.pkt, pr.inPort, got, uncached)
				}
			}
			if ft.Len() != rt.Len() || cold.Len() != rt.Len() {
				t.Fatalf("iter %d op %d: %d entries, %d with the microflow cache emptied, reference %d",
					iter, op, ft.Len(), cold.Len(), rt.Len())
			}
		}
	}
	if lookups < 10000 || repeats < 3000 {
		t.Fatalf("only %d differential lookups (%d of a repeated packet) exercised, want >= 10000 (3000)", lookups, repeats)
	}
}

// TestMicroflowFollowsTableChanges walks one packet through every way the
// rule that wins it can change between two identical lookups: a shadowing
// higher-priority rule added, removed by predicate, and removed by cookie.
func TestMicroflowFollowsTableChanges(t *testing.T) {
	tbl := NewFlowTable()
	pkt := udp("1.1.1.1", "10.0.0.5")
	expect := func(want string) {
		t.Helper()
		got := "miss"
		if e := tbl.Lookup(pkt, 0); e != nil {
			got = e.Cookie
		}
		if got != want {
			t.Fatalf("lookup resolved to %s, want %s", got, want)
		}
	}
	expect("miss")
	tbl.Add(FlowEntry{Priority: 1, Match: MatchDst(pfx("10.0.0.0/8")), Cookie: "low"})
	expect("low") // a remembered miss does not outlive the add
	expect("low")
	tbl.Add(FlowEntry{Priority: 5, Match: MatchDst(pfx("10.0.0.0/24")), Cookie: "high"})
	expect("high")
	tbl.Remove(func(e *FlowEntry) bool { return e.Cookie == "high" })
	expect("low")
	tbl.Add(FlowEntry{Priority: 5, Match: MatchDst(pfx("10.0.0.5/32")), Cookie: "host.a"})
	expect("host.a")
	tbl.RemoveCookie("host.")
	expect("low")
}

// TestMicroflowCollidingTuples: two flows that hash to the same slot of the
// direct-mapped cache evict each other on every packet and still each
// resolve to their own rule, with their own counters.
func TestMicroflowCollidingTuples(t *testing.T) {
	tbl := NewFlowTable()
	a := udp("1.1.1.1", "10.0.0.5")
	var b *netsim.Packet
	for i := 0; b == nil; i++ {
		c := udp("1.1.1.1", "10.0.0.5")
		c.DstIP = netsim.IPv4(10, 1, byte(i>>8), byte(i))
		if tupleOf(c, 0).slot() == tupleOf(a, 0).slot() {
			b = c
		}
	}
	ea := tbl.Add(FlowEntry{Priority: 1, Match: MatchDst(pfx("10.0.0.0/16")), Cookie: "a"})
	eb := tbl.Add(FlowEntry{Priority: 1, Match: MatchDst(pfx("10.1.0.0/16")), Cookie: "b"})
	for i := 0; i < 10; i++ {
		if e := tbl.Lookup(a, 0); e != ea {
			t.Fatalf("round %d: flow a resolved to %v", i, e)
		}
		if e := tbl.Lookup(b, 0); e != eb {
			t.Fatalf("round %d: flow b resolved to %v", i, e)
		}
		if i%2 == 1 { // and twice in a row, so the slot also answers
			if e := tbl.Lookup(b, 0); e != eb {
				t.Fatalf("round %d: flow b resolved to %v the second time", i, e)
			}
		}
	}
	if ea.Matches() != 10 || eb.Matches() != 15 || ea.MatchedBytes() != 10*int64(a.Size) {
		t.Fatalf("counters: a %d packets %d bytes, b %d packets", ea.Matches(), ea.MatchedBytes(), eb.Matches())
	}
}

// TestEntriesSnapshotIsolated verifies Entries hands out a copy: callers
// shuffling or truncating the slice must not corrupt index invariants.
func TestEntriesSnapshotIsolated(t *testing.T) {
	tbl := NewFlowTable()
	tbl.Add(FlowEntry{Priority: 2, Match: MatchDst(pfx("10.0.0.0/8")), Cookie: "a"})
	tbl.Add(FlowEntry{Priority: 1, Match: NewMatch(), Cookie: "b"})
	es := tbl.Entries()
	es[0], es[1] = es[1], es[0]
	es[0] = nil
	if got := tbl.Entries(); got[0] == nil || got[0].Cookie != "a" || got[1].Cookie != "b" {
		t.Fatalf("table order corrupted through Entries snapshot: %v", got)
	}
	if e := tbl.Lookup(udp("1.1.1.1", "10.0.0.5"), 0); e == nil || e.Cookie != "a" {
		t.Fatalf("lookup after snapshot mutation = %v, want a", e)
	}
}
