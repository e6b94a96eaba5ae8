package netsim

import (
	"repro/internal/sim"
)

// Network is the registry of all devices and links in one simulated
// fabric, plus fabric-wide load accounting.
type Network struct {
	sim      *sim.Simulator
	hosts    []*Host
	switches []*Switch
	links    []*Link
	macSeq   uint64
	pktID    uint64
	drops    int64
	taps     []tapEntry // in registration order
	tapSeq   int
	pktFree  sim.Free[Packet] // recycled packet structs; see NewPacket
}

// maxFreePackets bounds the packet free list. A multicast fan-out burst
// can momentarily clone hundreds of packets; anything beyond the cap is
// left to the garbage collector.
const maxFreePackets = 1024

// NewPacket returns a zeroed packet from the network's free list (or a
// fresh allocation), stamped with a unique ID. Packets are single-threaded
// within the owning simulator, so the free list needs no locking.
//
// Ownership discipline: a packet handed to Host.Send belongs to the
// fabric. The fabric recycles it at terminal drop points; receivers that
// provably copy everything they need out of the packet (the transport
// stack) recycle it after dispatch. Code that retains a packet beyond the
// current event (the OpenFlow punt path, taps that keep pointers) must
// copy it first (ClonePacket) or simply never recycle.
func (n *Network) NewPacket() *Packet {
	n.pktID++
	pkt := n.pktFree.Take()
	if pkt == nil {
		pkt = new(Packet)
	}
	*pkt = Packet{ID: n.pktID}
	return pkt
}

// ClonePacket returns a copy of pkt (payload shared, same ID) drawn from
// the free list. Used for multicast fan-out, flooding, and OpenFlow
// rewrite actions.
func (n *Network) ClonePacket(pkt *Packet) *Packet {
	c := n.pktFree.Take()
	if c == nil {
		c = new(Packet)
	}
	*c = *pkt
	if c.Holds != nil {
		c.Holds.Hold()
	}
	return c
}

// RecyclePacket returns pkt to the free list. Callers must be the sole
// owner: the packet must not be queued on any link, referenced by a tap
// that retains pointers, or held by the controller.
func (n *Network) RecyclePacket(pkt *Packet) {
	if pkt == nil {
		return
	}
	if h := pkt.Holds; h != nil {
		pkt.Holds = nil
		h.Release()
	}
	pkt.Payload = nil // drop the payload reference so the GC can reclaim it
	n.pktFree.Put(pkt)
}

// NewNetwork creates an empty fabric driven by s.
func NewNetwork(s *sim.Simulator) *Network {
	n := &Network{sim: s}
	n.pktFree.Max = maxFreePackets
	return n
}

// Sim returns the driving simulator.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// Hosts returns all hosts in creation order.
func (n *Network) Hosts() []*Host { return n.hosts }

// Switches returns all switches in creation order.
func (n *Network) Switches() []*Switch { return n.switches }

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// Drops reports packets discarded anywhere in the fabric (NIC filters,
// unconnected ports, TTL exhaustion, pipeline drops are counted on the
// switch instead).
func (n *Network) Drops() int64 { return n.drops }

// nextMAC hands out unique MACs with a locally-administered prefix.
func (n *Network) nextMAC() MAC {
	n.macSeq++
	return MAC(0x020000000000 | n.macSeq)
}

// TotalLinkBytes sums the bytes carried by every link in both directions:
// the paper's "total network link load" metric (Fig. 6).
func (n *Network) TotalLinkBytes() int64 {
	var total int64
	for _, l := range n.links {
		total += l.TotalBytes()
	}
	return total
}

// ResetLinkStats zeroes every link counter (used between experiment
// phases so warm-up traffic is not measured).
func (n *Network) ResetLinkStats() {
	for _, l := range n.links {
		l.ab.stats = DirStats{}
		l.ba.stats = DirStats{}
	}
}

// ResetHostStats zeroes every host counter.
func (n *Network) ResetHostStats() {
	for _, h := range n.hosts {
		h.stats = HostStats{}
	}
}
