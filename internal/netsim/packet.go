package netsim

import "fmt"

// Proto identifies the transport carried by a packet. The simulator does
// not serialize payloads; Proto plus the port numbers are what forwarding
// rules and endpoint demultiplexers match on.
type Proto uint8

const (
	// ProtoNone matches any protocol in a forwarding rule.
	ProtoNone Proto = iota
	// ProtoUDP carries datagrams (client requests, multicast data).
	ProtoUDP
	// ProtoTCP carries reliable-stream segments.
	ProtoTCP
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoNone:
		return "any"
	case ProtoUDP:
		return "udp"
	case ProtoTCP:
		return "tcp"
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// Header sizes charged per packet on the wire, approximating
// Ethernet+IP+UDP/TCP overhead.
const (
	UDPHeaderSize = 46 // Ethernet(18) + IP(20) + UDP(8)
	TCPHeaderSize = 58 // Ethernet(18) + IP(20) + TCP(20)
)

// Packet is a simulated frame. Payload carries the message object by
// reference (the simulator never serializes it); Size is the number of
// bytes the packet occupies on the wire and drives all timing and load
// accounting.
type Packet struct {
	SrcIP, DstIP     IP
	SrcMAC, DstMAC   MAC
	Proto            Proto
	SrcPort, DstPort uint16
	Size             int
	Payload          any
	// Holds, when set, counts the holders of a Payload that several
	// packets, queues and readers share; this copy holds it once.
	Holds *Holds
	// Seq is the transport header's sequence field (a multicast chunk's
	// index and ack-request bit, a stream segment's or ack's number). Only
	// the endpoint transports read it: the fabric neither matches on it nor
	// rewrites it, and copies carry it like any other header.
	Seq uint64
	TTL int
	ID  uint64 // unique per original packet; copies share it
}

// DefaultTTL bounds forwarding loops.
const DefaultTTL = 16

// Holds counts the holders of a payload several packets share, so that
// its owner can reuse it once the last one lets go (DESIGN.md §7.2).
// Every copy of a packet that names it in Packet.Holds holds it once: the
// sender's transport for the packet it builds, a clone again
// (ClonePacket), and RecyclePacket lets go. A copy nobody recycles keeps its
// hold, and the payload is never reused. Holders past the fabric — a
// delivery queued at a receiver, the reader of it — hold it in their turn.
type Holds struct {
	n int32
	// Last runs when the last holder lets go; nil does nothing.
	Last func()
}

// Hold adds a holder.
func (h *Holds) Hold() { h.n++ }

// Release removes a holder, running Last if it was the last one.
// Releasing a payload nobody holds panics: its owner may already have
// reused it.
func (h *Holds) Release() {
	if h.n--; h.n <= 0 {
		h.lastGone()
	}
}

// lastGone is Release's slow path, kept out of line so that Release,
// called for every recycled copy, inlines.
//
//go:noinline
func (h *Holds) lastGone() {
	if h.n < 0 {
		panic("netsim: payload released past its last holder")
	}
	if h.Last != nil {
		h.Last()
	}
}

// String summarizes the headers for traces and test failures.
func (pkt *Packet) String() string {
	return fmt.Sprintf("%s %s:%d->%s:%d size=%d id=%d",
		pkt.Proto, pkt.SrcIP, pkt.SrcPort, pkt.DstIP, pkt.DstPort, pkt.Size, pkt.ID)
}
