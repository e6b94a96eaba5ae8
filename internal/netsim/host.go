package netsim

import "repro/internal/sim"

// HostStats count application traffic through a host's NIC; the storage
// load-ratio experiment (Fig. 7) reads these.
type HostStats struct {
	BytesSent int64
	BytesRecv int64
	PktsSent  int64
	PktsRecv  int64
}

// Host is an end system with a single NIC. The transport layer (package
// transport) registers a handler to receive packets; the host itself
// implements the small amount of "OS kernel" behaviour the paper assumes:
// NIC address filtering and IP multicast group subscription.
type Host struct {
	name    string
	net     *Network
	ip      IP
	mac     MAC
	port    *Port
	handler func(pkt *Packet)
	mcast   map[IP]bool // subscribed multicast group addresses
	stats   HostStats
	down    bool
	nextID  *uint64
	accepts []Prefix // extra DstIP ranges this host terminates
}

// NewHost creates a host attached to the network with the given address.
func (n *Network) NewHost(name string, ip IP) *Host {
	h := &Host{
		name:   name,
		net:    n,
		ip:     ip,
		mac:    n.nextMAC(),
		mcast:  make(map[IP]bool),
		nextID: &n.pktID,
	}
	h.port = &Port{Dev: h, Index: 0, Name: name + ":eth0"}
	n.hosts = append(n.hosts, h)
	return h
}

// DeviceName implements Device.
func (h *Host) DeviceName() string { return h.name }

// Network implements Device.
func (h *Host) Network() *Network { return h.net }

// IP returns the host's address.
func (h *Host) IP() IP { return h.ip }

// MAC returns the host's link-layer address.
func (h *Host) MAC() MAC { return h.mac }

// Port returns the host's NIC port for cabling.
func (h *Host) Port() *Port { return h.port }

// Stats returns the traffic counters.
func (h *Host) Stats() HostStats { return h.stats }

// SetHandler registers the function receiving packets addressed to this
// host. Exactly one handler is supported; the transport layer
// demultiplexes further.
func (h *Host) SetHandler(fn func(pkt *Packet)) { h.handler = fn }

// SetDown cuts the host off the network: it stops sending and receiving,
// emulating a crashed or disconnected node. Bringing it back up does not
// restore lost packets.
func (h *Host) SetDown(down bool) { h.down = down }

// Down reports whether the host is currently cut off.
func (h *Host) Down() bool { return h.down }

// JoinMulticast subscribes the host to a multicast group address so the
// NIC accepts packets whose destination IP is that group.
func (h *Host) JoinMulticast(group IP) { h.mcast[group] = true }

// LeaveMulticast unsubscribes the host from a group.
func (h *Host) LeaveMulticast(group IP) { delete(h.mcast, group) }

// AcceptPrefix makes the host terminate an extra destination range: the
// NIC delivers unicast packets whose DstIP falls inside p as if they were
// addressed to the host itself. A traffic gateway uses it to sink replies
// addressed to the virtual client space it fronts.
func (h *Host) AcceptPrefix(p Prefix) { h.accepts = append(h.accepts, p) }

// Send fills in the host's source addresses and transmits. A packet with
// no destination MAC goes out as broadcast: the OpenFlow fabric routes on
// IP and rewrites the MAC toward the destination host.
func (h *Host) Send(pkt *Packet) {
	pkt.SrcIP = h.ip
	h.SendFrom(pkt)
}

// SendFrom is Send for a packet whose source IP the caller has already
// set: the NIC keeps pkt.SrcIP instead of stamping its own address. An
// open-loop traffic gateway uses it to emit requests on behalf of many
// virtual clients, so switch rules that classify on source address (the
// load-balancing divisions) see one flow per virtual client rather than
// one per gateway. Everything else — source MAC, destination MAC, TTL, ID,
// counters — is stamped exactly as Send does, and replies addressed to
// the virtual source route back by MAC, not IP.
func (h *Host) SendFrom(pkt *Packet) {
	if h.down {
		h.net.RecyclePacket(pkt) // senders hand off ownership unconditionally
		return
	}
	pkt.SrcMAC = h.mac
	if pkt.DstMAC == 0 {
		pkt.DstMAC = BroadcastMAC
	}
	if pkt.TTL == 0 {
		pkt.TTL = DefaultTTL
	}
	*h.nextID++
	pkt.ID = *h.nextID
	h.stats.BytesSent += int64(pkt.Size)
	h.stats.PktsSent++
	h.net.emitTrace(h.name, "tx", pkt)
	h.port.Send(pkt)
}

// Recv implements Device: NIC filtering, then the registered handler.
func (h *Host) Recv(pkt *Packet, on *Port) {
	// Each delivered packet pointer is unique to this host (switches clone
	// per output port), so drop paths below the handler may recycle it.
	if h.down {
		h.net.RecyclePacket(pkt)
		return
	}
	// NIC filter: our MAC, broadcast, or a subscribed multicast group. Both
	// filters below ask about the group; the table is probed once.
	forMAC := pkt.DstMAC == h.mac || pkt.DstMAC == BroadcastMAC
	forIP := pkt.DstIP == h.ip
	member := !(forMAC && forIP) && h.mcast[pkt.DstIP]
	if !forMAC && !member {
		h.net.drops++
		h.net.RecyclePacket(pkt)
		return
	}
	if !forIP && !member && !h.acceptsDst(pkt.DstIP) {
		h.net.drops++
		h.net.RecyclePacket(pkt)
		return
	}
	h.stats.BytesRecv += int64(pkt.Size)
	h.stats.PktsRecv++
	h.net.emitTrace(h.name, "rx", pkt)
	if h.handler != nil {
		h.handler(pkt)
	}
}

func (h *Host) acceptsDst(ip IP) bool {
	for _, p := range h.accepts {
		if p.Contains(ip) {
			return true
		}
	}
	return false
}

// Sim returns the simulator driving this host's network.
func (h *Host) Sim() *sim.Simulator { return h.net.sim }
