package controller

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/openflow"
)

// arpQuiet is how long the controller suppresses repeat ARPs for the same
// address ("a list of recently ARPed addresses to avoid flooding", §5).
const arpQuiet = 100 * time.Millisecond

// maxPendingPerAddr bounds the controller's packet buffer per unresolved
// address.
const maxPendingPerAddr = 64

// PacketIn implements openflow.ControllerHandler: the layer-3 learning
// switch of §5. Virtual addresses are mapped eagerly at Start, so a
// PacketIn means either an ARP reply to learn from, or a packet for a
// physical address the controller has not located yet — those are
// buffered while an ARP request is broadcast.
func (svc *Service) PacketIn(dp *openflow.Datapath, pkt *netsim.Packet, inPort int) {
	// A punted packet is the controller's to dispose: every branch below
	// either buffers it in svc.pending or recycles it on the way out.
	net := dp.Switch().Network()
	if pkt.Proto == netsim.ProtoARP {
		if arp, ok := pkt.Payload.(*netsim.ARPPayload); ok && arp.Op == netsim.ARPReply {
			svc.learn(arp.SenderIP, arp.Sender)
		}
		net.RecyclePacket(pkt)
		return
	}
	// A vnode address whose mapping is not on the switch (a collapsed
	// partition, removed rules): re-install that partition's vring
	// mapping and forward this packet along the unicast path. Multicast
	// first-packets are simply dropped here — the reliable multicast
	// transport retransmits within its RTO, by which time the rules and
	// groups have landed (§5 mapping service).
	if part, ok := svc.cfg.Unicast.PartitionOfAddr(pkt.DstIP); ok {
		svc.installPartition(part)
		// A fully collapsed partition (every replica failed) has no
		// primary to forward to: the packet is dropped and the client
		// retries until an operator or a rejoin restores the view.
		if v := svc.views[part]; len(v.Replicas) > 0 {
			primary := v.Primary()
			if port, ok := svc.fabric.PortToward(dp, primary.IP); ok {
				out := pkt.Clone()
				out.DstIP = primary.IP
				out.DstMAC = primary.MAC
				dp.PacketOut(out, port)
			}
		}
		net.RecyclePacket(pkt)
		return
	}
	if part, ok := svc.cfg.Multicast.PartitionOfAddr(pkt.DstIP); ok {
		svc.installPartition(part)
		net.RecyclePacket(pkt)
		return
	}
	if mac, ok := svc.known[pkt.DstIP]; ok {
		// Location known but the rule had not landed when this packet hit
		// the table: forward it directly.
		if port, ok := svc.fabric.PortToward(dp, pkt.DstIP); ok {
			out := pkt.Clone()
			out.DstMAC = mac
			dp.PacketOut(out, port)
		}
		net.RecyclePacket(pkt)
		return
	}
	// Unknown destination: buffer and resolve.
	q := svc.pending[pkt.DstIP]
	if len(q) < maxPendingPerAddr {
		svc.pending[pkt.DstIP] = append(q, pendingPkt{dp: dp, pkt: pkt, inPort: inPort})
	} else {
		net.RecyclePacket(pkt) // buffer full: this one is dropped
	}
	if last, ok := svc.arped[pkt.DstIP]; ok && svc.s.Now()-last < arpQuiet {
		return
	}
	svc.arped[pkt.DstIP] = svc.s.Now()
	svc.broadcastARP(pkt.DstIP)
}

// broadcastARP floods an ARP request for ip from the metadata host.
func (svc *Service) broadcastARP(ip netsim.IP) {
	for _, dp := range svc.fabric.Datapaths() {
		req := &netsim.Packet{
			SrcIP:   svc.stack.IP(),
			SrcMAC:  svc.stack.Host().MAC(),
			DstIP:   ip,
			DstMAC:  netsim.BroadcastMAC,
			Proto:   netsim.ProtoARP,
			Size:    netsim.ARPPacketSize,
			Payload: &netsim.ARPPayload{Op: netsim.ARPRequest, TargetIP: ip, SenderIP: svc.stack.IP()},
		}
		dp.PacketOut(req, openflow.FloodPort)
	}
}

// learn records a discovered host, installs its forwarding rules, and
// flushes packets buffered for it.
func (svc *Service) learn(ip netsim.IP, mac netsim.MAC) {
	if _, ok := svc.known[ip]; !ok {
		svc.known[ip] = mac
		svc.installPhysRules(ip, mac)
	}
	buffered := svc.pending[ip]
	delete(svc.pending, ip)
	for _, pp := range buffered {
		if port, ok := svc.fabric.PortToward(pp.dp, ip); ok {
			out := pp.pkt.Clone()
			out.DstMAC = mac
			pp.dp.PacketOut(out, port)
		}
		pp.dp.Switch().Network().RecyclePacket(pp.pkt)
	}
}
