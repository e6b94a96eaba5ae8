package controller

import (
	"repro/internal/netsim"
	"repro/internal/openflow"
)

// PacketIn implements openflow.ControllerHandler. Every physical host is
// registered before traffic (RegisterHost at Start and by the harness), so
// a table miss is for a virtual address whose mapping is not on the
// switch, or it is a counted drop.
func (svc *Service) PacketIn(dp *openflow.Datapath, pkt *netsim.Packet, inPort int) {
	// A punted packet is the controller's to dispose: every branch below
	// recycles it on the way out.
	net := dp.Switch().Network()
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
				out := net.ClonePacket(pkt)
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
	dp.Switch().Drop(pkt)
}
