package netsim

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// LinkConfig describes one link's service characteristics.
type LinkConfig struct {
	// BandwidthBps is the capacity of each direction in bits per second.
	BandwidthBps float64
	// Delay is the one-way propagation delay.
	Delay sim.Time
	// LossRate is the probability in [0,1) that a packet is dropped
	// after serialization; used by tests to exercise the reliable
	// multicast repair path.
	LossRate float64
}

// Gbps returns a LinkConfig for an n-gigabit link with the given delay.
func Gbps(n float64, delay sim.Time) LinkConfig {
	return LinkConfig{BandwidthBps: n * 1e9, Delay: delay}
}

// Mbps returns a LinkConfig for an n-megabit link with the given delay.
func Mbps(n float64, delay sim.Time) LinkConfig {
	return LinkConfig{BandwidthBps: n * 1e6, Delay: delay}
}

// DirStats are the load counters of one link direction.
type DirStats struct {
	Bytes   int64
	Packets int64
}

// linkDir is one direction of a full-duplex link: a FIFO transmitter
// feeding the peer port after a propagation delay.
type linkDir struct {
	net       *Network
	cfg       LinkConfig
	dst       *Port // delivery target
	down      bool  // severed: everything sent is dropped
	busyUntil sim.Time
	stats     DirStats
	// txSize → tx is the last serialization delay computed: a transfer's
	// packets are all one size, so the divide runs once per run of them.
	// The zero memo is correct under any configuration.
	txSize int
	tx     sim.Time
}

// setConfig installs cfg and forgets the memoised serialization delay.
func (d *linkDir) setConfig(cfg LinkConfig) {
	d.cfg = cfg
	d.txSize, d.tx = 0, 0
}

// txTime returns the serialization delay of size bytes.
func (d *linkDir) txTime(size int) sim.Time {
	if size != d.txSize {
		d.txSize, d.tx = size, 0
		if d.cfg.BandwidthBps > 0 {
			sec := float64(size*8) / d.cfg.BandwidthBps
			d.tx = sim.Time(sec * float64(time.Second))
		}
	}
	return d.tx
}

// send serializes pkt onto the wire. Packets queue FIFO behind earlier
// transmissions in the same direction; that queuing is where contention
// effects (slow replicas, hot primaries) come from.
func (d *linkDir) send(pkt *Packet) {
	s := d.net.sim
	start := s.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	done := start + d.txTime(pkt.Size)
	d.busyUntil = done
	d.stats.Bytes += int64(pkt.Size)
	d.stats.Packets++
	if d.down {
		d.net.drops++
		d.net.RecyclePacket(pkt)
		return
	}
	if d.cfg.LossRate > 0 && s.Rand().Float64() < d.cfg.LossRate {
		d.net.drops++
		d.net.RecyclePacket(pkt) // lost on the wire: nobody else holds it
		return
	}
	at := done + d.cfg.Delay
	if sw, ok := d.dst.Dev.(*Switch); ok {
		// A switch hop is one event: the pipeline latency is charged here,
		// and Switch.Recv runs the pipeline on delivery.
		at += sw.latency
	}
	s.At2(at, deliverEvent, d.dst, pkt)
}

// deliverEvent is the static At2 callback for link delivery: no closure is
// allocated per packet in flight.
func deliverEvent(a1, a2 any) { a1.(*Port).deliver(a2.(*Packet)) }

// Link is a full-duplex cable between two ports.
type Link struct {
	Name string
	A, B *Port
	ab   *linkDir // A -> B
	ba   *linkDir // B -> A
}

// StatsAB returns the counters of the A-to-B direction.
func (l *Link) StatsAB() DirStats { return l.ab.stats }

// StatsBA returns the counters of the B-to-A direction.
func (l *Link) StatsBA() DirStats { return l.ba.stats }

// TotalBytes returns bytes carried in both directions.
func (l *Link) TotalBytes() int64 { return l.ab.stats.Bytes + l.ba.stats.Bytes }

// SetConfig changes the link's bandwidth/delay (both directions). The
// quorum experiment uses this to throttle replicas mid-deployment.
func (l *Link) SetConfig(cfg LinkConfig) {
	l.ab.setConfig(cfg)
	l.ba.setConfig(cfg)
}

// Config returns the current configuration (both directions share one).
func (l *Link) Config() LinkConfig { return l.ab.cfg }

// SetDown severs or restores the cable. A down link drops everything
// offered in either direction (counted as network drops) while keeping
// ports attached, modeling a cut or a partition rather than an unplug.
func (l *Link) SetDown(down bool) {
	l.ab.down = down
	l.ba.down = down
}

// SetLossRate changes only the loss probability, leaving capacity and
// delay untouched (fault injection: a flaky cable or an overrun queue).
func (l *Link) SetLossRate(rate float64) {
	l.ab.cfg.LossRate = rate
	l.ba.cfg.LossRate = rate
}

// Port is a device attachment point. Sending on a port transmits on the
// link direction away from the device; packets arriving on the link are
// handed to the owning device's Recv.
type Port struct {
	Dev   Device
	Index int // port number on the owning device
	Name  string
	out   *linkDir
	link  *Link
	peer  *Port
}

// Connected reports whether the port is cabled.
func (p *Port) Connected() bool { return p.out != nil }

// Link returns the attached link, or nil.
func (p *Port) Link() *Link { return p.link }

// Peer returns the port at the far end of the link, or nil.
func (p *Port) Peer() *Port { return p.peer }

// Send transmits pkt out of the port. Sending on an unconnected port
// drops the packet (counted on the network).
func (p *Port) Send(pkt *Packet) {
	if p.out == nil {
		n := p.Dev.Network()
		n.drops++
		n.RecyclePacket(pkt)
		return
	}
	p.out.send(pkt)
}

func (p *Port) deliver(pkt *Packet) {
	p.Dev.Recv(pkt, p)
}

// Device is anything with ports: hosts and switches.
type Device interface {
	// Recv is invoked when a packet arrives on one of the device's ports.
	Recv(pkt *Packet, on *Port)
	// DeviceName identifies the device in traces.
	DeviceName() string
	// Network returns the owning network.
	Network() *Network
}

// Connect cables port index ai of device a to port index bi of device b.
// Devices created by the Network helpers expose their ports; this is the
// low-level API used by the topology builders.
func (n *Network) Connect(a *Port, b *Port, cfg LinkConfig) *Link {
	if a.Connected() || b.Connected() {
		panic(fmt.Sprintf("netsim: port already connected (%s, %s)", a.Name, b.Name))
	}
	l := &Link{
		Name: a.Name + "<->" + b.Name,
		A:    a,
		B:    b,
	}
	l.ab = &linkDir{net: n, cfg: cfg, dst: b}
	l.ba = &linkDir{net: n, cfg: cfg, dst: a}
	a.out = l.ab
	a.link = l
	a.peer = b
	b.out = l.ba
	b.link = l
	b.peer = a
	n.links = append(n.links, l)
	return l
}
