package netsim

import "repro/internal/sim"

// Pipeline is a switch's forwarding logic. netsim itself is
// forwarding-agnostic; package openflow provides the flow-table pipeline,
// and tests use simple function pipelines.
type Pipeline interface {
	// Process decides what to do with pkt, which arrived on inPort. It
	// runs after the switch's pipeline latency has elapsed and emits
	// output by calling sw.Output (possibly on several ports, possibly
	// never, possibly later — e.g. after consulting a controller).
	Process(sw *Switch, pkt *Packet, inPort int)
}

// PipelineFunc adapts a function to the Pipeline interface.
type PipelineFunc func(sw *Switch, pkt *Packet, inPort int)

// Process implements Pipeline.
func (f PipelineFunc) Process(sw *Switch, pkt *Packet, inPort int) { f(sw, pkt, inPort) }

// SwitchStats count the traffic a switch moved.
type SwitchStats struct {
	PktsIn   int64
	PktsOut  int64
	BytesIn  int64
	BytesOut int64
	Dropped  int64
}

// Switch is a store-and-forward packet switch with a fixed per-packet
// pipeline latency and a pluggable forwarding pipeline. A hardware
// OpenFlow switch and a client-side Open vSwitch differ only in their
// latency configuration (the paper measured software rewriting to be much
// slower on some platforms; §5.1).
type Switch struct {
	name    string
	net     *Network
	ports   []*Port
	pipe    Pipeline
	latency sim.Time
	stats   SwitchStats
}

// NewSwitch creates a switch with nports ports and the given per-packet
// pipeline latency.
func (n *Network) NewSwitch(name string, nports int, latency sim.Time) *Switch {
	sw := &Switch{name: name, net: n, latency: latency}
	sw.ports = make([]*Port, nports)
	for i := range sw.ports {
		sw.ports[i] = &Port{Dev: sw, Index: i, Name: switchPortName(name, i)}
	}
	n.switches = append(n.switches, sw)
	return sw
}

func switchPortName(name string, i int) string {
	const digits = "0123456789"
	if i < 10 {
		return name + ":p" + digits[i:i+1]
	}
	return name + ":p" + digits[i/10:i/10+1] + digits[i%10:i%10+1]
}

// DeviceName implements Device.
func (sw *Switch) DeviceName() string { return sw.name }

// Network implements Device.
func (sw *Switch) Network() *Network { return sw.net }

// Port returns port i.
func (sw *Switch) Port(i int) *Port { return sw.ports[i] }

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// Stats returns the switch counters.
func (sw *Switch) Stats() SwitchStats { return sw.stats }

// SetPipeline installs the forwarding logic.
func (sw *Switch) SetPipeline(p Pipeline) { sw.pipe = p }

// Pipeline returns the installed forwarding logic.
func (sw *Switch) Pipeline() Pipeline { return sw.pipe }

// Sim returns the simulator driving this switch's network.
func (sw *Switch) Sim() *sim.Simulator { return sw.net.sim }

// Recv implements Device: run the forwarding pipeline. The link that
// delivers pkt has already charged the pipeline latency (linkDir.send).
func (sw *Switch) Recv(pkt *Packet, on *Port) {
	sw.stats.PktsIn++
	sw.stats.BytesIn += int64(pkt.Size)
	if pkt.TTL <= 0 {
		sw.stats.Dropped++
		sw.net.RecyclePacket(pkt)
		return
	}
	pkt.TTL--
	if sw.pipe == nil {
		sw.stats.Dropped++
		sw.net.RecyclePacket(pkt)
		return
	}
	sw.pipe.Process(sw, pkt, on.Index)
}

// Output transmits pkt on port i, taking ownership: a packet aimed at a
// disconnected port goes back to the pool. Multicast pipelines call this
// once per port with cloned packets.
func (sw *Switch) Output(i int, pkt *Packet) {
	if i < 0 || i >= len(sw.ports) || !sw.ports[i].Connected() {
		sw.stats.Dropped++
		sw.net.RecyclePacket(pkt)
		return
	}
	sw.stats.PktsOut++
	sw.stats.BytesOut += int64(pkt.Size)
	sw.ports[i].Send(pkt)
}

// Flood transmits clones of pkt on every connected port except the one it
// arrived on. pkt itself is borrowed: the caller still owns it.
func (sw *Switch) Flood(pkt *Packet, inPort int) {
	for i, p := range sw.ports {
		if i == inPort || !p.Connected() {
			continue
		}
		sw.Output(i, sw.net.ClonePacket(pkt))
	}
}

// Drop records a pipeline decision to discard the packet and returns it
// to the pool. The caller must own pkt exclusively; pass nil to count a
// drop of a packet someone else (e.g. the controller) now holds.
func (sw *Switch) Drop(pkt *Packet) {
	sw.stats.Dropped++
	sw.net.RecyclePacket(pkt)
}
