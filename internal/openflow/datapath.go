package openflow

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// ControllerHandler is implemented by the SDN controller (package
// controller). PacketIn delivers a punted packet after the control-channel
// latency.
type ControllerHandler interface {
	PacketIn(dp *Datapath, pkt *netsim.Packet, inPort int)
}

// Stage is a function resident in the switch pipeline ahead of the flow
// tables (the hot-key cache, the dirty set). Process sees every packet the
// stages before it passed on and reports whether it consumed pkt —
// answered or dropped it, taking ownership. A packet it passes on,
// possibly rewritten, goes to the next stage and finally the flow-table
// lookup.
type Stage interface {
	Process(sw *netsim.Switch, pkt *netsim.Packet, inPort int) (consumed bool)
}

// ControlStats count control-channel messages; the membership-scalability
// experiment reads these.
type ControlStats struct {
	PacketIns  int64
	PacketOuts int64
	FlowMods   int64
	GroupMods  int64
	CtrlDrops  int64 // PacketIns/PacketOuts lost to an injected control fault
	FencedMods int64 // mutations rejected for a stale controller writer generation
}

// Datapath attaches OpenFlow forwarding to a netsim switch: an ordered
// chain of stages, a flow table, a group table, and a control channel to
// at most one controller. Control messages in either direction are
// delayed by CtrlDelay, modeling the controller living on the management
// network.
type Datapath struct {
	name      string
	sw        *netsim.Switch
	stages    []Stage
	table     *FlowTable
	groups    *GroupTable
	handler   ControllerHandler
	ctrlDelay sim.Time
	stats     ControlStats

	// Injected control-channel fault (SetControlFault): extra latency on
	// every control message, and a drop probability for the packet-carrying
	// ones. lastDeliver keeps the channel FIFO when the extra delay changes
	// mid-run — the control session is ordered like the TCP channel it
	// models, so a mod issued during a fault window must not be overtaken
	// by one issued after it.
	ctrlExtra   sim.Time
	ctrlDrop    float64
	lastDeliver sim.Time

	// writerFence is the lowest controller writer generation this
	// datapath still accepts mutations from. A promoted standby raises
	// it past the old primary's generation at takeover, so a zombie
	// controller returning after a split brain cannot clobber the
	// fabric. Zero means unfenced (the legacy single-writer world).
	writerFence uint64

	// stageQ holds the stage commands in flight, oldest at stageHead.
	// The control channel delivers in submission order, so each
	// delivery applies the oldest one.
	stageQ    []pendingCmd
	stageHead int
}

// StageCmd is one controller→switch command for a stage (StageCommand).
type StageCmd interface {
	// Apply runs switch-side; admitted reports whether the command's
	// writer generation still passes the fence.
	Apply(admitted bool)
}

// StageFunc adapts a function to a StageCmd.
type StageFunc func(admitted bool)

// Apply calls f.
func (f StageFunc) Apply(admitted bool) { f(admitted) }

// pendingCmd is a stage command and the writer generation it was issued
// under.
type pendingCmd struct {
	gen uint64
	cmd StageCmd
}

// Attach builds a datapath on sw and installs it as the switch pipeline.
func Attach(sw *netsim.Switch, ctrlDelay sim.Time) *Datapath {
	dp := &Datapath{
		name:      sw.DeviceName(),
		sw:        sw,
		table:     NewFlowTable(),
		groups:    NewGroupTable(),
		ctrlDelay: ctrlDelay,
	}
	sw.SetPipeline(dp)
	return dp
}

// Name returns the underlying switch name.
func (dp *Datapath) Name() string { return dp.name }

// Switch returns the underlying netsim switch.
func (dp *Datapath) Switch() *netsim.Switch { return dp.sw }

// Table exposes the flow table (controllers and tests inspect it).
func (dp *Datapath) Table() *FlowTable { return dp.table }

// Groups exposes the group table.
func (dp *Datapath) Groups() *GroupTable { return dp.groups }

// Stats returns control-channel message counters.
func (dp *Datapath) Stats() ControlStats { return dp.stats }

// AddStage appends st to the stage chain; stages run in the order added.
// Call before traffic starts.
func (dp *Datapath) AddStage(st Stage) { dp.stages = append(dp.stages, st) }

// SetController registers the controller receiving PacketIns.
func (dp *Datapath) SetController(h ControllerHandler) { dp.handler = h }

// SetControlFault injects management-network trouble: extraDelay is added
// to every control-channel exchange, and dropRate loses punted packets
// and packet-outs with that probability. Flow mods, group mods and stage
// commands are delayed but never dropped — they ride the reliable control
// session — and the channel stays FIFO across delay changes. Zero both to
// restore health.
func (dp *Datapath) SetControlFault(extraDelay sim.Time, dropRate float64) {
	dp.ctrlExtra = extraDelay
	dp.ctrlDrop = dropRate
}

// RaiseWriterFence raises the control-plane writer fence: after a
// controller acquires generation gen and calls this, flow/group/cache
// mutations stamped with any older generation are rejected. The fence
// is monotonic — a zombie cannot lower it.
func (dp *Datapath) RaiseWriterFence(gen uint64) {
	if gen > dp.writerFence {
		dp.writerFence = gen
	}
}

// WriterAllowed reports whether writer generation gen may still mutate
// this datapath, counting rejections. Generation 0 is the legacy
// unfenced writer and is always allowed.
func (dp *Datapath) WriterAllowed(gen uint64) bool {
	if gen != 0 && gen < dp.writerFence {
		dp.stats.FencedMods++
		return false
	}
	return true
}

// ctrlSched schedules fn one control-channel traversal from now.
func (dp *Datapath) ctrlSched(fn func()) {
	dp.sw.Sim().At(dp.ctrlAt(), fn)
}

// ctrlAt returns the delivery time of a control message sent now,
// honouring the injected extra delay and the channel's FIFO ordering.
func (dp *Datapath) ctrlAt() sim.Time {
	t := dp.sw.Sim().Now() + dp.ctrlDelay + dp.ctrlExtra
	if t < dp.lastDeliver {
		t = dp.lastDeliver
	}
	dp.lastDeliver = t
	return t
}

// ctrlLossy reports whether a packet-carrying control message is lost to
// the injected fault. The RNG is only consulted while a fault is active,
// so healthy runs consume no randomness here.
func (dp *Datapath) ctrlLossy() bool {
	if dp.ctrlDrop > 0 && dp.sw.Sim().Rand().Float64() < dp.ctrlDrop {
		dp.stats.CtrlDrops++
		return true
	}
	return false
}

// Process implements netsim.Pipeline: the stages in order, then the flow
// tables. A table miss is punted to the controller.
func (dp *Datapath) Process(sw *netsim.Switch, pkt *netsim.Packet, inPort int) {
	for _, st := range dp.stages {
		if st.Process(sw, pkt, inPort) {
			return
		}
	}
	entry := dp.table.Lookup(pkt, inPort)
	if entry == nil {
		dp.punt(pkt, inPort)
		return
	}
	dp.apply(entry.Actions, pkt, inPort)
}

// apply executes an action list on pkt, which it owns: every path hands
// the packet (or a clone) onward or returns it to the pool. The delivered
// packet is exclusively ours (links and clones hand out unique pointers),
// so set-field actions mutate it in place, and an Output in final
// position transmits it directly — the common rewrite rule moves a packet
// through the pipeline with zero copies. Only a punt surrenders
// ownership (the controller buffers punted packets), after which a later
// set-field or the disposal below must not touch pkt.
func (dp *Datapath) apply(actions []Action, pkt *netsim.Packet, inPort int) {
	net := dp.sw.Network()
	cur := pkt
	owned := true
	emitted := false
	for i, a := range actions {
		switch a := a.(type) {
		case SetDstIP:
			if !owned {
				cur = net.ClonePacket(cur)
				owned = true
			}
			cur.DstIP = a.IP
		case SetSrcIP:
			if !owned {
				cur = net.ClonePacket(cur)
				owned = true
			}
			cur.SrcIP = a.IP
		case SetDstMAC:
			if !owned {
				cur = net.ClonePacket(cur)
				owned = true
			}
			cur.DstMAC = a.MAC
		case SetSrcMAC:
			if !owned {
				cur = net.ClonePacket(cur)
				owned = true
			}
			cur.SrcMAC = a.MAC
		case Output:
			if owned && i == len(actions)-1 {
				dp.sw.Output(a.Port, cur)
				owned = false
			} else {
				dp.sw.Output(a.Port, net.ClonePacket(cur))
			}
			emitted = true
		case OutputGroup:
			dp.applyGroup(a.Group, cur, inPort) // borrows cur
			emitted = true
		case Flood:
			dp.sw.Flood(cur, inPort) // clones per port, borrows cur
			emitted = true
		case ToController:
			dp.punt(cur, inPort)
			owned = false // the controller now holds cur
			emitted = true
		case Drop:
			if !owned {
				cur = nil
			}
			dp.sw.Drop(cur)
			return
		}
	}
	switch {
	case !emitted:
		if !owned {
			cur = nil
		}
		dp.sw.Drop(cur)
	case owned:
		net.RecyclePacket(cur)
	}
}

// applyGroup fans the packet out through an ALL-type group: every bucket
// gets its own copy. pkt is borrowed — the caller disposes of it.
func (dp *Datapath) applyGroup(id GroupID, pkt *netsim.Packet, inPort int) {
	g, ok := dp.groups.Get(id)
	if !ok {
		dp.sw.Drop(nil) // count it; the caller still owns pkt
		return
	}
	for _, b := range g.Buckets {
		dp.apply(b.Actions, dp.sw.Network().ClonePacket(pkt), inPort)
	}
}

// punt sends a PacketIn to the controller after the control latency, or
// drops pkt when no controller is attached.
func (dp *Datapath) punt(pkt *netsim.Packet, inPort int) {
	if dp.handler == nil {
		dp.sw.Drop(pkt)
		return
	}
	if dp.ctrlLossy() {
		dp.sw.Drop(pkt)
		return
	}
	dp.stats.PacketIns++
	dp.Upcall(func(_, _ any) { dp.handler.PacketIn(dp, pkt, inPort) }, nil, nil)
}

// Upcall runs fn(a1, a2) controller-side one switch→controller traversal
// from now: a packet-in's latency, for what a stage mirrors up beside
// packets (the cache's miss samples). As with sim.At2, a static fn whose
// context rides in a1 and a2 allocates nothing.
func (dp *Datapath) Upcall(fn func(a1, a2 any), a1, a2 any) {
	s := dp.sw.Sim()
	s.At2(s.Now()+dp.ctrlDelay+dp.ctrlExtra, fn, a1, a2)
}

// Control-plane operations. Each models one controller-to-switch message:
// it is counted immediately and takes effect after the control latency.

// AddFlow installs a rule.
func (dp *Datapath) AddFlow(e FlowEntry) {
	dp.stats.FlowMods++
	dp.ctrlSched(func() {
		dp.table.Add(e)
	})
}

// Barrier schedules fn on the control channel behind every mod
// submitted so far — the OpenFlow barrier-request/reply pattern. When
// fn runs, all earlier AddFlow/RemoveFlows/SetGroup calls have been
// applied by the switch.
func (dp *Datapath) Barrier(fn func()) {
	dp.ctrlSched(fn)
}

// StageCommand carries one controller→switch command for a stage: cmd
// applies switch-side behind every mod and command submitted so far — a
// flow mod's latency, injected fault and FIFO order, without counting as
// one — and is told whether writer generation gen still passes the fence
// at that instant, so a command in flight across a takeover is refused
// where it applies. Queuing a command allocates nothing once the queue
// has grown to the commands in flight.
func (dp *Datapath) StageCommand(gen uint64, cmd StageCmd) {
	if dp.stageHead > 0 && len(dp.stageQ) == cap(dp.stageQ) {
		n := copy(dp.stageQ, dp.stageQ[dp.stageHead:])
		clear(dp.stageQ[n:])
		dp.stageQ, dp.stageHead = dp.stageQ[:n], 0
	}
	dp.stageQ = append(dp.stageQ, pendingCmd{gen, cmd})
	dp.sw.Sim().At2(dp.ctrlAt(), applyStageCmd, dp, nil)
}

// applyStageCmd delivers the oldest stage command in flight.
func applyStageCmd(a1, _ any) {
	dp := a1.(*Datapath)
	c := dp.stageQ[dp.stageHead]
	dp.stageQ[dp.stageHead] = pendingCmd{}
	if dp.stageHead++; dp.stageHead == len(dp.stageQ) {
		dp.stageQ, dp.stageHead = dp.stageQ[:0], 0
	}
	c.cmd.Apply(dp.WriterAllowed(c.gen))
}

// RemoveFlows deletes rules matching pred.
func (dp *Datapath) RemoveFlows(pred func(*FlowEntry) bool) {
	dp.stats.FlowMods++
	dp.ctrlSched(func() {
		dp.table.Remove(pred)
	})
}

// RemoveCookie deletes rules whose cookie starts with prefix.
func (dp *Datapath) RemoveCookie(prefix string) {
	dp.stats.FlowMods++
	dp.ctrlSched(func() {
		dp.table.RemoveCookie(prefix)
	})
}

// SetGroup installs or replaces a group.
func (dp *Datapath) SetGroup(g Group) {
	dp.stats.GroupMods++
	dp.ctrlSched(func() {
		dp.groups.Set(g)
	})
}

// PacketOut injects a packet out of a specific port (or floods it with
// port = FloodPort).
func (dp *Datapath) PacketOut(pkt *netsim.Packet, outPort int) {
	if dp.ctrlLossy() {
		dp.sw.Drop(pkt)
		return
	}
	dp.stats.PacketOuts++
	dp.ctrlSched(func() {
		if outPort == FloodPort {
			dp.sw.Flood(pkt, -1) // per-port clones; the original goes back
			dp.sw.Network().RecyclePacket(pkt)
			return
		}
		dp.sw.Output(outPort, pkt)
	})
}

// FloodPort is the PacketOut pseudo-port that floods all ports.
const FloodPort = -2
