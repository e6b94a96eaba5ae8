package controller

import (
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/transport"
)

// This file implements the metadata-service extension sketched in §4.1:
// "One approach we are currently investigating is having a hot standby
// replica of the metadata node. Two workload characteristics make this
// design feasible: the stored metadata is small and changes
// infrequently, and the load on our metadata service is low."
//
// The active service writes every state change through to the state
// store it shares with the standby (a ChainStore; store.go) and pings
// the standby each heartbeat period. When the pings stop, the standby
// promotes itself: it reads the coordination state back from the chain
// tail, reinstalls the forwarding state, and — in proper NICE fashion —
// uses the switch itself to take over the service identity, installing a
// rule that rewrites packets addressed to the old metadata address onto
// its own host. Storage nodes keep heartbeating the address they always
// knew.

// MetaPing is the active service's liveness beacon to its standby.
type MetaPing struct {
	Seq uint64
}

// startStandbyPing beacons the configured standby every heartbeat
// period. State never travels this way: the standby reads it from the
// shared store at takeover.
func (svc *Service) startStandbyPing() {
	if svc.cfg.StandbyIP == 0 {
		return
	}
	svc.s.Spawn("metadata-standby-ping", func(p *sim.Proc) {
		var seq uint64
		for {
			p.Sleep(svc.cfg.HeartbeatEvery)
			seq++
			svc.ctrl.SendTo(svc.cfg.StandbyIP, svc.cfg.StandbyPort, &MetaPing{Seq: seq}, 64)
		}
	})
}

// RestoreState overwrites the service's views and node statuses with a
// state-store snapshot; used by a standby immediately before Start.
func (svc *Service) RestoreState(views []*PartitionView, statuses []int) {
	for _, v := range views {
		if v != nil && v.Partition >= 0 && v.Partition < len(svc.views) {
			// Bump the epoch so post-takeover announcements supersede
			// anything the nodes already hold.
			c := v.Clone()
			c.Epoch++
			svc.views[v.Partition] = c
		}
	}
	for i, st := range statuses {
		if i < len(svc.status) {
			svc.status[i] = nodeStatus(st)
			svc.lastHB[i] = svc.s.Now()
		}
	}
}

// Standby is the hot-standby metadata replica.
type Standby struct {
	stack  *transport.Stack
	fabric *Fabric
	cfg    Config
	nodes  []NodeAddr
	active netsim.IP // the active service's address (the identity to adopt)

	sock     *transport.UDPSocket
	lastPing sim.Time
	promoted *Service
	trace    func(format string, args ...any)
}

// NewStandby builds a standby on its own host. cfg must be the active
// service's configuration: cfg.Store is the replicated store the two
// share (the standby has no other source of state), and the in-switch
// stages it names are the ones the promoted service adopts. activeIP is
// the address storage nodes send their heartbeats to.
func NewStandby(stack *transport.Stack, fabric *Fabric, cfg Config, nodes []NodeAddr, activeIP netsim.IP) *Standby {
	return &Standby{stack: stack, fabric: fabric, cfg: cfg, nodes: nodes, active: activeIP}
}

// SetTrace installs an event logger.
func (sb *Standby) SetTrace(fn func(format string, args ...any)) { sb.trace = fn }

func (sb *Standby) tracef(format string, args ...any) {
	if sb.trace != nil {
		sb.trace(format, args...)
	}
}

// Promoted returns the service running on this standby after takeover,
// or nil while the primary is alive.
func (sb *Standby) Promoted() *Service { return sb.promoted }

// Start begins watching the active service.
func (sb *Standby) Start() {
	sb.sock = sb.stack.MustBindUDP(sb.cfg.StandbyPort)
	sb.lastPing = sb.stack.Sim().Now()
	s := sb.stack.Sim()
	s.Spawn("standby-listener", func(p *sim.Proc) {
		for {
			d, ok := sb.sock.Recv(p)
			if !ok {
				return
			}
			if _, ok := d.Data.(*MetaPing); ok {
				sb.lastPing = s.Now()
			}
		}
	})
	s.Spawn("standby-watchdog", func(p *sim.Proc) {
		limit := sb.cfg.HeartbeatEvery * MissedHeartbeats
		for sb.promoted == nil {
			p.Sleep(sb.cfg.HeartbeatEvery)
			if s.Now()-sb.lastPing > limit {
				sb.takeover(p)
				return
			}
		}
	})
}

// takeover promotes the standby: it stops listening, rebuilds the
// service from the replicated state store and redirects the old metadata
// address to itself in the fabric. The new service acquires a fresh
// writer generation in Start, which fences the old primary out of the
// store and the switches should it return.
func (sb *Standby) takeover(p *sim.Proc) {
	sb.tracef("%v: metadata standby taking over for %s", sb.stack.Sim().Now(), sb.active)
	sb.sock.Close() // free the port for the promoted service

	cfg := sb.cfg
	cfg.StandbyIP = 0 // no standby-of-standby
	svc := New(sb.stack, sb.fabric, cfg, sb.nodes)
	// The chain refuses snapshots mid-repair (a healing chain never
	// serves a pre-failure view). Wait the splice out: promoting from
	// anything but the committed state would announce views the nodes
	// have already moved past.
	snap, ok := cfg.Store.Snapshot()
	for !ok {
		p.Sleep(sb.cfg.HeartbeatEvery / 4)
		snap, ok = cfg.Store.Snapshot()
	}
	svc.RestoreState(snap.Views, snap.Statuses)
	svc.restoredCache = snap.Cache
	if sb.trace != nil {
		svc.SetTrace(sb.trace)
	}
	svc.Start()
	// Adopt the in-switch stages: the switch cache would otherwise be
	// orphaned with the dead controller (its zombie's detector sampling
	// into the void), and re-installing every replica set under the fresh
	// generation flushes the dirty set inherited from its tenure.
	svc.EnableStages()

	// Adopt the service identity in the network: packets to the old
	// metadata address now reach this host. The old primary, if it ever
	// returns, is cut off the control plane until an operator intervenes.
	for _, dp := range sb.fabric.Datapaths() {
		port, ok := sb.fabric.PortToward(dp, sb.stack.IP())
		if !ok {
			continue
		}
		dp.RemoveFlows(func(e *openflow.FlowEntry) bool {
			return e.Cookie == "phys-"+sb.active.String()
		})
		dp.AddFlow(openflow.FlowEntry{
			Priority: prioMapping,
			Match:    openflow.MatchDst(netsim.HostPrefix(sb.active)),
			Actions: []openflow.Action{
				openflow.SetDstIP{IP: sb.stack.IP()},
				openflow.SetDstMAC{MAC: sb.stack.Host().MAC()},
				openflow.Output{Port: port},
			},
			Cookie: "meta-takeover",
		})
	}
	sb.promoted = svc
}
