// Package controller implements the NICE metadata service (§4.1): a
// membership module that monitors storage nodes via heartbeats and
// detects joins and failures, and an SDN controller that maintains the
// virtual-ring mappings, multicast groups and load-balancing rules in the
// switch fabric. It also implements the consistency-aware fault-tolerance
// state machine (§3.3, §4.4): failed nodes are hidden from clients by
// removing them from the switch mappings, a handoff node stands in, and
// rejoining nodes become put-visible first and get-visible only once
// consistent.
package controller

import (
	"repro/internal/netsim"
)

// NodeAddr identifies one storage node's endpoints.
type NodeAddr struct {
	Index    int
	IP       netsim.IP
	MAC      netsim.MAC
	DataPort uint16 // UDP requests and the multicast receiver
	CtrlPort uint16 // node-side membership control endpoint
}

// PartitionView is the authoritative replica-set state for one partition,
// pushed to the affected nodes on every membership change. Nodes keep
// only the views of partitions they serve: the paper's O(R) per-node
// membership state.
type PartitionView struct {
	Partition int
	Epoch     uint64
	// Gen is the writer generation of the controller instance that
	// produced the view (StateStore.Acquire). Nodes order views by
	// (Gen, Epoch) lexicographically: a promoted standby's views
	// supersede the old primary's regardless of epoch, and a zombie's
	// announcements — fenced at the switches — are also rejected by
	// every node that has seen the newer generation. Zero on views from
	// pre-fencing controllers, which compare by epoch alone.
	Gen uint64
	// Replicas are the nodes currently serving the partition, primary
	// first. While a failure is being covered this includes the handoff
	// node and excludes the failed one.
	Replicas []NodeAddr
	// Handoff is the stand-in node (also present in Replicas), nil when
	// the set is healthy.
	Handoff *NodeAddr
	// Recovering are rejoining nodes that are put-visible (in the
	// multicast group, participating in 2PC) but not yet get-visible.
	// More than one node can be mid-rejoin on the same partition when
	// failures overlap; each completes independently.
	Recovering []NodeAddr
	// GroupIP is the partition's multicast group address.
	GroupIP netsim.IP
}

// Primary returns the current primary replica.
func (v *PartitionView) Primary() NodeAddr { return v.Replicas[0] }

// PutParticipants returns every node that must take part in a put: the
// replicas plus any recovering nodes, primary first.
func (v *PartitionView) PutParticipants() []NodeAddr {
	out := make([]NodeAddr, len(v.Replicas), len(v.Replicas)+len(v.Recovering))
	copy(out, v.Replicas)
	out = append(out, v.Recovering...)
	return out
}

// IsRecovering reports whether node idx is mid-rejoin on this partition.
func (v *PartitionView) IsRecovering(idx int) bool {
	for _, r := range v.Recovering {
		if r.Index == idx {
			return true
		}
	}
	return false
}

// HasReplica reports whether node idx is in the replica list.
func (v *PartitionView) HasReplica(idx int) bool {
	for _, r := range v.Replicas {
		if r.Index == idx {
			return true
		}
	}
	return false
}

// Clone deep-copies the view so nodes can hold it without aliasing the
// controller's state.
func (v *PartitionView) Clone() *PartitionView {
	c := *v
	c.Replicas = append([]NodeAddr(nil), v.Replicas...)
	if v.Handoff != nil {
		h := *v.Handoff
		c.Handoff = &h
	}
	if v.Recovering != nil {
		c.Recovering = append([]NodeAddr(nil), v.Recovering...)
	}
	return &c
}

// LoadStats ride on heartbeats (§4.5 workload-informed load balancing).
type LoadStats struct {
	Puts, Gets int64
	BytesIn    int64
	BytesOut   int64
}

// Node-to-controller messages (UDP to the metadata service port).

// Heartbeat is the periodic liveness and load report. Epochs carries the
// epoch of every view the node holds, letting the controller detect and
// repair nodes whose membership state went stale (a PartitionUpdate lost
// on a faulty control path).
type Heartbeat struct {
	Node   int
	Load   LoadStats
	Epochs map[int]uint64
}

// FailureReport is a peer accusation: the reporter timed out twice on the
// suspect during the put protocol (§4.4 failure detection).
type FailureReport struct {
	Reporter int
	Suspect  int
}

// RejoinRequest starts the two-phase rejoin of a recovered node.
type RejoinRequest struct {
	Node int
}

// ConsistentNotice tells the controller a recovering node has fetched a
// consistent data set and may become get-visible.
type ConsistentNotice struct {
	Node int
}

// Controller-to-node messages (UDP to the node control port).

// PartitionUpdate pushes a new view to an affected replica. A node the
// view no longer lists — a failed-over member, a released handoff
// stand-in — drops the partition, its handoff data and its multicast
// group.
type PartitionUpdate struct {
	View *PartitionView
}

// HandoffAssign tells a node to stand in for a failed peer on one
// partition. The node starts accepting that partition's traffic into its
// handoff namespace.
type HandoffAssign struct {
	View *PartitionView
}

// RejoinOrder tells a node the controller believes it is down (its
// heartbeat arrived while it was marked failed): the node must restart
// its rejoin procedure. Without this, a node whose RejoinRequest was lost
// — or that was failed by a verdict racing its restart — would serve
// stale state forever.
type RejoinOrder struct{}

// RejoinInfo answers a RejoinRequest: which partitions to recover and who
// holds the handoff data for each.
type RejoinInfo struct {
	Views    []*PartitionView // the node is already put-visible in these
	Handoffs []NodeAddr       // element i holds handoff data for Views[i]
}

// ExpandAssign tells a node it is being added to a replica set
// permanently (§4.4 ring re-configuration): it is already put-visible;
// it must fetch the partition's full key range from the view's members
// and then report consistent to become get-visible.
type ExpandAssign struct {
	View *PartitionView
}

// CacheFetchRequest asks a partition primary for the current committed
// copy of a hot key, so the controller can install it in the switch
// cache.
type CacheFetchRequest struct {
	Key string
	// MaxSize caps the reply: objects larger than a cacheable value are
	// not worth shipping.
	MaxSize int

	// reply is room for the answer: the controller is its one reader
	// and sends a fresh request per fetch, so the room is never freed.
	reply    CacheFetchReply
	occupied bool
}

// Reply returns the reply to fill and send for r: r's room the first
// time, a fresh reply after, so a sent reply is never written again.
func (r *CacheFetchRequest) Reply() *CacheFetchReply {
	if r.occupied {
		return &CacheFetchReply{}
	}
	r.occupied = true
	return &r.reply
}

// CacheFetchReply carries the object (and its committed version, for the
// install fence) back to the metadata service.
type CacheFetchReply struct {
	Key   string
	Found bool
	Value any
	Size  int
	Ver   uint64
}

// ctrlMsgSize approximates the wire size of membership messages; the
// membership-scalability experiment counts them.
const ctrlMsgSize = 128

// sizeOfView approximates a PartitionUpdate's wire size.
func sizeOfView(v *PartitionView) int {
	return 64 + 32*len(v.Replicas)
}
