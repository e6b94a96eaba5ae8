package controller

import (
	"fmt"
	"maps"

	"repro/internal/ring"
)

// This file is the §4.4 membership policy as one pure function (DESIGN
// §14.3): transition rules on one event and lists the steps that carry
// the ruling out, which Service.apply replays in order. It touches no
// simulator, store, fabric or socket.

type nodeStatus int

const (
	nodeUp nodeStatus = iota
	nodeDown
	nodeRecovering
)

// A change is one membership event on node.
type change struct {
	kind changeKind
	node int
	part int // evExpand: the partition node joins
}

type changeKind int

const (
	evFail       changeKind = iota // detector verdict or peer report
	evRejoin                       // RejoinRequest
	evConsistent                   // ConsistentNotice
	evExpand                       // AddReplica
	evRemove                       // PermanentRemove
)

// membership is what the policy rules on: every node's address and
// status, every partition's view, and the last replica each collapsed
// partition lost (DESIGN §15.4(2)). transition never mutates one.
type membership struct {
	place   ring.Placement
	addrs   []NodeAddr
	status  []nodeStatus
	views   []*PartitionView
	holders map[int]NodeAddr
}

// The steps transition lists.
type (
	// statusStep sets node's status. Service.apply counts a transition and
	// refreshes the heartbeat clock of a node not being failed.
	statusStep struct {
		node int
		to   nodeStatus
	}
	// viewStep stores v as its partition's view and, if publish is set,
	// publishes it (commitView) to its participants and to dropped.
	viewStep struct {
		v       *PartitionView
		publish bool
		dropped []NodeAddr
	}
	// sendStep sends node a view-bearing message (sendView).
	sendStep struct {
		node int
		msg  any
		size int
	}
	statusesStep struct{} // replicate the status vector
	noteStep     string   // trace line
)

// plan is transition's working copy of the membership and its steps.
type plan struct {
	membership
	steps []any
}

// transition rules on event e. Views are visited in partition order, a
// rejoin's in Placement.PartitionsOf order. A published view's epoch is
// bumped; a view that empties keeps it, records its last holder and is
// neither installed nor announced.
func transition(m membership, e change) (membership, []any, error) {
	pl := &plan{membership: m}
	pl.status = append([]nodeStatus(nil), m.status...)
	pl.views = append([]*PartitionView(nil), m.views...)
	pl.holders = maps.Clone(m.holders)
	var err error
	switch e.kind {
	case evFail, evRemove:
		pl.fail(e.node, e.kind == evRemove)
	case evRejoin:
		pl.rejoin(e.node)
	case evConsistent:
		pl.consistent(e.node)
	case evExpand:
		err = pl.expand(e.node, e.part)
	}
	return pl.membership, pl.steps, err
}

func (pl *plan) add(steps ...any) { pl.steps = append(pl.steps, steps...) }

func (pl *plan) notef(format string, args ...any) {
	pl.add(noteStep(fmt.Sprintf(format, args...)))
}

func (pl *plan) setStatus(idx int, to nodeStatus) {
	pl.status[idx] = to
	pl.add(statusStep{idx, to})
}

// edit returns a private copy of partition p's view to change.
func (pl *plan) edit(p int) *PartitionView {
	pl.views[p] = pl.views[p].Clone()
	return pl.views[p]
}

func (pl *plan) commit(v *PartitionView, dropped ...NodeAddr) {
	v.Epoch++
	pl.add(viewStep{v, true, dropped})
}

// putVisible adds node idx to partition p's recovering set.
func (pl *plan) putVisible(p, idx int) {
	v := pl.edit(p)
	v.Recovering = append(v.Recovering, pl.addrs[idx])
	pl.commit(v)
}

// fail hides node idx (§4.4 failure hiding): every view listing it drops
// it, and the lowest-indexed up node outside the view stands in. On
// removal the stand-in joins as a permanent member, as does an earlier
// stand-in of a view the removal changed.
func (pl *plan) fail(idx int, remove bool) {
	if pl.status[idx] == nodeDown {
		return
	}
	pl.setStatus(idx, nodeDown)
	gone := pl.addrs[idx]
	for p, old := range pl.views {
		if len(old.Replicas) == 0 || !old.HasReplica(idx) && !old.IsRecovering(idx) {
			continue // a collapsed partition is operator territory
		}
		v := pl.edit(p)
		wasPrimary := v.Replicas[0].Index == idx
		v.Replicas = removeAddr(v.Replicas, idx)
		v.Recovering = removeAddr(v.Recovering, idx)
		// With R=1 the stand-in is also the only, hence primary, replica.
		if h, ok := pl.standIn(v); ok {
			v.Replicas = append(v.Replicas, h)
			v.Handoff = &h
			pl.notef("partition %d handoff -> node %d", p, h.Index)
		}
		if remove {
			v.Handoff = nil
		}
		if len(v.Replicas) == 0 {
			pl.holders[p] = gone
			pl.notef("partition %d lost its last replica", p)
			pl.add(viewStep{v: v})
			continue
		}
		if wasPrimary {
			pl.notef("partition %d primary failed; promoting node %d", p, v.Replicas[0].Index)
		}
		// The node gets the view too: if the verdict was false (a lossy
		// path, not a crash), that stops it acting as a member of v.
		pl.commit(v, gone)
	}
	pl.add(statusesStep{}) // even when no view listed the node
	if remove {
		pl.notef("node %d permanently removed", idx)
	}
}

// standIn returns the lowest-indexed up node outside v's put set.
func (pl *plan) standIn(v *PartitionView) (NodeAddr, bool) {
	for i, a := range pl.addrs {
		if pl.status[i] == nodeUp && !v.HasReplica(i) && !v.IsRecovering(i) {
			return a, true
		}
	}
	return NodeAddr{}, false
}

// rejoin makes a recovered node put-visible on its home partitions (phase
// one of §4.4 node recovery). A node already recovering retried a lost
// RejoinRequest: it gets its RejoinInfo again and nothing changes. A node
// marked up restarted inside the detection window (or a promoted standby
// missed its Recovering transition): it is failed first, or it would stay
// put-visible with its gets held and never replay what it missed.
func (pl *plan) rejoin(idx int) {
	var parts []int
	switch pl.status[idx] {
	case nodeUp:
		pl.notef("node %d rejoin request while marked up; demoting first", idx)
		pl.fail(idx, false)
	case nodeRecovering:
		pl.setStatus(idx, nodeRecovering)
		for _, p := range homePartitions(pl.place, idx) {
			if pl.views[p].IsRecovering(idx) {
				parts = append(parts, p)
			}
		}
		pl.add(pl.rejoinInfo(idx, parts))
		return
	}
	pl.setStatus(idx, nodeRecovering)
	pl.notef("node %d rejoining (put-visible)", idx)
	for _, p := range homePartitions(pl.place, idx) {
		if v := pl.views[p]; v.HasReplica(idx) || v.IsRecovering(idx) {
			continue // never left (failed before any view update?)
		} else if len(v.Replicas) > 0 {
			pl.putVisible(p, idx) // one of possibly several rejoiners
		} else if lh, ok := pl.holders[p]; ok && lh.Index == idx {
			// Only the recorded last holder reseats a collapsed partition:
			// it alone is known to hold every acknowledged write.
			delete(pl.holders, p)
			pl.edit(p).Replicas = []NodeAddr{pl.addrs[idx]}
			pl.notef("partition %d reseated on returning holder %d", p, idx)
			pl.commit(pl.views[p])
		} else {
			continue
		}
		parts = append(parts, p)
	}
	pl.add(pl.rejoinInfo(idx, parts), statusesStep{})
}

// rejoinInfo tells rejoiner idx the views it recovers in and who holds
// the handoff data of each.
func (pl *plan) rejoinInfo(idx int, parts []int) sendStep {
	info := &RejoinInfo{}
	for _, p := range parts {
		var h NodeAddr
		if v := pl.views[p]; v.Handoff != nil {
			h = *v.Handoff
		}
		info.Views = append(info.Views, pl.views[p].Clone())
		info.Handoffs = append(info.Handoffs, h)
	}
	return sendStep{idx, info, ctrlMsgSize + len(info.Views)*32}
}

// homePartitions returns the partitions node idx serves in the home
// placement.
func homePartitions(place ring.Placement, idx int) []int {
	prim, sec := place.PartitionsOf(idx)
	return append(prim, sec...)
}

// consistent completes phase two of recovery or expansion: wherever the
// node is recovering it becomes a full (get-visible) replica. A stand-in
// covers its partition until the last rejoiner there completes; the view
// that then omits it is its order to drop the handoff data.
func (pl *plan) consistent(idx int) {
	if pl.status[idx] == nodeRecovering {
		pl.setStatus(idx, nodeUp)
	}
	pl.notef("node %d consistent (get-visible)", idx)
	for p, old := range pl.views {
		if !old.IsRecovering(idx) {
			continue
		}
		v := pl.edit(p)
		v.Recovering = removeAddr(v.Recovering, idx)
		var released []NodeAddr
		if v.Handoff != nil && len(v.Recovering) == 0 {
			released = append(released, *v.Handoff)
			v.Replicas = removeAddr(v.Replicas, v.Handoff.Index)
			v.Handoff = nil
		}
		v.Replicas = append(v.Replicas, pl.addrs[idx])
		pl.commit(v, released...)
	}
	pl.add(statusesStep{}) // or a takeover would re-run a finished recovery
}

// expand makes an up node put-visible on partition p for good (§4.4 ring
// re-configuration); it turns get-visible on its ConsistentNotice.
func (pl *plan) expand(idx, p int) error {
	switch v := pl.views[p]; {
	case pl.status[idx] != nodeUp:
		return fmt.Errorf("controller: node %d is not up", idx)
	case v.HasReplica(idx) || v.IsRecovering(idx):
		return fmt.Errorf("controller: node %d already serves partition %d", idx, p)
	case len(v.Replicas) == 0:
		return fmt.Errorf("controller: partition %d has no primary to expand from", p)
	}
	pl.putVisible(p, idx)
	v := pl.views[p]
	pl.add(sendStep{idx, &ExpandAssign{View: v.Clone()}, sizeOfView(v)})
	pl.notef("node %d joining partition %d (put-visible)", idx, p)
	return nil
}

// removeAddr filters node idx out of a list, returning nil when the list
// empties so `== nil` health checks keep working.
func removeAddr(list []NodeAddr, idx int) []NodeAddr {
	var out []NodeAddr
	for _, a := range list {
		if a.Index != idx {
			out = append(out, a)
		}
	}
	return out
}
