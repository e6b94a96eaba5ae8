package core

import (
	"repro/internal/kvstore"
	"repro/internal/netsim"
)

// HarmoniaHook is the slice of the in-switch dirty-set a storage node
// drives: the commit/abort half of the conflict-detection protocol. In
// hardware these are the commit's ack and timestamp packets passing back
// through the switch; in the simulation the node invokes them
// synchronously at apply/abort time, which is strictly earlier — safe,
// because the stage only retires a mark once every read-serving replica
// has applied the write.
type HarmoniaHook interface {
	// MemberApplied records that member holds op's committed object for
	// key.
	MemberApplied(key string, op any, member netsim.IP)
	// OpAborted records that one delivery attempt of op was abandoned
	// and will never commit.
	OpAborted(key string, op any, attempt int)
}

// harmoniaApplied reports a local commit of obj to the dirty-set stage;
// called from every path that installs a committed object — applyLocal
// (2PC primary and secondary, late timestamps, resolution commit orders)
// and lateTs's newer-timestamp adoption — before any acknowledgment is
// generated. The op identity is recovered from the committed version.
func (n *Node) harmoniaApplied(obj *kvstore.Object) {
	if n.cfg.Harmonia == nil {
		return
	}
	op := reqKey{Client: obj.Version.Client, Seq: obj.Version.ClientSeq}
	n.cfg.Harmonia.MemberApplied(obj.Key, op, n.cfg.Addr.IP)
}

// harmoniaAborted reports an abandoned attempt of a put to the dirty-set
// stage.
func (n *Node) harmoniaAborted(key string, op reqKey, attempt int) {
	if n.cfg.Harmonia == nil {
		return
	}
	n.cfg.Harmonia.OpAborted(key, op, attempt)
}
