package core

import (
	"repro/internal/controller"
	"repro/internal/kvstore"
	"repro/internal/sim"
)

// SwitchCache is the slice of the in-switch cache a storage node drives:
// the write-through half of the invalidation protocol. The committing
// put's traffic traverses the caching switch, so in hardware this is an
// inline effect; in the simulation the node invokes it synchronously
// at commit time, strictly before the commit acknowledgment can reach
// the client — the cache is never stale past commit.
type SwitchCache interface {
	// Invalidate drops the cached copy of key; ver (the committed put's
	// primary sequence) fences in-flight installs of older values.
	Invalidate(key string, ver uint64)
}

// writeThrough invalidates the cached copy of a committed object; called
// from applyLocal so every commit path — 2PC primary and secondary, late
// timestamps, new-primary resolution — invalidates before any
// acknowledgment is generated.
func (n *Node) writeThrough(obj *kvstore.Object) {
	if n.cfg.Cache != nil {
		n.cfg.Cache.Invalidate(obj.Key, obj.Version.PrimarySeq)
	}
}

// handleCacheFetch answers the controller's request for a hot object's
// current committed copy (the install half of the cache protocol): read
// it from the store — charging the disk — and ship it to the metadata
// service, which forwards it to the switch as an Install.
func (n *Node) handleCacheFetch(p *sim.Proc, req *controller.CacheFetchRequest) {
	rep := req.Reply()
	*rep = controller.CacheFetchReply{Key: req.Key}
	size := ctrlMsgSize
	if obj, ok := n.store.Get(p, req.Key); ok && (req.MaxSize <= 0 || obj.Size <= req.MaxSize) {
		rep.Found = true
		rep.Value = obj.Value
		rep.Size = obj.Size
		rep.Ver = obj.Version.PrimarySeq
		size += obj.Size
	}
	n.ctrl.SendTo(n.cfg.Meta, n.cfg.MetaPort, rep, size)
}
