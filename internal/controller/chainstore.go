package controller

import (
	"fmt"
	"strings"

	"repro/internal/ctrlchain"
)

// ChainStore backs the controller's StateStore with a NetChain-style
// replicated chain of switch-resident stores. Views key as
// "view/<partition>", the status vector as "statuses", and cache
// install records as "cache/<key>"; chain entry versions compose the
// writer generation with a per-key monotonic component so a promoted
// controller's writes always supersede the old primary's, even if the
// zombie had issued more of them.
type ChainStore struct {
	chain *ctrlchain.Chain
	seq   uint64
}

// NewChainStore wraps an existing chain. One ChainStore instance is
// shared by the active controller and its standby, exactly like the
// chain itself.
func NewChainStore(ch *ctrlchain.Chain) *ChainStore { return &ChainStore{chain: ch} }

// ver composes a chain entry version: the writer generation in the
// high bits dominates, the low bits keep one writer's own stream
// monotonic.
func (cs *ChainStore) ver(gen, low uint64) uint64 {
	if low == 0 {
		cs.seq++
		low = cs.seq
	}
	return gen<<32 | (low & 0xffffffff)
}

func (cs *ChainStore) Acquire() uint64 { return cs.chain.Acquire() }

func (cs *ChainStore) WriteView(gen uint64, v *PartitionView) bool {
	return cs.chain.Write(gen, ctrlchain.Entry{
		Key: viewKey(v.Partition),
		Ver: cs.ver(gen, v.Epoch),
		Val: v.Clone(),
	}, nil)
}

func (cs *ChainStore) WriteStatuses(gen uint64, statuses []int) bool {
	return cs.chain.Write(gen, ctrlchain.Entry{
		Key: "statuses",
		Ver: cs.ver(gen, 0),
		Val: append([]int(nil), statuses...),
	}, nil)
}

func (cs *ChainStore) WriteCache(gen uint64, key string, ver uint64, resident bool) bool {
	return cs.chain.Write(gen, ctrlchain.Entry{
		Key: "cache/" + key,
		Ver: cs.ver(gen, 0),
		Val: CacheState{Key: key, Ver: ver, Resident: resident},
	}, nil)
}

func (cs *ChainStore) Snapshot() (StateSnapshot, bool) {
	entries, ok := cs.chain.Snapshot()
	if !ok {
		return StateSnapshot{}, false
	}
	var snap StateSnapshot
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.Key, "view/"):
			if v, ok := e.Val.(*PartitionView); ok {
				snap.Views = append(snap.Views, v.Clone())
			}
		case e.Key == "statuses":
			if st, ok := e.Val.([]int); ok {
				snap.Statuses = append([]int(nil), st...)
			}
		case strings.HasPrefix(e.Key, "cache/"):
			if ce, ok := e.Val.(CacheState); ok && ce.Resident {
				snap.Cache = append(snap.Cache, ce)
			}
		}
	}
	return snap, true
}

// viewKey zero-pads the partition so the chain's sorted snapshot
// yields views in partition order.
func viewKey(p int) string { return fmt.Sprintf("view/%05d", p) }
