package core

import "repro/internal/kvstore"

// dedupTable is the put-dedup index (Node.committed): committed
// timestamps keyed by the put they commit, (Client, ClientSeq). It is an
// open-addressing table with linear probing and backward-shift deletion,
// so the FIFO's steady insert-one-delete-one churn leaves no tombstones
// and never grows or rehashes it. A slot holds the timestamp alone — its
// key is inside it — and the zero timestamp, which no commit carries,
// marks an empty slot.
//
// The slot array doubles while the table fills, keeping the load at or
// under a half, up to dedupMaxSlots — the FIFO never holds more than
// committedCap entries. It is not allocated up front, so a node that
// commits little keeps it small.
type dedupTable struct {
	slots []kvstore.Timestamp // len is 0 or a power of two
	n     int
}

const (
	dedupMinSlots = 16
	dedupMaxSlots = 2 * committedCap
)

func (t *dedupTable) home(c uint64) int {
	// The murmur3 finalizer: client addresses and sequence numbers are
	// both dense, and linear probing wants them spread.
	c ^= c >> 33
	c *= 0xff51afd7ed558ccd
	c ^= c >> 33
	return int(c & uint64(len(t.slots)-1))
}

func dedupKey(k reqKey) uint64 { return uint64(k.Client)<<32 ^ k.Seq }

func tsKey(ts kvstore.Timestamp) reqKey { return reqKey{Client: ts.Client, Seq: ts.ClientSeq} }

// find returns k's slot, or the empty slot that ends its probe run.
func (t *dedupTable) find(k reqKey) (int, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(dedupKey(k)); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.IsZero() {
			return i, false
		}
		if s.Client == k.Client && s.ClientSeq == k.Seq {
			return i, true
		}
	}
}

// get returns the timestamp recorded for k.
func (t *dedupTable) get(k reqKey) (kvstore.Timestamp, bool) {
	i, ok := t.find(k)
	if !ok {
		return kvstore.Timestamp{}, false
	}
	return t.slots[i], true
}

// put records ts under its put, replacing an earlier timestamp of it.
func (t *dedupTable) put(ts kvstore.Timestamp) {
	i, ok := t.find(tsKey(ts))
	if !ok {
		if 2*(t.n+1) > len(t.slots) && len(t.slots) < dedupMaxSlots {
			t.grow()
			i, _ = t.find(tsKey(ts))
		}
		t.n++
	}
	t.slots[i] = ts
}

func (t *dedupTable) grow() {
	old := t.slots
	t.slots = make([]kvstore.Timestamp, max(dedupMinSlots, 2*len(old)))
	for _, ts := range old {
		if !ts.IsZero() {
			i, _ := t.find(tsKey(ts))
			t.slots[i] = ts
		}
	}
}

// del forgets k. Backward shift: every later entry of the probe run that
// may sit in the hole (its home is not cyclically inside (hole, entry])
// moves up into it, leaving the run as if k had never been inserted.
func (t *dedupTable) del(k reqKey) {
	hole, ok := t.find(k)
	if !ok {
		return
	}
	t.n--
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; !t.slots[j].IsZero(); j = (j + 1) & mask {
		if h := t.home(dedupKey(tsKey(t.slots[j]))); (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = kvstore.Timestamp{}
}
