package transport

// rxTable is a multicast receiver's transfer index (MulticastReceiver.rx):
// each transfer in flight, with its state, and each one remembered as
// finished, with a nil state. It is an open-addressing table with linear
// probing and backward-shift deletion, like core's dedup index, so the
// finished ring's steady forget-one-finish-one churn leaves no tombstones
// and never grows or rehashes it, as it did a go1.24 map. The zero key,
// which no transfer has (a sender numbers its transfers from 1), marks an
// empty slot.
//
// The slot array doubles while the table fills, keeping the load at or
// under three quarters, so finishedCap remembered transfers and up to half
// as many in flight fit in 2 × finishedCap slots. It is not allocated up
// front, so a receiver that sees few transfers keeps it small.
type rxTable struct {
	slots []rxSlot // len is 0 or a power of two
	n     int
}

type rxSlot struct {
	key xferKey
	st  *rxState // nil once the transfer finished
}

const rxMinSlots = 16

func (t *rxTable) home(k xferKey) int {
	// The murmur3 finalizer: transfer numbers are dense, and linear probing
	// wants them spread.
	c := uint64(k.from)<<32 ^ k.xfer
	c ^= c >> 33
	c *= 0xff51afd7ed558ccd
	c ^= c >> 33
	return int(c & uint64(len(t.slots)-1))
}

// find returns k's slot, or the empty slot that ends its probe run.
func (t *rxTable) find(k xferKey) (int, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case k:
			return i, true
		case xferKey{}:
			return i, false
		}
	}
}

// get returns k's state (nil once finished) and whether k is remembered.
func (t *rxTable) get(k xferKey) (*rxState, bool) {
	i, ok := t.find(k)
	if !ok {
		return nil, false
	}
	return t.slots[i].st, true
}

// set records k with state st, inserting k if it is new.
func (t *rxTable) set(k xferKey, st *rxState) {
	i, ok := t.find(k)
	if !ok {
		if 4*(t.n+1) > 3*len(t.slots) {
			t.grow()
			i, _ = t.find(k)
		}
		t.n++
	}
	t.slots[i] = rxSlot{k, st}
}

func (t *rxTable) grow() {
	old := t.slots
	t.slots = make([]rxSlot, max(rxMinSlots, 2*len(old)))
	for _, s := range old {
		if s.key != (xferKey{}) {
			i, _ := t.find(s.key)
			t.slots[i] = s
		}
	}
}

// del forgets k. Backward shift: every later entry of the probe run that
// may sit in the hole (its home is not cyclically inside (hole, entry])
// moves up into it, leaving the run as if k had never been inserted.
func (t *rxTable) del(k xferKey) {
	hole, ok := t.find(k)
	if !ok {
		return
	}
	t.n--
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].key != (xferKey{}); j = (j + 1) & mask {
		if h := t.home(t.slots[j].key); (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = rxSlot{}
}
