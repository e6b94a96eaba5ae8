package netsim

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// TraceEvent is one observed packet movement.
type TraceEvent struct {
	At     sim.Time
	Device string // where it was observed
	Dir    string // "rx" or "tx"
	Pkt    Packet // header snapshot (payload pointer shared)
}

// String renders one trace line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%-14v %-12s %-2s %s", e.At, e.Device, e.Dir, e.Pkt.String())
}

// Tap observes packets flowing through the network. Taps are for
// debugging and tooling; they see header snapshots and must not mutate
// anything.
type Tap func(ev TraceEvent)

// tapEntry is a registered tap and the id its remove function names.
type tapEntry struct {
	id  int
	tap Tap
}

// AddTap registers a network-wide tap fed from every host NIC (both
// directions). Taps see each event in registration order. It returns a
// remove function, which builds a new list so that a tap may remove itself
// (or another) from inside an event.
func (n *Network) AddTap(tap Tap) func() {
	n.tapSeq++
	id := n.tapSeq
	n.taps = append(n.taps, tapEntry{id, tap})
	return func() {
		n.taps = slices.DeleteFunc(slices.Clone(n.taps), func(e tapEntry) bool { return e.id == id })
	}
}

// emitTrace fans one event to all taps.
func (n *Network) emitTrace(dev, dir string, pkt *Packet) {
	if len(n.taps) == 0 {
		return
	}
	ev := TraceEvent{At: n.sim.Now(), Device: dev, Dir: dir, Pkt: *pkt}
	for _, e := range n.taps {
		e.tap(ev)
	}
}
