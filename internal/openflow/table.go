package openflow

import (
	"fmt"
	"strings"

	"repro/internal/netsim"
)

// FlowEntry is one rule: a priority, a match, and an action list. Cookie
// is a free-form label the controller uses to find and delete its own
// rules; it plays the role of the OpenFlow cookie field.
type FlowEntry struct {
	Priority int
	Match    Match
	Actions  []Action
	Cookie   string

	matches int64
	seq     uint64 // insertion order, tie-break within a priority
}

// Matches returns how many packets hit this entry.
func (e *FlowEntry) Matches() int64 { return e.matches }

// String renders the rule like ovs-ofctl dump-flows.
func (e *FlowEntry) String() string {
	acts := make([]string, len(e.Actions))
	for i, a := range e.Actions {
		acts[i] = a.actionString()
	}
	return fmt.Sprintf("prio=%d %s actions=%s cookie=%q n=%d",
		e.Priority, e.Match, strings.Join(acts, ","), e.Cookie, e.matches)
}

// FlowTable is a priority-ordered rule table. Lookup returns the
// highest-priority covering entry (insertion order breaks ties) in O(1)
// map probes per mask signature: rules are indexed into exact-match hash
// groups plus a short catch-all list (see index.go). A packet of the flow
// a slot of the microflow cache remembers skips the probes altogether.
// The table holds exactly what the controller installed: a rule leaves
// only when the controller removes it.
// Semantics are bit-identical to ReferenceTable, the linear-scan oracle.
type FlowTable struct {
	entries []*FlowEntry // priority-ordered master list
	seq     uint64

	groups []*matchGroup // tier one, in first-installation order
	bySig  map[maskSig]*matchGroup
	wild   []*FlowEntry // tier two: all-wildcard rules, best-first

	// ver counts index changes; a microflow slot answers only while its
	// stamp equals it, so any rule added or removed empties the cache.
	ver   uint64
	micro [microflowSlots]microflow
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	// ver starts past the zero stamp of an unused slot.
	return &FlowTable{bySig: make(map[maskSig]*matchGroup), ver: 1}
}

// Add inserts a rule and keeps the table sorted by descending priority.
func (t *FlowTable) Add(e FlowEntry) *FlowEntry {
	t.seq++
	e.seq = t.seq
	ep := &e
	t.entries = insertOrdered(t.entries, ep)
	t.index(ep)
	return ep
}

// index files ep under its mask-signature group (or the wildcard list).
func (t *FlowTable) index(ep *FlowEntry) {
	t.ver++
	sig := ep.Match.sig()
	if sig == (maskSig{}) {
		t.wild = insertOrdered(t.wild, ep)
		return
	}
	g := t.bySig[sig]
	if g == nil {
		g = &matchGroup{sig: sig, buckets: make(map[flowKey][]*FlowEntry), maxPrio: ep.Priority}
		t.bySig[sig] = g
		t.groups = append(t.groups, g)
	}
	if ep.Priority > g.maxPrio {
		g.maxPrio = ep.Priority
	}
	k := ep.Match.ruleKey()
	g.buckets[k] = insertOrdered(g.buckets[k], ep)
	g.size++
}

// unindex removes ep from its group or the wildcard list.
func (t *FlowTable) unindex(ep *FlowEntry) {
	t.ver++
	sig := ep.Match.sig()
	if sig == (maskSig{}) {
		t.wild = removeFrom(t.wild, ep)
		return
	}
	g := t.bySig[sig]
	k := ep.Match.ruleKey()
	b := removeFrom(g.buckets[k], ep)
	if len(b) == 0 {
		delete(g.buckets, k)
	} else {
		g.buckets[k] = b
	}
	g.size--
}

// Remove deletes all entries for which pred returns true and reports how
// many were deleted.
func (t *FlowTable) Remove(pred func(*FlowEntry) bool) int {
	kept := t.entries[:0]
	removed := 0
	for _, e := range t.entries {
		if pred(e) {
			removed++
			t.unindex(e)
		} else {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(t.entries); i++ {
		t.entries[i] = nil
	}
	t.entries = kept
	return removed
}

// RemoveCookie deletes all entries whose cookie has the given prefix.
func (t *FlowTable) RemoveCookie(prefix string) int {
	return t.Remove(func(e *FlowEntry) bool { return strings.HasPrefix(e.Cookie, prefix) })
}

// Lookup returns the matching entry for pkt on inPort, or nil on a table
// miss, updating hit counters. The packet's microflow slot answers if it
// holds this very header tuple as classified against the index as it
// stands, and otherwise is refilled from the index.
func (t *FlowTable) Lookup(pkt *netsim.Packet, inPort int) *FlowEntry {
	key := tupleOf(pkt, inPort)
	mf := &t.micro[key.slot()]
	if mf.ver != t.ver || mf.key != key {
		*mf = microflow{key: key, ver: t.ver, e: t.classify(pkt, inPort)}
	}
	best := mf.e
	if best == nil {
		return nil
	}
	best.matches++
	return best
}

// classify resolves pkt against the index: one hash probe per mask
// signature and a peek at the wildcard list.
func (t *FlowTable) classify(pkt *netsim.Packet, inPort int) *FlowEntry {
	var best *FlowEntry
	for _, g := range t.groups {
		if g.size == 0 || (best != nil && g.maxPrio < best.Priority) {
			continue
		}
		if b := g.buckets[g.pktKey(pkt, inPort)]; len(b) > 0 && beats(b[0], best) {
			best = b[0]
		}
	}
	if len(t.wild) > 0 && beats(t.wild[0], best) {
		best = t.wild[0]
	}
	return best
}

// Len returns the number of installed entries; the switch-scalability
// experiment measures this.
func (t *FlowTable) Len() int { return len(t.entries) }

// Entries returns a snapshot of the entries in priority order. Mutating
// the returned slice is safe; mutating the entries themselves is not —
// the index files them by their match fields.
func (t *FlowTable) Entries() []*FlowEntry {
	out := make([]*FlowEntry, len(t.entries))
	copy(out, t.entries)
	return out
}

// GroupTable maps group IDs to ALL-type groups.
type GroupTable struct {
	groups map[GroupID]*Group
}

// NewGroupTable returns an empty group table.
func NewGroupTable() *GroupTable {
	return &GroupTable{groups: make(map[GroupID]*Group)}
}

// Set installs or replaces a group.
func (gt *GroupTable) Set(g Group) { gt.groups[g.ID] = &g }

// Get looks up a group.
func (gt *GroupTable) Get(id GroupID) (*Group, bool) {
	g, ok := gt.groups[id]
	return g, ok
}

// Len returns the number of installed groups.
func (gt *GroupTable) Len() int { return len(gt.groups) }
