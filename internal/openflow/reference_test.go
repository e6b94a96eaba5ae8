package openflow

import (
	"sort"
	"strings"

	"repro/internal/netsim"
)

// ReferenceTable is the pre-index flow table: a priority-sorted slice
// scanned linearly on every lookup. It is kept as the executable
// specification of matching semantics — the differential property test
// runs it side by side with FlowTable on randomized rule sets, and the
// switch-scale benchmark uses it as the O(n) baseline.
type ReferenceTable struct {
	entries []*FlowEntry
	seq     uint64
}

// NewReferenceTable returns an empty linear-scan table.
func NewReferenceTable() *ReferenceTable {
	return &ReferenceTable{}
}

// Add inserts a rule and keeps the table sorted by descending priority.
func (t *ReferenceTable) Add(e FlowEntry) *FlowEntry {
	t.seq++
	e.seq = t.seq
	ep := &e
	i := sort.Search(len(t.entries), func(i int) bool {
		return t.entries[i].Priority < ep.Priority
	})
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = ep
	return ep
}

// Remove deletes all entries for which pred returns true and reports how
// many were deleted.
func (t *ReferenceTable) Remove(pred func(*FlowEntry) bool) int {
	kept := t.entries[:0]
	removed := 0
	for _, e := range t.entries {
		if pred(e) {
			removed++
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
func (t *ReferenceTable) RemoveCookie(prefix string) int {
	return t.Remove(func(e *FlowEntry) bool { return strings.HasPrefix(e.Cookie, prefix) })
}

// Lookup returns the matching entry for pkt on inPort, or nil on a table
// miss, updating hit counters.
func (t *ReferenceTable) Lookup(pkt *netsim.Packet, inPort int) *FlowEntry {
	for _, e := range t.entries {
		if e.Match.Covers(pkt, inPort) {
			e.matches++
			e.bytes += int64(pkt.Size)
			return e
		}
	}
	return nil
}

// Len returns the number of installed entries.
func (t *ReferenceTable) Len() int { return len(t.entries) }

// Entries returns a snapshot of the entries in priority order.
func (t *ReferenceTable) Entries() []*FlowEntry {
	out := make([]*FlowEntry, len(t.entries))
	copy(out, t.entries)
	return out
}
