// Package openflow implements an OpenFlow-style forwarding pipeline for
// netsim switches: priority flow tables matching on packet headers, an
// action list per entry (header rewriting, output, group fan-out, punt to
// controller), ALL-type group tables for multicast, and a control channel
// with configurable latency between a controller and its datapaths.
//
// The feature set mirrors what the paper programs through Ryu and
// OpenFlow 1.3 (§2.2, §5): wildcard matches on IP addresses, protocol and
// ports; set-field actions rewriting source/destination IP and MAC;
// forwarding to one port, a group of ports, or the controller; and rule
// add/remove with counters.
package openflow

import (
	"fmt"
	"strings"

	"repro/internal/netsim"
)

// AnyPort is the Match.InPort wildcard.
const AnyPort = -1

// Match is an OpenFlow matching rule. Zero-valued fields are wildcards,
// except InPort, whose wildcard is AnyPort (use NewMatch to get a match
// with every field wild).
type Match struct {
	InPort  int
	SrcIP   netsim.Prefix
	DstIP   netsim.Prefix
	Proto   netsim.Proto
	SrcPort uint16
	DstPort uint16
}

// NewMatch returns a match whose every field is a wildcard.
func NewMatch() Match { return Match{InPort: AnyPort} }

// MatchDst returns a match on a destination prefix only.
func MatchDst(p netsim.Prefix) Match {
	m := NewMatch()
	m.DstIP = p
	return m
}

// String renders the non-wildcard fields.
func (m Match) String() string {
	var parts []string
	if m.InPort != AnyPort {
		parts = append(parts, fmt.Sprintf("in=%d", m.InPort))
	}
	if !m.SrcIP.IsWildcard() {
		parts = append(parts, "src="+m.SrcIP.String())
	}
	if !m.DstIP.IsWildcard() {
		parts = append(parts, "dst="+m.DstIP.String())
	}
	if m.Proto != netsim.ProtoNone {
		parts = append(parts, m.Proto.String())
	}
	if m.SrcPort != 0 {
		parts = append(parts, fmt.Sprintf("sport=%d", m.SrcPort))
	}
	if m.DstPort != 0 {
		parts = append(parts, fmt.Sprintf("dport=%d", m.DstPort))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}
