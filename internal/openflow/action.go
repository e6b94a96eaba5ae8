package openflow

import (
	"fmt"

	"repro/internal/netsim"
)

// Action is one step of a flow entry's action list, applied in order.
type Action interface {
	actionString() string
}

// SetDstIP rewrites the destination IP address (the mapping action that
// virtualizes the storage system).
type SetDstIP struct{ IP netsim.IP }

// SetSrcIP rewrites the source IP address.
type SetSrcIP struct{ IP netsim.IP }

// SetDstMAC rewrites the destination MAC address.
type SetDstMAC struct{ MAC netsim.MAC }

// SetSrcMAC rewrites the source MAC address.
type SetSrcMAC struct{ MAC netsim.MAC }

// Output forwards the packet out a switch port.
type Output struct{ Port int }

// OutputGroup hands the packet to a group table entry (multicast).
type OutputGroup struct{ Group GroupID }

// ToController punts the packet to the controller as a PacketIn.
type ToController struct{}

// Drop discards the packet explicitly.
type Drop struct{}

func (a SetDstIP) actionString() string     { return "set_dst_ip:" + a.IP.String() }
func (a SetSrcIP) actionString() string     { return "set_src_ip:" + a.IP.String() }
func (a SetDstMAC) actionString() string    { return "set_dst_mac:" + a.MAC.String() }
func (a SetSrcMAC) actionString() string    { return "set_src_mac:" + a.MAC.String() }
func (a Output) actionString() string       { return fmt.Sprintf("output:%d", a.Port) }
func (a OutputGroup) actionString() string  { return fmt.Sprintf("group:%d", a.Group) }
func (a ToController) actionString() string { return "controller" }
func (a Drop) actionString() string         { return "drop" }

// GroupID names a group table entry.
type GroupID uint32

// Bucket is one leg of a group: its actions are applied to a copy of the
// packet. For ALL-type groups (the only type NICE needs) every bucket
// fires.
type Bucket struct {
	Actions []Action
}

// Group is an ALL-type group table entry: the multicast primitive.
type Group struct {
	ID      GroupID
	Buckets []Bucket
}
