package controller

import (
	"repro/internal/netsim"
	"repro/internal/openflow"
)

// McastRule is one loop-free multicast forwarding decision on a
// datapath: packets for the group arriving on InPort (openflow.AnyPort =
// the fallback entry) are replicated onto Ports. Multi-switch fabrics
// need ingress-specific entries so a packet is never reflected back
// toward its origin.
type McastRule struct {
	InPort int
	Ports  []int
}

// Fabric is the controller's picture of the switch layer: one rooted tree
// of datapaths, read off the cabling. Nobody registers anything with it —
// it walks netsim ports down from the root datapath, so a port can only
// be where it is cabled. The paper's two deployments (§5.1, §6: one
// hardware switch, or client-side Open vSwitches in front of it) and the
// multi-switch platforms §6 says follow "by installing the same rules on
// all participating switches" are the same tree at different depths, and
// every answer below is one rule that does not ask which.
type Fabric struct {
	root     *openflow.Datapath
	switches []*treeNode // pre-order: root first, children in port order
	byDP     map[*openflow.Datapath]*treeNode
	hosts    map[netsim.IP]*treeNode
}

// treeNode is one device's place in the tree: a switch, or a host (a leaf
// with no datapath).
type treeNode struct {
	dp       *openflow.Datapath
	parent   *treeNode   // nil at the root
	uplink   int         // a switch's port toward parent
	down     int         // parent's port toward this node
	children []*treeNode // the switches cabled below, in port order
}

// NewFabric describes the tree of datapaths cabled below root. The
// cabling is read on the first question and again whenever a question
// names a datapath or an address the last walk did not find.
func NewFabric(root *openflow.Datapath) *Fabric { return &Fabric{root: root} }

// refresh re-reads the cabling if dp or one of ips is news to the last
// walk; the lookups that follow are plain map reads against one tree.
func (f *Fabric) refresh(dp *openflow.Datapath, ips ...netsim.IP) {
	stale := f.byDP[dp] == nil
	for _, ip := range ips {
		stale = stale || f.hosts[ip] == nil
	}
	if stale {
		f.switches = nil
		f.byDP = make(map[*openflow.Datapath]*treeNode)
		f.hosts = make(map[netsim.IP]*treeNode)
		f.walk(&treeNode{dp: f.root, uplink: -1})
	}
}

func (f *Fabric) walk(sw *treeNode) {
	if f.byDP[sw.dp] != nil {
		panic("controller: a second path leads to switch " + sw.dp.Name() + ": the fabric is not a tree")
	}
	f.byDP[sw.dp] = sw
	f.switches = append(f.switches, sw)
	for i := 0; i < sw.dp.Switch().NumPorts(); i++ {
		peer := sw.dp.Switch().Port(i).Peer()
		if peer == nil || i == sw.uplink {
			continue
		}
		switch dev := peer.Dev.(type) {
		case *netsim.Host:
			f.hosts[dev.IP()] = &treeNode{parent: sw, down: i}
		case *netsim.Switch:
			if dp, ok := dev.Pipeline().(*openflow.Datapath); ok {
				child := &treeNode{dp: dp, parent: sw, uplink: peer.Index, down: i}
				sw.children = append(sw.children, child)
				f.walk(child)
			}
		}
	}
}

// toward returns sw's port on the tree path to the host h, and whether
// that port leads down (to h itself or to the child subtree holding it)
// rather than up.
func (sw *treeNode) toward(h *treeNode) (port int, down bool) {
	for n := h; n.parent != nil; n = n.parent {
		if n.parent == sw {
			return n.down, true
		}
	}
	return sw.uplink, false
}

// datapaths lists the switches keep accepts, root first.
func (f *Fabric) datapaths(keep func(*treeNode) bool) []*openflow.Datapath {
	var out []*openflow.Datapath
	for _, sw := range f.switches {
		if keep(sw) {
			out = append(out, sw.dp)
		}
	}
	return out
}

// Datapaths returns every controlled datapath, root first.
func (f *Fabric) Datapaths() []*openflow.Datapath {
	f.refresh(f.root)
	return f.datapaths(func(*treeNode) bool { return true })
}

// MappingDatapaths returns the datapaths that rewrite virtual addresses
// to physical ones: the switches with no switch below them, where clients
// enter — the single switch, the client-side edges, the leaves.
func (f *Fabric) MappingDatapaths() []*openflow.Datapath {
	f.refresh(f.root)
	return f.datapaths(func(sw *treeNode) bool { return len(sw.children) == 0 })
}

// Holding returns the datapaths with any of ips cabled at or below them.
func (f *Fabric) Holding(ips []netsim.IP) []*openflow.Datapath {
	f.refresh(f.root, ips...)
	holds := make(map[*treeNode]bool)
	for _, ip := range ips {
		for n := f.hosts[ip]; n != nil && !holds[n]; n = n.parent {
			holds[n] = true
		}
	}
	return f.datapaths(func(sw *treeNode) bool { return holds[sw] })
}

// PortToward returns dp's output port on the tree path to the host ip:
// the host's own port, the down port of the child subtree that holds it,
// else the uplink.
func (f *Fabric) PortToward(dp *openflow.Datapath, ip netsim.IP) (int, bool) {
	f.refresh(dp, ip)
	sw, h := f.byDP[dp], f.hosts[ip]
	if sw == nil || h == nil {
		return 0, false
	}
	port, _ := sw.toward(h)
	return port, true
}

// MulticastPlan returns dp's loop-free replication rules for a group with
// the given member hosts. A packet leaves on every member-bearing port —
// local members in member order, then child switches in port order — and
// on the uplink, except the port it came in on: one ingress-specific
// entry per member-bearing child switch and one for the uplink, then the
// openflow.AnyPort fallback (what the vring mapping rule jumps to, and
// what packets from local hosts and member-less children hit). Entries
// with empty Ports are skipped by the installer but keep their position,
// so entry k is always group 64p+k.
func (f *Fabric) MulticastPlan(dp *openflow.Datapath, members []netsim.IP) []McastRule {
	f.refresh(dp, members...)
	sw := f.byDP[dp]
	if sw == nil {
		return nil
	}
	var local, ingress []int
	bearing := make(map[int]bool) // down ports of member-bearing children
	for _, ip := range members {
		h := f.hosts[ip]
		if h == nil {
			continue
		}
		port, down := sw.toward(h)
		switch {
		case !down: // elsewhere in the fabric: the uplink covers it
		case h.parent == sw:
			local = append(local, port)
		default:
			bearing[port] = true
		}
	}
	for _, c := range sw.children {
		if bearing[c.down] {
			ingress = append(ingress, c.down)
		}
	}
	all := append(local, ingress...)
	if sw.parent != nil {
		all, ingress = append(all, sw.uplink), append(ingress, sw.uplink)
	}
	var plan []McastRule
	for _, in := range ingress {
		var rest []int
		for _, p := range all {
			if p != in {
				rest = append(rest, p)
			}
		}
		plan = append(plan, McastRule{InPort: in, Ports: rest})
	}
	return append(plan, McastRule{InPort: openflow.AnyPort, Ports: all})
}
