package cluster

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// leafOf returns the name of the leaf switch a host's access link lands
// on, failing the test if the host is not cabled to a leaf.
func leafOf(t *testing.T, h *netsim.Host) string {
	t.Helper()
	peer := h.Port().Peer()
	if peer == nil {
		t.Fatalf("host %s is not cabled", h.DeviceName())
	}
	name := peer.Dev.DeviceName()
	if !strings.HasPrefix(name, "leaf") {
		t.Fatalf("host %s attaches to %q, want a leaf", h.DeviceName(), name)
	}
	return name
}

// TestLeafSpineTopologyInvariants pins the fabric's wiring: exact link
// count, one uplink per leaf (making the leaf oversubscription ratio
// hostPorts:1), balanced round-robin host placement, and every host on
// a leaf — never cabled to the spine directly.
func TestLeafSpineTopologyInvariants(t *testing.T) {
	const leaves = 4
	opts := DefaultOptions()
	opts.Nodes = 6
	opts.Clients = 4
	opts.TrafficGateways = true
	d := NewNICELeafSpine(opts, leaves)
	defer d.Close()

	hosts := opts.Nodes + 1 + opts.Clients + leaves // nodes + meta + clients + gateways
	if got, want := len(d.Net.Links()), leaves+hosts; got != want {
		t.Errorf("%d links, want %d (= %d uplinks + %d access links)", got, want, leaves, hosts)
	}

	var spine *netsim.Switch
	perLeaf := map[string]int{}
	for _, sw := range d.Net.Switches() {
		name := sw.DeviceName()
		if name == "spine" {
			spine = sw
			continue
		}
		uplinks, access := 0, 0
		for i := 0; i < sw.NumPorts(); i++ {
			p := sw.Port(i)
			if !p.Connected() {
				continue
			}
			switch peer := p.Peer().Dev.DeviceName(); {
			case peer == "spine":
				uplinks++
			case strings.HasPrefix(peer, "leaf"):
				t.Errorf("%s port %d cabled leaf-to-leaf (%s)", name, i, peer)
			default:
				access++
			}
		}
		if uplinks != 1 {
			t.Errorf("%s has %d spine uplinks, want 1", name, uplinks)
		}
		if access == 0 {
			t.Errorf("%s serves no hosts", name)
		}
		perLeaf[name] = access
	}
	if len(perLeaf) != leaves {
		t.Fatalf("%d leaves, want %d", len(perLeaf), leaves)
	}
	if spine == nil {
		t.Fatal("no spine switch")
	}
	for i := 0; i < spine.NumPorts(); i++ {
		if p := spine.Port(i); p.Connected() {
			if peer := p.Peer().Dev.DeviceName(); !strings.HasPrefix(peer, "leaf") {
				t.Errorf("spine port %d cabled to %q, want a leaf", i, peer)
			}
		}
	}

	// Oversubscription: every leaf funnels its access ports through one
	// equal-capacity uplink, so the worst-case ratio is bounded by the
	// balanced placement — no leaf may carry more than ceil(hosts/leaves)
	// access links (round-robin) plus its pinned gateway.
	minA, maxA := hosts, 0
	for _, a := range perLeaf {
		if a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
	}
	ceil := (opts.Nodes + 1 + opts.Clients + leaves - 1) / leaves
	if maxA > ceil+1 {
		t.Errorf("worst leaf carries %d access links, want <= %d (round-robin + gateway)", maxA, ceil+1)
	}
	if maxA-minA > 1 {
		t.Errorf("placement imbalance: leaves carry %d..%d access links", minA, maxA)
	}

	// Rack locality: node i lands on leaf i mod leaves (place() files
	// nodes first, in order), so replica sets of adjacent ring indices
	// spread across racks instead of stacking in one.
	for i, st := range d.Stacks {
		want := "leaf" + strconv.Itoa(i%leaves)
		if got := leafOf(t, st.Host()); got != want {
			t.Errorf("node %d on %s, want %s", i, got, want)
		}
	}
	// Gateways are pinned one per leaf, in leaf order: gateway i must sit
	// on leaf i, where its leaf's client-space return route terminates.
	if len(d.Gateways) != leaves {
		t.Fatalf("%d gateways, want %d", len(d.Gateways), leaves)
	}
	for i, g := range d.Gateways {
		want := "leaf" + strconv.Itoa(i)
		if got := leafOf(t, g.Stack.Host()); got != want {
			t.Errorf("gateway %d on %s, want %s", i, got, want)
		}
	}
	// NodeLinks (the chaos fabric's fault handles) must be the nodes' own
	// access links, index-aligned with d.Nodes.
	if len(d.NodeLinks) != opts.Nodes {
		t.Fatalf("%d NodeLinks, want %d", len(d.NodeLinks), opts.Nodes)
	}
	for i, l := range d.NodeLinks {
		h := d.Stacks[i].Host()
		if l.A != h.Port() && l.B != h.Port() {
			t.Errorf("NodeLinks[%d] does not terminate at node %d", i, i)
		}
	}
}
