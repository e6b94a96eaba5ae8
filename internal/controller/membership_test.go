package controller

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ring"
)

// TestTransitionExhaustive runs the membership policy (transition) on its
// own: 5 nodes at R = 3, partition 0 alone (the other partitions' views
// are empty and stay so), and every sequence of up to 6 fail, rejoin and
// consistent events, deduplicated by state. Every transition must keep
// the structural invariants below. Alongside, a model of holders as
// ROADMAP item 32(ii) defines them (members neither standing in nor
// recovering; a rejoiner becomes one once its sync reaches one) finds the
// shapes the policy reaches today that its no-holder rule is to rule out:
// the table pins the shortest sequence found for each, and that rule
// empties it.
func TestTransitionExhaustive(t *testing.T) {
	const n, r, depth = 5, 3, 6
	pinned := map[string]string{
		// The last holder fails and two stand-ins serve.
		"a primary without a holder": "fail 0, fail 1, fail 2 gives [3 4] handoff 4",
		// A node failing while it recovers gets a stand-in of its own,
		// though it was never a replica.
		"R+1 members, none recovering": "rejoin 0, fail 0 gives [1 2 3 4] handoff 4",
		// A failed stand-in stays named when no node is free to replace it.
		"a Handoff outside the replica list": "fail 0, fail 1, fail 4 gives [2 3] handoff 4",
	}

	start := membership{place: ring.NewPlacement(n, r), holders: map[int]NodeAddr{}}
	for i := 0; i < n; i++ {
		start.addrs = append(start.addrs, NodeAddr{Index: i})
		start.status = append(start.status, nodeUp)
		start.views = append(start.views, &PartitionView{Partition: i})
	}
	start.views[0] = &PartitionView{Partition: 0, Epoch: 1, Replicas: start.addrs[:r:r]}

	type state struct {
		m       membership
		holders []int // the model's holders of partition 0
		seq     []string
	}
	var events []change
	for _, k := range []changeKind{evFail, evRejoin, evConsistent} {
		for i := 0; i < n; i++ {
			events = append(events, change{kind: k, node: i})
		}
	}
	found := map[string]string{}
	seen := map[string]bool{}
	frontier := []state{{m: start, holders: []int{0, 1, 2}}}
	seen[stateKey(start, frontier[0].holders)] = true
	transitions := 0
	for d := 0; d < depth; d++ {
		var next []state
		for _, s := range frontier {
			for _, e := range events {
				before := stateKey(s.m, s.holders)
				m, steps, err := transition(s.m, e)
				transitions++
				seq := append(slices.Clip(s.seq), eventName(e))
				if err != nil {
					t.Fatalf("%s: %v", strings.Join(seq, ", "), err)
				}
				if after := stateKey(s.m, s.holders); after != before {
					t.Fatalf("%s: transition mutated its input: %s -> %s", strings.Join(seq, ", "), before, after)
				}
				if msg := checkTransition(s.m, m, steps); msg != "" {
					t.Fatalf("%s: %s", strings.Join(seq, ", "), msg)
				}
				holders := modelHolders(s.m.views[0], m.views[0], s.holders, e)
				key := stateKey(m, holders)
				if seen[key] {
					continue
				}
				seen[key] = true
				v := m.views[0]
				for shape, hit := range map[string]bool{
					"a primary without a holder":         len(v.Replicas) > 0 && len(holders) == 0,
					"R+1 members, none recovering":       len(v.Replicas) > r && len(v.Recovering) == 0,
					"a Handoff outside the replica list": v.Handoff != nil && !v.HasReplica(v.Handoff.Index),
				} {
					if _, ok := found[shape]; hit && !ok {
						found[shape] = strings.Join(seq, ", ") + " gives " + viewShape(v)
					}
				}
				next = append(next, state{m: m, holders: holders, seq: seq})
			}
		}
		frontier = next
	}
	t.Logf("%d states, %d transitions", len(seen), transitions)
	for shape, got := range found {
		if _, ok := pinned[shape]; !ok {
			t.Errorf("new shape %q: %s", shape, got)
		}
	}
	for shape, want := range pinned {
		if got := found[shape]; got != want {
			t.Errorf("%s: found %q, pinned %q", shape, got, want)
		}
	}
}

// checkTransition checks one step of transition: its steps agree with the
// membership it returns, every change to partition 0's view is a real one
// and bumps the epoch exactly when it is published, no node is listed
// twice, an empty view has a recorded last holder, and the other
// partitions stay as they were.
func checkTransition(old, m membership, steps []any) string {
	cur := old.views[0]
	status := slices.Clone(old.status)
	for _, st := range steps {
		switch st := st.(type) {
		case statusStep:
			status[st.node] = st.to
		case viewStep:
			if st.v.Partition != 0 {
				return fmt.Sprintf("a step changes partition %d", st.v.Partition)
			}
			if viewShape(st.v) == viewShape(cur) {
				return fmt.Sprintf("a view step changes nothing: %s", viewShape(cur))
			}
			want, empty := cur.Epoch, len(st.v.Replicas) == 0
			if st.publish {
				want++
			}
			if st.v.Epoch != want || st.publish == empty {
				return fmt.Sprintf("epoch %d -> %d on %s (published %v)", cur.Epoch, st.v.Epoch, viewShape(st.v), st.publish)
			}
			cur = st.v
		}
	}
	_, recorded := m.holders[0]
	switch v := m.views[0]; {
	case v != cur:
		return "the returned view is not the last one the steps store"
	case !slices.Equal(status, m.status):
		return fmt.Sprintf("status steps give %v, transition returns %v", status, m.status)
	case !slices.Equal(old.views[1:], m.views[1:]):
		return "an empty partition changed"
	case len(v.Replicas) == 0 && !recorded:
		return "an empty view has no recorded last holder"
	default:
		listed := map[int]bool{}
		for _, a := range v.PutParticipants() {
			if listed[a.Index] {
				return fmt.Sprintf("node %d listed twice in %s", a.Index, viewShape(v))
			}
			listed[a.Index] = true
		}
	}
	return ""
}

// modelHolders advances the model's holder set of partition 0 over event
// e, which took its view from old to v: a holder stays one while it is a
// replica; a completed rejoiner becomes one if a holder was there to sync
// from; a reseated last holder is the only one.
func modelHolders(old, v *PartitionView, holders []int, e change) []int {
	var out []int
	for _, h := range holders {
		if v.HasReplica(h) {
			out = append(out, h)
		}
	}
	switch {
	case e.kind == evConsistent && old.IsRecovering(e.node) && len(holders) > 0:
		out = append(out, e.node)
	case e.kind == evRejoin && len(old.Replicas) == 0 && v.HasReplica(e.node):
		out = []int{e.node}
	}
	slices.Sort(out)
	return out
}

func stateKey(m membership, holders []int) string {
	lh := -1
	if h, ok := m.holders[0]; ok {
		lh = h.Index
	}
	return fmt.Sprintf("%v %s last=%d holders=%v", m.status, viewShape(m.views[0]), lh, holders)
}

// viewShape prints a view's membership, without its epoch.
func viewShape(v *PartitionView) string {
	idx := func(l []NodeAddr) (out []int) {
		for _, a := range l {
			out = append(out, a.Index)
		}
		return out
	}
	s := fmt.Sprint(idx(v.Replicas))
	if v.Handoff != nil {
		s += fmt.Sprintf(" handoff %d", v.Handoff.Index)
	}
	if len(v.Recovering) > 0 {
		s += fmt.Sprintf(" recovering %v", idx(v.Recovering))
	}
	return s
}

func eventName(e change) string {
	return fmt.Sprintf("%s %d", [...]string{"fail", "rejoin", "consistent"}[e.kind], e.node)
}
