package harmonia

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
)

// testOp is the comparable operation identity the stub parser hands out.
type testOp struct {
	client netsim.IP
	seq    uint64
}

// putMsg / getMsg are the stub wire messages; a []*putMsg payload is a
// batched prepare.
type putMsg struct {
	key     string
	op      testOp
	attempt int
}
type getMsg struct {
	key string
	rid uint64
}

// stubParser recognizes the test messages.
type stubParser struct{}

func (stubParser) ParseGet(pkt *netsim.Packet) (string, uint64, bool) {
	if m, ok := pkt.Payload.(*getMsg); ok {
		return m.key, m.rid, true
	}
	return "", 0, false
}

func (stubParser) ParsePut(pkt *netsim.Packet, i int) (string, any, int, bool) {
	batch, _ := pkt.Payload.([]*putMsg)
	if m, ok := pkt.Payload.(*putMsg); ok {
		batch = []*putMsg{m}
	}
	if i < len(batch) {
		return batch[i].key, batch[i].op, batch[i].attempt, true
	}
	return "", nil, 0, false
}

// rig is a minimal switch + datapath + dirty-set stage. Tests push
// packets through the stage alone: it consumes nothing, so what it did is
// read off the packet and the counters.
type rig struct {
	s    *sim.Simulator
	sw   *netsim.Switch
	dp   *openflow.Datapath
	ds   *DirtySet
	part func(string) int
}

const ctrlDelay = 200 * time.Microsecond

func newRig(t *testing.T, cfg Config, partOf func(string) int) *rig {
	t.Helper()
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	sw := nw.NewSwitch("sw", 4, 0)
	dp := openflow.Attach(sw, ctrlDelay)
	ds := Attach(dp, stubParser{}, partOf, cfg)
	return &rig{s: s, sw: sw, dp: dp, ds: ds, part: partOf}
}

// settle runs the simulator long enough for pending installs to apply.
func (r *rig) settle(t *testing.T) {
	t.Helper()
	if err := r.s.RunUntil(r.s.Now() + 10*ctrlDelay); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) put(key string, op testOp) { r.putAttempt(key, op, 0) }

// putAttempt pushes delivery attempt attempt of op's prepare.
func (r *rig) putAttempt(key string, op testOp, attempt int) {
	r.process(&netsim.Packet{Proto: netsim.ProtoUDP, Payload: &putMsg{key: key, op: op, attempt: attempt}})
}

func (r *rig) process(pkt *netsim.Packet) {
	if r.ds.Process(r.sw, pkt, 0) {
		panic("the dirty-set stage consumed a packet")
	}
}

// get pushes a read through the stage and returns the destination it was
// forwarded with (the stage mutates DstIP on rewrite).
func (r *rig) get(key string, rid uint64, dst netsim.IP) netsim.IP {
	pkt := &netsim.Packet{Proto: netsim.ProtoUDP, DstIP: dst, Payload: &getMsg{key: key, rid: rid}}
	r.process(pkt)
	return pkt.DstIP
}

var (
	vringDst = netsim.IPv4(10, 10, 0, 1)
	replicas = []netsim.IP{
		netsim.IPv4(10, 0, 0, 1), // primary
		netsim.IPv4(10, 0, 0, 2),
		netsim.IPv4(10, 0, 0, 3),
	}
)

func inSet(ip netsim.IP, set []netsim.IP) bool {
	for _, r := range set {
		if r == ip {
			return true
		}
	}
	return false
}

func singlePartition(string) int { return 0 }

// TestCleanRouting: clean keys are rewritten to an installed replica and
// ReplicaPort, deterministically per (key, rid), and spread across the
// set as the request id varies.
func TestCleanRouting(t *testing.T) {
	r := newRig(t, Config{}, singlePartition)
	r.ds.InstallViewAs(1, 0, 1, replicas)
	r.settle(t)

	seen := map[netsim.IP]int{}
	for rid := uint64(0); rid < 64; rid++ {
		dst := r.get("k", rid, vringDst)
		if !inSet(dst, replicas) {
			t.Fatalf("rid %d routed to %v, not an installed replica", rid, dst)
		}
		if again := r.get("k", rid, vringDst); again != dst {
			t.Fatalf("rid %d not deterministic: %v then %v", rid, dst, again)
		}
		seen[dst]++
	}
	if len(seen) != len(replicas) {
		t.Errorf("64 rids only reached %d of %d replicas: %v", len(seen), len(replicas), seen)
	}
	pkt := &netsim.Packet{Proto: netsim.ProtoUDP, DstIP: vringDst, DstPort: 7000, Payload: &getMsg{key: "k"}}
	r.process(pkt)
	if pkt.DstPort != ReplicaPort {
		t.Errorf("rewritten read carries port %d, want ReplicaPort %d", pkt.DstPort, ReplicaPort)
	}
	if st := r.ds.Stats(); st.Routed == 0 || st.RoutedReplica == 0 {
		t.Errorf("routing counters empty: %+v", st)
	}
}

// TestDirtyFallback: a marked key falls back to the original destination
// (the primary path) until every installed replica applies the write; a
// concurrent get crossing the mark/clear window never gets rewritten
// while any replica is behind.
func TestDirtyFallback(t *testing.T) {
	r := newRig(t, Config{}, singlePartition)
	r.ds.InstallViewAs(1, 0, 1, replicas)
	r.settle(t)

	op := testOp{client: netsim.IPv4(192, 168, 0, 1), seq: 7}
	r.put("k", op)
	if !r.ds.Dirty("k") {
		t.Fatal("prepare traversal did not mark the key dirty")
	}
	// Gets crossing the in-flight window: never rewritten, counters tick.
	if dst := r.get("k", 1, vringDst); dst != vringDst {
		t.Fatalf("dirty key rewritten to %v", dst)
	}
	// Partial application (primary + one secondary) must not clear: the
	// third replica is exactly the laggard a rewrite must avoid.
	r.ds.MemberApplied("k", op, replicas[0])
	r.ds.MemberApplied("k", op, replicas[1])
	if !r.ds.Dirty("k") {
		t.Fatal("entry cleared before all replicas applied")
	}
	if dst := r.get("k", 2, vringDst); dst != vringDst {
		t.Fatalf("partially-applied key rewritten to %v", dst)
	}
	r.ds.MemberApplied("k", op, replicas[2])
	if r.ds.Dirty("k") {
		t.Fatal("entry survived full application")
	}
	if dst := r.get("k", 3, vringDst); !inSet(dst, replicas) {
		t.Fatalf("clean key not rewritten (dst %v)", dst)
	}
	st := r.ds.Stats()
	if st.DirtyFallbacks != 2 || st.Marks != 1 || st.Clears != 1 {
		t.Errorf("counters: %+v", st)
	}
}

// TestBatchedPrepareMarksEveryKey: a batched prepare is one packet
// carrying several ops; each marks its own key under its own identity.
func TestBatchedPrepareMarksEveryKey(t *testing.T) {
	r := newRig(t, Config{}, singlePartition)
	r.ds.InstallViewAs(1, 0, 1, replicas)
	r.settle(t)

	ops := []*putMsg{{"a", testOp{seq: 1}, 0}, {"b", testOp{seq: 2}, 0}, {"c", testOp{seq: 3}, 0}}
	r.process(&netsim.Packet{Proto: netsim.ProtoUDP, Payload: ops})
	for _, m := range ops {
		if !r.ds.Dirty(m.key) {
			t.Fatalf("batched prepare did not mark %q", m.key)
		}
	}
	r.ds.OpAborted("b", ops[1].op, 0)
	if r.ds.Dirty("b") || !r.ds.Dirty("a") || !r.ds.Dirty("c") {
		t.Fatal("batched ops do not clear independently")
	}
	if st := r.ds.Stats(); st.Marks != 3 {
		t.Fatalf("marks = %d, want 3", st.Marks)
	}
}

// TestInstallsStayFIFOAcrossFaultChange: view installs share the
// datapath's ordered control session, so one issued after an injected
// delay clears waits behind the one issued under it, and both apply in
// epoch order.
func TestInstallsStayFIFOAcrossFaultChange(t *testing.T) {
	r := newRig(t, Config{}, singlePartition)
	r.ds.InstallViewAs(1, 0, 1, replicas)
	r.settle(t)

	r.dp.SetControlFault(5*time.Millisecond, 0)
	r.ds.InstallViewAs(1, 0, 2, replicas[:2])
	r.dp.SetControlFault(0, 0)
	newest := []netsim.IP{replicas[0], replicas[2]}
	r.ds.InstallViewAs(1, 0, 3, newest)
	r.settle(t) // 10 control delays: long past an unordered delivery, short of the fault
	if st := r.ds.Stats(); st.Installs != 1 {
		t.Fatalf("an install issued after the fault cleared overtook the delayed one: %+v", st)
	}
	if err := r.s.RunUntil(r.s.Now() + 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := r.ds.Stats(); st.Installs != 3 {
		t.Fatalf("installs = %d, want all 3 applied in order", st.Installs)
	}
	for rid := uint64(0); rid < 16; rid++ {
		if dst := r.get("k", rid, vringDst); !inSet(dst, newest) {
			t.Fatalf("read routed to %v, outside the newest view", dst)
		}
	}
}

// TestAbortClears: an abandoned put stops holding its key dirty.
func TestAbortClears(t *testing.T) {
	r := newRig(t, Config{}, singlePartition)
	r.ds.InstallViewAs(1, 0, 1, replicas)
	r.settle(t)

	op := testOp{seq: 1}
	r.put("k", op)
	r.ds.OpAborted("k", op, 0)
	if r.ds.Dirty("k") {
		t.Fatal("aborted op left the key dirty")
	}
	// Two concurrent ops on one key: clearing one leaves the other's
	// mark in force.
	op2, op3 := testOp{seq: 2}, testOp{seq: 3}
	r.put("k", op2)
	r.put("k", op3)
	r.ds.OpAborted("k", op2, 0)
	if !r.ds.Dirty("k") {
		t.Fatal("second in-flight op lost its mark")
	}
}

// TestSupersededAbortKeepsTheRetryDirty: a slow replica's abort of an
// attempt that a retry of the same put has since renewed must not retire
// the retry's mark; the live attempt's own abort does.
func TestSupersededAbortKeepsTheRetryDirty(t *testing.T) {
	r := newRig(t, Config{}, singlePartition)
	r.ds.InstallViewAs(1, 0, 1, replicas)
	r.settle(t)

	op := testOp{seq: 1}
	r.putAttempt("k", op, 1)
	r.putAttempt("k", op, 2)
	r.ds.OpAborted("k", op, 1)
	if !r.ds.Dirty("k") {
		t.Fatal("the abort of attempt 1 retired attempt 2's mark")
	}
	r.ds.OpAborted("k", op, 2)
	if r.ds.Dirty("k") {
		t.Fatal("the live attempt's abort left the key dirty")
	}
}

// TestOverflowTaint: a put the full table cannot track taints its
// partition — every read falls back to the primary, never a replica that
// might miss the untracked write — until the next view install resets it.
func TestOverflowTaint(t *testing.T) {
	cfg := Config{}
	cfg.Capacity = 2
	r := newRig(t, cfg, singlePartition)
	r.ds.InstallViewAs(1, 0, 1, replicas)
	r.settle(t)

	r.put("a", testOp{seq: 1})
	r.put("b", testOp{seq: 2})
	r.put("c", testOp{seq: 3}) // over capacity: untracked
	if r.ds.Dirty("c") {
		t.Fatal("over-capacity put was tracked")
	}
	if !r.ds.parts[0].tainted {
		t.Fatal("overflow did not taint the partition")
	}
	// The untracked key AND every clean key fall back while tainted.
	for _, key := range []string{"a", "b", "c", "never-written"} {
		if dst := r.get(key, 9, vringDst); dst != vringDst {
			t.Fatalf("tainted partition rewrote %q to %v", key, dst)
		}
	}
	st := r.ds.Stats()
	if st.Overflows != 1 || st.TaintFallbacks != 4 {
		t.Errorf("counters: %+v", st)
	}
	// The next view install (epoch bump) lifts the taint.
	r.ds.InstallViewAs(1, 0, 2, replicas)
	r.settle(t)
	if r.ds.parts[0].tainted {
		t.Fatal("view install did not reset the taint")
	}
	if dst := r.get("never-written", 9, vringDst); !inSet(dst, replicas) {
		t.Fatal("clean key not rewritten after taint reset")
	}
}

// TestViewChangeFlush is the regression test for the mid-flight view
// change: entries resident when a new view installs become sticky and
// keep falling back to the primary even after their old-view ops
// complete; only a put marked and fully applied under the NEW view
// re-certifies the key for replica routing.
func TestViewChangeFlush(t *testing.T) {
	r := newRig(t, Config{}, singlePartition)
	r.ds.InstallViewAs(1, 0, 1, replicas)
	r.settle(t)

	op := testOp{seq: 1}
	r.put("k", op)

	// Membership changes while the put is in flight: replica 3 replaced.
	newSet := []netsim.IP{replicas[0], replicas[1], netsim.IPv4(10, 0, 0, 4)}
	r.ds.InstallViewAs(1, 0, 2, newSet)
	r.settle(t)
	if st := r.ds.Stats(); st.Flushes != 1 {
		t.Fatalf("flush did not sticky the resident entry: %+v", st)
	}

	// The old-view op completes on every new-view member — bookkeeping
	// only: the key stays primary-routed, because the new member may have
	// joined without some acknowledged write the old view committed.
	for _, ip := range newSet {
		r.ds.MemberApplied("k", op, ip)
	}
	if !r.ds.Dirty("k") {
		t.Fatal("old-view completion cleared a sticky entry")
	}
	if dst := r.get("k", 1, vringDst); dst != vringDst {
		t.Fatalf("sticky key rewritten to %v", dst)
	}

	// A fresh put under the new view, applied by every new-view replica,
	// re-certifies the key.
	op2 := testOp{seq: 2}
	r.put("k", op2)
	for _, ip := range newSet {
		r.ds.MemberApplied("k", op2, ip)
	}
	if r.ds.Dirty("k") {
		t.Fatal("new-view completion did not clear the sticky entry")
	}
	if dst := r.get("k", 1, vringDst); !inSet(dst, newSet) {
		t.Fatalf("re-certified key not rewritten (dst %v)", dst)
	}
}

// TestWriterFence: an install from a fenced (superseded) controller
// generation is rejected at apply time, like switchcache installs.
func TestWriterFence(t *testing.T) {
	r := newRig(t, Config{}, singlePartition)
	r.ds.InstallViewAs(1, 0, 1, replicas)
	r.settle(t)

	// The zombie's install is already in flight when the fence rises: it
	// is refused where it applies.
	r.ds.InstallViewAs(1, 0, 5, []netsim.IP{replicas[0]})
	r.dp.RaiseWriterFence(2)
	r.settle(t)
	if st := r.ds.Stats(); st.RejectedInstalls != 1 {
		t.Fatalf("fenced install not rejected: %+v", st)
	}
	// The old (pre-fence) install stays in force.
	if dst := r.get("k", 1, vringDst); !inSet(dst, replicas) {
		t.Fatal("fenced install disturbed the active replica set")
	}

	// The new generation's install wins even at a lower epoch.
	r.ds.InstallViewAs(2, 0, 1, replicas[:2])
	r.settle(t)
	if dst := r.get("k", 4, vringDst); !inSet(dst, replicas[:2]) {
		t.Fatalf("new-generation install not applied (dst %v)", dst)
	}
}

// TestUninstalledPartition: partitions without an install (and replica
// sets too small to spread) never rewrite and never track.
func TestUninstalledPartition(t *testing.T) {
	r := newRig(t, Config{}, func(k string) int {
		if k == "other" {
			return 1
		}
		return 0
	})
	r.ds.InstallViewAs(1, 0, 1, replicas)
	r.ds.InstallViewAs(1, 1, 1, replicas[:1]) // single replica: no spreading
	r.settle(t)

	r.put("other", testOp{seq: 1})
	if r.ds.Dirty("other") {
		t.Error("single-replica partition tracked a put for nothing")
	}
	if dst := r.get("other", 3, vringDst); dst != vringDst {
		t.Errorf("single-replica partition rewrote to %v", dst)
	}
}
