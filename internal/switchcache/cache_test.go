package switchcache

import (
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
)

// stubParser treats any UDP datagram to port 7000 whose payload is a
// string as a get for that key.
type stubParser struct{}

func (stubParser) ParseGet(pkt *netsim.Packet) (string, uint64, bool) {
	if pkt.Proto != netsim.ProtoUDP || pkt.DstPort != 7000 {
		return "", 0, false
	}
	k, ok := pkt.Payload.(string)
	return k, 0, ok
}

func (stubParser) MakeReply(pkt *netsim.Packet, value any, size int, ver uint64) Reply {
	return Reply{Payload: value, Size: size, DstPort: 8000}
}

const testCtrlDelay = 100 * time.Microsecond

// rig is a one-switch, one-client harness for pipeline tests.
type rig struct {
	s      *sim.Simulator
	net    *netsim.Network
	sw     *netsim.Switch
	client *netsim.Host
	dp     *openflow.Datapath
	cache  *Cache
	got    []*netsim.Packet
}

func newRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	sw := nw.NewSwitch("sw", 2, time.Microsecond)
	client := nw.NewHost("client", netsim.MustParseIP("192.168.0.1"))
	nw.Connect(client.Port(), sw.Port(0), netsim.Gbps(1, time.Microsecond))
	dp := openflow.Attach(sw, testCtrlDelay)
	r := &rig{s: s, net: nw, sw: sw, client: client, dp: dp}
	r.cache = Attach(dp, stubParser{}, cfg)
	client.SetHandler(func(pkt *netsim.Packet) { r.got = append(r.got, pkt) })
	return r
}

// sendGet injects a client get for key into the switch.
func (r *rig) sendGet(key string) {
	pkt := r.net.NewPacket()
	pkt.SrcIP = r.client.IP()
	pkt.SrcMAC = r.client.MAC()
	pkt.DstIP = netsim.MustParseIP("10.10.0.1") // vnode-ish address
	pkt.Proto = netsim.ProtoUDP
	pkt.SrcPort = 5000
	pkt.DstPort = 7000
	pkt.Size = 64
	pkt.Payload = key
	r.client.Send(pkt)
}

func (r *rig) run(t testing.TB) {
	t.Helper()
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// install synchronously places an entry (running the control delay out).
func (r *rig) install(t *testing.T, key string, value any, size int, ver uint64) {
	t.Helper()
	r.cache.InstallAs(0, key, value, size, ver)
	r.run(t)
}

func TestCacheHitSynthesizesReply(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.install(t, "hot", "cached-value", 200, 1)
	if !r.cache.Contains("hot") {
		t.Fatal("install did not land")
	}

	r.sendGet("hot")
	r.run(t)

	if len(r.got) != 1 {
		t.Fatalf("client received %d packets, want 1", len(r.got))
	}
	rep := r.got[0]
	if rep.Payload != "cached-value" || rep.DstPort != 8000 || rep.Proto != netsim.ProtoUDP {
		t.Fatalf("bad reply: payload=%v dstport=%d proto=%v", rep.Payload, rep.DstPort, rep.Proto)
	}
	if rep.DstIP != r.client.IP() {
		t.Fatalf("reply addressed to %v, want client %v", rep.DstIP, r.client.IP())
	}
	st := r.cache.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 hit", st)
	}
	if r.cache.HitsOf("hot") != 1 {
		t.Fatalf("per-entry hits = %d", r.cache.HitsOf("hot"))
	}
}

func TestCacheMissSamplesKey(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var sampled []string
	r.cache.SetSampler(func(k string) { sampled = append(sampled, k) })

	for i := 0; i < 4; i++ {
		r.sendGet("cold")
	}
	r.run(t)

	// Every miss mirrors its key to the detector.
	if !reflect.DeepEqual(sampled, []string{"cold", "cold", "cold", "cold"}) {
		t.Fatalf("sampled %v, want every miss", sampled)
	}
	st := r.cache.Stats()
	if st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 4 misses", st)
	}
	// No reply was synthesized for misses.
	if len(r.got) != 0 {
		t.Fatalf("client received %d packets on misses", len(r.got))
	}
}

func TestCacheInstallDelayedByControlChannel(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.cache.InstallAs(0, "k", "v", 10, 1)
	if r.cache.Contains("k") {
		t.Fatal("install visible before the control delay")
	}
	r.run(t)
	if !r.cache.Contains("k") {
		t.Fatal("install never landed")
	}
	r.cache.EvictAs(0, "k")
	if !r.cache.Contains("k") {
		t.Fatal("evict visible before the control delay")
	}
	r.run(t)
	if r.cache.Contains("k") {
		t.Fatal("evict never landed")
	}
	st := r.cache.Stats()
	if st.Installs != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheCommandsStayFIFOAcrossFaultChange: commands share the
// datapath's ordered control session, so one issued after an injected
// delay clears cannot overtake one issued under it. The evict frees the
// only slot; the install issued next must find it free.
func TestCacheCommandsStayFIFOAcrossFaultChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 1
	r := newRig(t, cfg)
	r.install(t, "old", "v", 10, 1)

	r.dp.SetControlFault(5*time.Millisecond, 0)
	r.cache.EvictAs(0, "old")
	r.dp.SetControlFault(0, 0)
	r.cache.InstallAs(0, "new", "v", 10, 1)
	if err := r.s.RunUntil(r.s.Now() + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !r.cache.Contains("old") || r.cache.Contains("new") {
		t.Fatal("a command issued after the fault cleared overtook the delayed one")
	}
	r.run(t)
	if st := r.cache.Stats(); !r.cache.Contains("new") || st.Evictions != 1 || st.Rejected != 0 {
		t.Fatalf("install did not apply behind the evict: %+v", st)
	}
}

// TestCacheCommandsFencedAtApply: the writer fence is checked where a
// command applies, so one already in flight when a promoted standby
// raises the fence is refused — an install is counted rejected, an evict
// silently dropped, both by the datapath's one command path.
func TestCacheCommandsFencedAtApply(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.cache.InstallAs(1, "kept", "v", 10, 1)
	r.run(t)

	r.cache.InstallAs(1, "zombie", "stale", 10, 1)
	r.cache.EvictAs(1, "kept")
	r.dp.RaiseWriterFence(2)
	r.run(t)
	if r.cache.Contains("zombie") || !r.cache.Contains("kept") {
		t.Fatalf("a fenced generation's in-flight commands applied: %v", r.cache.Keys())
	}
	if st := r.cache.Stats(); st.Rejected != 1 || r.dp.Stats().FencedMods != 2 {
		t.Fatalf("rejected=%d fenced=%d, want 1 and 2", st.Rejected, r.dp.Stats().FencedMods)
	}
}

func TestCacheInvalidateIsSynchronousAndFencesInstalls(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.install(t, "k", "v1", 10, 5)

	// A put committing version 6 invalidates with no delay.
	r.cache.Invalidate("k", 6)
	if r.cache.Contains("k") {
		t.Fatal("invalidate must apply synchronously")
	}

	// An install of the pre-commit copy (fetched before the put) must
	// lose the race even though it applies later.
	r.cache.InstallAs(0, "k", "v1", 10, 5)
	r.run(t)
	if r.cache.Contains("k") {
		t.Fatal("stale install (ver 5 < invalidated 6) was accepted")
	}
	// The committed version itself is installable.
	r.install(t, "k", "v2", 10, 6)
	if !r.cache.Contains("k") {
		t.Fatal("install at the invalidation version must be accepted")
	}
	st := r.cache.Stats()
	if st.Invalidations != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheCapacityAndOversize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 2
	r := newRig(t, cfg)

	r.install(t, "big", "v", MaxValueSize+1, 1) // over MaxValueSize, with room to spare
	if r.cache.Contains("big") {
		t.Fatal("oversize object cached")
	}
	r.install(t, "a", "v", MaxValueSize, 1) // exactly at the limit
	r.install(t, "b", "v", 10, 1)
	r.install(t, "c", "v", 10, 1) // over capacity
	if r.cache.Len() != 2 || !r.cache.Contains("a") || r.cache.Contains("c") {
		t.Fatalf("capacity bound violated: keys=%v", r.cache.Keys())
	}
	if st := r.cache.Stats(); st.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", st.Rejected)
	}
	if st := r.cache.Stats(); st.Occupancy != 2 || st.Capacity != 2 {
		t.Fatalf("occupancy snapshot = %+v", st)
	}
}

func TestCacheNonGetTrafficFallsThrough(t *testing.T) {
	r := newRig(t, DefaultConfig())
	pkt := r.net.NewPacket()
	pkt.SrcIP = r.client.IP()
	pkt.SrcMAC = r.client.MAC()
	pkt.DstIP = netsim.MustParseIP("10.0.0.1")
	pkt.Proto = netsim.ProtoTCP
	pkt.DstPort = 7000
	pkt.Size = 64
	r.client.Send(pkt)
	r.run(t)
	if st := r.cache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("non-get traffic touched the cache: %+v", st)
	}
}

func TestSketchEstimateAndHalve(t *testing.T) {
	s := NewSketch(4, 64)
	if s.Estimate("x") != 0 {
		t.Fatal("fresh sketch must estimate 0")
	}
	for i := 0; i < 10; i++ {
		s.Add("x")
	}
	s.Add("y")
	if got := s.Estimate("x"); got != 10 {
		t.Fatalf("estimate(x) = %d, want 10", got)
	}
	if got := s.Estimate("y"); got < 1 {
		t.Fatalf("estimate(y) = %d, want >= 1", got)
	}
	s.Halve()
	if got := s.Estimate("x"); got != 5 {
		t.Fatalf("after halve estimate(x) = %d, want 5", got)
	}
	s.Reset()
	if s.Estimate("x") != 0 {
		t.Fatal("reset sketch must estimate 0")
	}
}

func TestSketchConservativeUpdate(t *testing.T) {
	// Conservative update keeps a never-seen key's estimate low even when
	// the sketch is under heavy load from other keys.
	s := NewSketch(4, 32)
	for i := 0; i < 1000; i++ {
		s.Add("hot")
	}
	if got := s.Estimate("hot"); got != 1000 {
		t.Fatalf("estimate(hot) = %d, want 1000", got)
	}
	// The single hot key collides with at most one counter per row; a
	// fresh key cannot inherit the full count in all rows.
	fresh := s.Estimate("never-seen-key-1")
	if fresh != 0 && fresh != 1000 {
		t.Logf("fresh estimate = %d (collision artifact, acceptable)", fresh)
	}
}

func TestSketchDeterminism(t *testing.T) {
	a, b := NewSketch(4, 128), NewSketch(4, 128)
	keys := []string{"k1", "k2", "k3", "k1", "k1", "k9"}
	for _, k := range keys {
		a.Add(k)
		b.Add(k)
	}
	for _, k := range append(keys, "unseen") {
		if a.Estimate(k) != b.Estimate(k) {
			t.Fatalf("sketches diverged on %q", k)
		}
	}
}

// TestInvalOverflowIsDeterministic: which install fence is forgotten
// once the version memory is past invalCap must not depend on map
// iteration order. Two caches driven identically — the same residents,
// the same invalCap+3000 write-throughs of non-resident keys, some keys
// written twice — must remember the same versions and give the same
// accept/reject answer to the same replayed install sequence; and what
// they forget is the oldest-recorded keys, never a resident's.
func TestInvalOverflowIsDeterministic(t *testing.T) {
	const extra = 3000
	key := func(i int) string { return "k" + strconv.Itoa(i) }
	resident := func(i int) bool { return i%100 == 0 && i < 800 }
	drive := func() *rig {
		cfg := DefaultConfig()
		cfg.Capacity = 4096 // room for every install the replay lets through
		r := newRig(t, cfg)
		put := func(i int, ver uint64) {
			if !resident(i) { // a put of a resident would drop it
				r.cache.Invalidate(key(i), ver)
			}
		}
		for i := 0; i < 800; i += 100 { // residents among the oldest recorded keys
			r.cache.Invalidate(key(i), 5)
			r.install(t, key(i), "v", 10, 5)
		}
		for i := 0; i < invalCap+extra; i++ {
			put(i, 5)
			if i%7 == 0 {
				put(i/2, 6) // a second put of a known key
			}
		}
		// Replay: installs at version 4 lose to every fence still held.
		for i := 0; i < invalCap+extra; i += 5 {
			r.cache.InstallAs(0, key(i), "stale", 10, 4)
		}
		r.run(t)
		return r
	}
	a, b := drive(), drive()
	if !reflect.DeepEqual(a.cache.inval, b.cache.inval) {
		t.Fatal("identically driven caches remember different install fences")
	}
	if !reflect.DeepEqual(a.cache.Keys(), b.cache.Keys()) || a.cache.Stats() != b.cache.Stats() {
		t.Fatalf("replayed installs answered differently:\n  %+v\n  %+v", a.cache.Stats(), b.cache.Stats())
	}
	if len(a.cache.inval) != invalCap || len(a.cache.invalOrder) != invalCap {
		t.Fatalf("version memory holds %d keys (%d queued), want %d", len(a.cache.inval), len(a.cache.invalOrder), invalCap)
	}
	for i := 0; i < invalCap+extra; i++ {
		_, held := a.cache.inval[key(i)]
		if want := i >= extra+8 || resident(i); held != want {
			t.Fatalf("fence of %s (resident=%v) held=%v, want %v", key(i), resident(i), held, want)
		}
	}
	// The replay got through exactly where the fence was forgotten: the
	// multiples of 5 below extra+8, less the 8 residents (all multiples of
	// 5, fences held), on top of the 8 set-up installs.
	if st, want := a.cache.Stats(), int64(8+(extra+8+4)/5-8); st.Installs != want {
		t.Fatalf("%d installs applied (%d rejected), want %d", st.Installs, st.Rejected, want)
	}
}
