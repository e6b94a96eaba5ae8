package controller

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/switchcache"
)

// noGets is a switch-cache parser that recognizes no packet: these tests
// feed the detector its samples directly.
type noGets struct{}

func (noGets) ParseGet(*netsim.Packet) (string, uint64, bool) { return "", 0, false }

func (noGets) MakeReply(*netsim.Packet, any, int, uint64) switchcache.Reply {
	return switchcache.Reply{}
}

// cacheRig is the controller rig with a switch cache of the given
// capacity on its datapath and a detector at HotThreshold 3 decaying
// every 100 ms from 1 ms on. The fake nodes answer a fetch from sizes (a
// key it lacks, or one over the request's MaxSize, is not found) unless
// hold says to leave it unanswered.
type cacheRig struct {
	*rig
	cm    *CacheManager
	sizes map[string]int
	hold  func(key string) bool
}

func newCacheRig(t *testing.T, capacity int, sizes map[string]int) *cacheRig {
	t.Helper()
	cr := &cacheRig{rig: newRig(t, 4, 3, false), sizes: sizes}
	cr.onMsg = func(i int, m any) {
		req, ok := m.(*CacheFetchRequest)
		if !ok || (cr.hold != nil && cr.hold(req.Key)) {
			return
		}
		rep := req.Reply()
		*rep = CacheFetchReply{Key: req.Key}
		if size, ok := cr.sizes[req.Key]; ok && size <= req.MaxSize {
			rep.Found, rep.Value, rep.Size, rep.Ver = true, "v", size, 1
		}
		cr.nodes[i].ctrl.SendTo(cr.meta.IP(), cr.svc.cfg.CtrlPort, rep, ctrlMsgSize)
	}
	cr.runUntil(t, ms(1))
	cr.svc.cfg.Cache = switchcache.Attach(cr.dp, noGets{}, switchcache.Config{Capacity: capacity})
	cr.svc.cfg.CacheManager = CacheManagerConfig{HotThreshold: 3, DecayEvery: ms(100)}
	cr.svc.EnableStages()
	cr.cm = cr.svc.CacheManager()
	return cr
}

// sample feeds the detector n misses of key, then runs the control
// round trips out.
func (cr *cacheRig) sample(t *testing.T, key string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		cr.cm.OnSample(key)
	}
	cr.runUntil(t, cr.s.Now()+ms(5))
}

// TestCacheFillsFreeSlotsOnFirstMiss: while the table has a free slot a
// key is fetched on its first miss; a key that came back absent or
// oversize is not fetched again on those grounds until the next decay;
// a full table fetches only at the hot threshold and installs only over
// a strictly colder resident.
func TestCacheFillsFreeSlotsOnFirstMiss(t *testing.T) {
	cr := newCacheRig(t, 2, map[string]int{"a": 100, "b": 100, "c": 100, "d": 100, "big": 5000})
	c := cr.svc.cfg.Cache
	check := func(when string, fetches, installs, evicts int64) {
		t.Helper()
		if st := cr.cm.Stats(); st.Fetches != fetches || st.Installs != installs || st.Evicts != evicts {
			t.Fatalf("%s: %+v, want %d fetches, %d installs, %d evicts", when, st, fetches, installs, evicts)
		}
	}

	cr.sample(t, "absent", 1)
	cr.sample(t, "big", 1)
	check("absent and oversize keys fetched on their first miss", 2, 0, 0)
	cr.sample(t, "absent", 1)
	cr.sample(t, "big", 1)
	check("refused keys sampled again", 2, 0, 0)
	cr.sample(t, "a", 1)
	check("one miss of a", 3, 1, 0)
	if !c.Contains("a") {
		t.Fatal("a's first miss did not fill a free slot")
	}

	cr.runUntil(t, ms(150)) // past the first decay
	cr.sample(t, "absent", 1)
	check("a refused key after the decay", 4, 1, 0)

	cr.sample(t, "b", 5)
	check("b fills the last slot", 5, 2, 0)
	cr.sample(t, "c", 2)
	check("a full table below the threshold", 5, 2, 0)
	cr.sample(t, "c", 1) // estimate 3 over a's 0, its one miss halved
	check("c at the threshold, a colder", 6, 3, 1)
	if !c.Contains("c") || c.Contains("a") {
		t.Fatalf("c did not replace a: resident %v", c.Keys())
	}
	cr.sample(t, "d", 3) // estimate 3, coldest resident c at 3
	check("d at the threshold, nothing colder", 7, 3, 1)
	if c.Contains("d") || c.Len() != 2 {
		t.Fatalf("d installed over a resident as hot as itself: %v", c.Keys())
	}
}

// TestFetchTimeoutIsPerFetch: a fetch's FetchTimeout timer clears its own
// in-flight mark, never a later fetch's. The key's first fetch is
// answered and installed, a write-through drops it, and its second fetch
// goes unanswered; when the first fetch's timer fires the second is
// still in flight, so a miss then starts no third fetch.
func TestFetchTimeoutIsPerFetch(t *testing.T) {
	cr := newCacheRig(t, 4, map[string]int{"k": 100})
	c := cr.svc.cfg.Cache
	cr.sample(t, "k", 1)
	if !c.Contains("k") {
		t.Fatal("first fetch did not install")
	}
	c.Invalidate("k", 2)
	cr.hold = func(string) bool { return true }
	cr.runUntil(t, ms(50))
	cr.sample(t, "k", 1) // the second fetch, sent at 50 ms
	cr.runUntil(t, ms(120))
	cr.sample(t, "k", 1) // the first fetch's timer fired at ~101 ms
	if got := cr.cm.Stats().Fetches; got != 2 {
		t.Fatalf("%d fetches by 120 ms, want 2: the first fetch's timer cleared the second's mark", got)
	}
	cr.runUntil(t, ms(170))
	cr.sample(t, "k", 1) // the second fetch's own timer fired at 150 ms
	if got := cr.cm.Stats().Fetches; got != 3 {
		t.Fatalf("%d fetches by 170 ms, want 3", got)
	}
}
