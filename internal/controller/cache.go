package controller

import (
	"time"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/switchcache"
)

// CacheManagerConfig parameterizes the hot-key detector.
type CacheManagerConfig struct {
	// HotThreshold is the sketch estimate at which a sampled key is
	// considered hot and fetched for installation.
	HotThreshold uint32
	// DecayEvery is the sketch halving period (the detector's sliding
	// window); 0 disables decay.
	DecayEvery sim.Time
}

// DefaultCacheManagerConfig tunes the detector for the simulated runs.
func DefaultCacheManagerConfig() CacheManagerConfig {
	return CacheManagerConfig{
		HotThreshold: 8,
		DecayEvery:   500 * time.Millisecond,
	}
}

const (
	// SketchRows/SketchCols size the detector's count-min sketch.
	SketchRows, SketchCols = 4, 1024
	// FetchTimeout clears a fetch that never came back (primary failed),
	// letting the key be retried.
	FetchTimeout = 100 * time.Millisecond
)

// CacheManagerStats counts detector activity.
type CacheManagerStats struct {
	Sampled  int64 // miss keys received from the switch
	Fetches  int64 // object fetches issued to primaries
	Installs int64 // install commands pushed to the switch
	Evicts   int64 // eviction commands pushed to make room
}

// CacheManager is the controller half of the in-switch cache (NetCache's
// cache-management module): it watches the sampled miss stream the switch
// mirrors up, ranks keys with a decayed count-min sketch, fetches objects
// that cross the hot threshold from their partition primary, and installs
// them — evicting the coldest resident entry when the table is full,
// which the sketch's victim index (switchcache/victim.go) names without
// a pass over the table. The data plane never waits on it: everything
// here is off the get path.
type CacheManager struct {
	svc      *Service
	cache    *switchcache.Cache
	cfg      CacheManagerConfig
	space    ring.Space
	sketch   *switchcache.Sketch
	inflight map[string]bool // fetches awaiting a reply
	stats    CacheManagerStats
}

// enableCache attaches a hot-key detector managing the configured switch
// cache to the metadata service (EnableStages): the switch's miss sampler
// is pointed at the detector and the decay loop is spawned here.
func (svc *Service) enableCache() {
	c, cfg := svc.cfg.Cache, svc.cfg.CacheManager
	cm := &CacheManager{
		svc:      svc,
		cache:    c,
		cfg:      cfg,
		space:    ring.NewSpace(svc.cfg.Placement.N),
		sketch:   switchcache.NewSketch(SketchRows, SketchCols),
		inflight: make(map[string]bool),
	}
	svc.cacheMgr = cm
	c.SetSampler(cm.OnSample)
	// From here on the sketch's victim index follows the table's actual
	// membership. A manager this one supersedes at a takeover loses the
	// mirror, which is safe: its generation is fenced at the state store
	// before this runs, so whatever victim its stale index names, its
	// onFetchReply returns at the intent write, ahead of any command to
	// the switch.
	c.MirrorResidents(cm.sketch)
	// A takeover reconciles the switch table against the
	// replicated install records: an entry the chain does not list as
	// resident was evicted (or never recorded) under the old generation,
	// and the new controller cannot vouch for its version — evict it.
	// Keys the chain lists but the switch lacks need nothing; the next
	// misses re-install them through the normal path.
	if svc.restoredCache != nil {
		resident := make(map[string]bool, len(svc.restoredCache))
		for _, ce := range svc.restoredCache {
			if ce.Resident {
				resident[ce.Key] = true
			}
		}
		for _, key := range c.Keys() { // Keys() is sorted: deterministic evict order
			if !resident[key] {
				svc.store.WriteCache(svc.gen, key, 0, false)
				c.EvictAs(svc.gen, key)
				cm.stats.Evicts++
			}
		}
	}
	if cfg.DecayEvery > 0 {
		svc.s.Spawn("cache-decay", func(p *sim.Proc) {
			for {
				p.Sleep(cfg.DecayEvery)
				cm.sketch.Halve()
			}
		})
	}
}

// Stats returns detector counters.
func (cm *CacheManager) Stats() CacheManagerStats { return cm.stats }

// OnSample receives one sampled miss key from the switch (already delayed
// by the control channel) and decides whether to start an install.
func (cm *CacheManager) OnSample(key string) {
	cm.stats.Sampled++
	est := cm.sketch.Add(key)
	if est < cm.cfg.HotThreshold || cm.cache.Contains(key) || cm.inflight[key] {
		return
	}
	cm.fetch(key)
}

// fetch asks the key's partition primary for the committed object.
func (cm *CacheManager) fetch(key string) {
	part := cm.space.PartitionOf(key)
	if part < 0 || part >= len(cm.svc.views) {
		return
	}
	v := cm.svc.views[part]
	if v == nil || len(v.Replicas) == 0 {
		return
	}
	cm.inflight[key] = true
	cm.stats.Fetches++
	req := &CacheFetchRequest{Key: key, MaxSize: switchcache.MaxValueSize}
	cm.svc.sendToNode(v.Primary(), req, ctrlMsgSize)
	cm.svc.s.At2(cm.svc.s.Now()+FetchTimeout, fetchExpired, cm, req)
}

// fetchExpired clears a fetch's in-flight mark FetchTimeout after it was
// sent, whether or not a later fetch of the key has set it again.
func fetchExpired(a1, a2 any) {
	delete(a1.(*CacheManager).inflight, a2.(*CacheFetchRequest).Key)
}

// onFetchReply completes an install: make room if the table is full
// (evicting the resident key the sketch ranks coldest, and only when the
// new key is hotter), then push the entry to the switch. The switch-side
// version fence rejects the install if a put committed past the fetched
// copy while it was in flight.
func (cm *CacheManager) onFetchReply(m *CacheFetchReply) {
	delete(cm.inflight, m.Key)
	if !m.Found || cm.cache.Contains(m.Key) {
		return
	}
	// Admission first: when the table is full the candidate must beat the
	// coldest resident, or nothing is written anywhere.
	victim := ""
	if cm.cache.Len() >= cm.cache.Config().Capacity {
		var cold uint32
		victim, cold = cm.sketch.Coldest()
		if victim == "" || cold >= cm.sketch.Estimate(m.Key) {
			return // nothing resident is colder than the candidate
		}
	}
	// Write the install intent through to the state store before touching
	// the switch — only now, so the store's resident list (what a
	// takeover reconciles the table against) never holds a rejected
	// candidate. A rejection means a newer controller generation owns
	// cache management and this manager belongs to a fenced zombie.
	if !cm.svc.store.WriteCache(cm.svc.gen, m.Key, m.Ver, true) {
		cm.svc.stats.FencedWrites++
		return
	}
	if victim != "" {
		cm.svc.store.WriteCache(cm.svc.gen, victim, 0, false)
		cm.cache.EvictAs(cm.svc.gen, victim)
		cm.stats.Evicts++
	}
	cm.cache.InstallAs(cm.svc.gen, m.Key, m.Value, m.Size, m.Ver)
	cm.stats.Installs++
}
