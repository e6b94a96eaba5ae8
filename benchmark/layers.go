package main

import (
	"repro/internal/cluster"
	"repro/internal/openflow"
	"repro/internal/sim"
)

// counts is a reading of every public per-layer counter of a deployment:
// cumulative counters in c, point-in-time values in gauge, plus the
// per-link and per-node byte counts the load metrics are derived from.
type counts struct {
	c       map[string]float64
	gauge   map[string]float64
	linkDir []int64   // bytes per link direction
	linkBps []float64 // that direction's bandwidth
	nodeNIC []int64   // bytes through each storage node's NIC

	// Set by since: the virtual time the delta covers.
	elapsed sim.Time
}

// datapaths lists every OpenFlow datapath of the deployment. A switch
// fronted by the cache stage hides its datapath behind the stage; that
// one is d.Core.
func datapaths(d *cluster.NICE) []*openflow.Datapath {
	dps := []*openflow.Datapath{d.Core}
	for _, sw := range d.Net.Switches() {
		if dp, ok := sw.Pipeline().(*openflow.Datapath); ok && dp != d.Core {
			dps = append(dps, dp)
		}
	}
	return dps
}

// snapshot reads the counters through the layers' Stats() accessors.
func snapshot(d *cluster.NICE) counts {
	s := counts{c: map[string]float64{}, gauge: map[string]float64{}}
	c := s.c
	for _, sw := range d.Net.Switches() {
		st := sw.Stats()
		c["netsim.pkts_in"] += float64(st.PktsIn)
		c["netsim.switch_drops"] += float64(st.Dropped)
	}
	for _, l := range d.Net.Links() {
		s.linkDir = append(s.linkDir, l.StatsAB().Bytes, l.StatsBA().Bytes)
		s.linkBps = append(s.linkBps, l.Config().BandwidthBps, l.Config().BandwidthBps)
	}
	for _, st := range d.Stacks {
		hs := st.Host().Stats()
		s.nodeNIC = append(s.nodeNIC, hs.BytesSent+hs.BytesRecv)
	}
	for _, dp := range datapaths(d) {
		st := dp.Stats()
		c["openflow.packet_ins"] += float64(st.PacketIns)
		c["openflow.flow_mods"] += float64(st.FlowMods)
		s.gauge["openflow.table_entries"] += float64(dp.Table().Len())
	}
	if d.Cache != nil {
		st := d.Cache.Stats()
		c["switchcache.hits"] = float64(st.Hits)
		c["switchcache.misses"] = float64(st.Misses)
		c["switchcache.installs"] = float64(st.Installs)
		c["switchcache.invalidations"] = float64(st.Invalidations)
		c["switchcache.rejected"] = float64(st.Rejected)
		s.gauge["switchcache.occupancy"] = float64(st.Occupancy)
	}
	cs := d.Service.Stats()
	c["controller.node_msgs"] = float64(cs.NodeMsgs)
	c["controller.rebalances"] = float64(cs.Rebalances)
	for _, n := range d.Nodes {
		st := n.Stats()
		c["core.gets"] += float64(st.Gets)
		c["core.puts"] += float64(st.Puts)
		c["core.aborts"] += float64(st.Aborts)
		c["core.dup_puts"] += float64(st.DupPuts)
		c["core.get_forwards"] += float64(st.GetForwards)
		c["core.gets_held"] += float64(st.GetsHeld)
		c["core.gets_coalesced"] += float64(st.GetsCoalesced)
		c["core.batch_commits"] += float64(st.BatchCommits)
		c["core.batched_puts"] += float64(st.BatchedPuts)
		c["core.puts_primary"] += float64(st.PutsPrimary)
		c["kvstore.combined_writes"] += float64(n.Store().Stats().CombinedWrites)
	}
	sc := d.StorageCounters()
	c["storage.fsyncs"] = float64(sc.Fsyncs)
	c["storage.fsynced_records"] = float64(sc.FsyncedRecords)
	c["storage.wal_appends"] = float64(sc.WALAppends)
	c["storage.coalesced_syncs"] = float64(sc.CoalescedSyncs)
	c["storage.mem_hits"] = float64(sc.MemHits)
	c["storage.disk_reads"] = float64(sc.DiskReads)
	c["storage.evictions"] = float64(sc.Evictions)
	c["storage.snapshots"] = float64(sc.Snapshots)
	return s
}

// since returns the change from an earlier reading of the same
// deployment; gauges keep their later value.
func (s counts) since(before counts, elapsed sim.Time) counts {
	d := counts{c: map[string]float64{}, gauge: s.gauge, linkBps: s.linkBps, elapsed: elapsed}
	for k, v := range s.c {
		d.c[k] = v - before.c[k]
	}
	for i, v := range s.linkDir {
		d.linkDir = append(d.linkDir, v-before.linkDir[i])
	}
	for i, v := range s.nodeNIC {
		d.nodeNIC = append(d.nodeNIC, v-before.nodeNIC[i])
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns a measured phase's counter deltas into the named
// per-layer metrics. ops is the phase's completed operations, puts its
// acknowledged puts, cpuPerOp and nodes the deployment's.
func (s counts) counterMetrics(ops, puts float64, cpuPerOp sim.Time, nodes int) map[string]float64 {
	c := s.c
	m := map[string]float64{
		"netsim.pkts_per_op":          ratio(c["netsim.pkts_in"], ops),
		"netsim.switch_drops":         c["netsim.switch_drops"],
		"openflow.table_entries":      s.gauge["openflow.table_entries"],
		"openflow.packet_ins_per_kop": ratio(1000*c["openflow.packet_ins"], ops),
		"openflow.flow_mods":          c["openflow.flow_mods"],
		"switchcache.hit_frac":        ratio(c["switchcache.hits"], c["switchcache.hits"]+c["switchcache.misses"]),
		"switchcache.installs":        c["switchcache.installs"],
		"switchcache.invalidations":   c["switchcache.invalidations"],
		"switchcache.rejected":        c["switchcache.rejected"],
		"switchcache.occupancy":       s.gauge["switchcache.occupancy"],
		"controller.node_msgs":        c["controller.node_msgs"],
		"controller.rebalances":       c["controller.rebalances"],
		"core.aborts":                 c["core.aborts"],
		"core.dup_puts":               c["core.dup_puts"],
		"core.get_forwards":           c["core.get_forwards"],
		"core.gets_held":              c["core.gets_held"],
		"core.gets_coalesced":         c["core.gets_coalesced"],
		"core.mean_put_batch":         ratio(c["core.batched_puts"], c["core.batch_commits"]),
		"storage.fsyncs_per_put":      ratio(c["storage.fsyncs"], puts),
		"storage.wal_appends_per_put": ratio(c["storage.wal_appends"], puts),
		"storage.mean_sync_batch":     ratio(c["storage.fsynced_records"], c["storage.fsyncs"]),
		"storage.coalesced_syncs":     c["storage.coalesced_syncs"],
		"storage.mem_hit_frac":        ratio(c["storage.mem_hits"], c["storage.mem_hits"]+c["storage.disk_reads"]),
		"storage.disk_reads_per_get":  ratio(c["storage.disk_reads"], ops-puts),
		"storage.evictions":           c["storage.evictions"],
		"storage.snapshots":           c["storage.snapshots"],
		"kvstore.combined_writes":     c["kvstore.combined_writes"],
	}
	sec := s.elapsed.Seconds()
	for i, b := range s.linkDir {
		if u := ratio(float64(b)*8, s.linkBps[i]*sec); u > m["netsim.max_link_util"] {
			m["netsim.max_link_util"] = u
		}
	}
	var maxNIC, sumNIC float64
	for _, b := range s.nodeNIC {
		sumNIC += float64(b)
		if float64(b) > maxNIC {
			maxNIC = float64(b)
		}
	}
	m["netsim.node_load_ratio"] = ratio(maxNIC*float64(len(s.nodeNIC)), sumNIC)
	m["core.node_cpu_busy_frac"] = ratio((c["core.gets"]+c["core.puts"])*cpuPerOp.Seconds(), float64(nodes)*sec)
	return m
}
