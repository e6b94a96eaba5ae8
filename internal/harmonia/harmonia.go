// Package harmonia implements Harmonia-style in-network conflict
// detection (arXiv 1904.08964) on the openflow datapath: the switch
// tracks the *dirty set* of keys with in-flight writes and rewrites the
// destination of reads for clean keys to a deterministically-hashed
// choice among the partition's live replicas, recovering near-linear
// read scaling from replication without giving up linearizability.
//
// The stage sits in the switch pipeline (after the optional switchcache,
// before the flow tables) and watches both directions of the put
// protocol: a put prepare traversing the switch marks its key dirty; the
// commit applications flowing back — every replica's applyLocal, modeled
// as synchronous hooks from the storage nodes, strictly no later than
// the acks those applies generate — clear it once every read-serving
// replica holds the committed version. Reads of dirty keys, reads in
// partitions tainted by dirty-table overflow, and reads arriving before
// a partition's replica set is installed all fall through untouched to
// the normal flow tables, i.e. to the primary.
//
// Correctness does not rest on the dirty set alone: the switch is a
// performance filter. A read the stage routes to a replica that still
// has the write in flight is held server-side (core/get.go gates
// non-primary serving on the key's WAL/lock state, and the existing
// recovering/syncing/resolving holds cover membership churn), so the
// client retries rather than reading stale. The dirty set's job is to
// make that case rare by steering reads around in-flight writes at line
// rate.
//
// View changes: the controller re-installs a partition's replica set on
// every membership event, fenced by the datapath writer generation
// exactly like switchcache installs (a zombie controller's install is
// rejected at apply time). An install with a newer (generation, epoch)
// flushes the partition's dirty entries to *sticky*: a sticky key keeps
// falling back to the primary until a put marked under the new view
// commits on every new-view replica, so membership churn can never
// route a read to a replica missing an acknowledged write.
package harmonia

import (
	"hash/fnv"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/openflow"
)

// Parser adapts the storage system's wire format to the stage. Both
// methods run on the switch's forwarding path.
type Parser interface {
	// ParseGet reports whether pkt is a client read, for which key, and
	// a per-request identifier mixed into the replica hash so a retry of
	// a timed-out read can land on a different replica.
	ParseGet(pkt *netsim.Packet) (key string, rid uint64, ok bool)
	// ParsePut reports whether pkt completes a put prepare's multicast
	// transfer and carries an i-th operation (a batched prepare carries
	// several; the stage asks for i = 0, 1, … until !ok), for which key,
	// an operation identity (comparable; stable across retries of the
	// same logical put) used to match the commit hooks back to the mark,
	// and the client's delivery attempt that sent it.
	ParsePut(pkt *netsim.Packet, i int) (key string, op any, attempt int, ok bool)
}

// ReplicaPort is stamped as the destination port of rewritten clean-key
// reads. It makes the routing class explicit on the wire: nodes serve
// non-primary reads only on this port, so a primary-routed read that the
// fabric remapped to a freshly promoted (possibly lagging) primary cannot
// be mistaken for one the switch vouched for.
const ReplicaPort = 7001

// Config parameterizes one dirty-set stage.
type Config struct {
	// Capacity bounds the dirty table; switch memory is the scarce
	// resource. A put that cannot be tracked taints its partition
	// (reads fall back to the primary) until the next view install.
	// 0 = 4096, the size for the simulated deployments.
	Capacity int
}

// opState tracks one in-flight put under a dirty entry.
type opState struct {
	gen     uint64 // partition install generation at mark time
	epoch   uint64 // partition install epoch at mark time
	attempt int    // latest delivery attempt that marked the op
	// applied records which replicas have committed the op locally.
	applied map[netsim.IP]bool
}

// entry is one dirty key.
type entry struct {
	part   int
	sticky bool // survived a view change: only a new-view put completing clears it
	ops    map[any]*opState
}

// partState is the per-partition replica-set install.
type partState struct {
	installed bool
	gen       uint64      // controller writer generation of the install
	epoch     uint64      // view epoch of the install
	replicas  []netsim.IP // read-serving set, primary first
	tainted   bool        // a put went untracked under this install
	untracked int64
}

// DirtySet is the switch-resident stage. Dirty marking and read rewrite
// are data-plane effects and apply synchronously with the traversing
// packet; replica-set installs are controller→switch commands and ride
// the datapath's control channel (its delay, its injected fault, its FIFO
// order, its writer fence).
type DirtySet struct {
	dp      *openflow.Datapath
	parser  Parser
	partOf  func(key string) int
	cfg     Config
	entries map[string]*entry
	parts   map[int]*partState
	stats   metrics.HarmoniaCounters
}

// Attach adds a dirty-set stage to dp's stage chain, behind the stages
// already attached, and returns it. Call before traffic starts.
func Attach(dp *openflow.Datapath, parser Parser, partOf func(key string) int, cfg Config) *DirtySet {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	d := &DirtySet{
		dp:      dp,
		parser:  parser,
		partOf:  partOf,
		cfg:     cfg,
		entries: make(map[string]*entry),
		parts:   make(map[int]*partState),
	}
	dp.AddStage(d)
	return d
}

// Stats snapshots the counters.
func (d *DirtySet) Stats() metrics.HarmoniaCounters {
	st := d.stats
	st.Occupancy = len(d.entries)
	st.Capacity = d.cfg.Capacity
	return st
}

// Dirty reports whether key is currently in the dirty set (tests).
func (d *DirtySet) Dirty(key string) bool {
	_, ok := d.entries[key]
	return ok
}

// Tainted reports whether part currently falls back wholesale (tests).
func (d *DirtySet) Tainted(part int) bool {
	p := d.parts[part]
	return p != nil && p.tainted
}

// Process implements openflow.Stage: mark put prepares, rewrite clean
// reads, and pass every packet on — the stage consumes nothing.
func (d *DirtySet) Process(_ *netsim.Switch, pkt *netsim.Packet, _ int) bool {
	if key, op, attempt, ok := d.parser.ParsePut(pkt, 0); ok {
		for i := 1; ok; i++ {
			d.mark(key, op, attempt)
			key, op, attempt, ok = d.parser.ParsePut(pkt, i)
		}
		return false
	}
	key, rid, ok := d.parser.ParseGet(pkt)
	if !ok {
		return false
	}
	p := d.parts[d.partOf(key)]
	if p == nil || !p.installed || len(p.replicas) < 2 {
		return false
	}
	if p.tainted {
		d.stats.TaintFallbacks++
		return false
	}
	if _, dirty := d.entries[key]; dirty {
		d.stats.DirtyFallbacks++
		return false
	}
	// Clean: rewrite the destination to a hashed replica choice. The
	// replica's physical address matches the datapath's host route
	// (prioPhys), which fills in the MAC and output port; the vring
	// mapping rules never see the packet. The port rewrite tags the read
	// as replica-routed — the host routes match on destination IP only,
	// so it survives to the node.
	idx := replicaHash(key, rid) % uint64(len(p.replicas))
	d.stats.Routed++
	if idx != 0 {
		d.stats.RoutedReplica++
	}
	pkt.DstIP, pkt.DstPort = p.replicas[idx], ReplicaPort
	return false
}

// replicaHash is the deterministic read-spreading hash: FNV-1a over the
// key plus the request identifier, so one key's reads spread across
// replicas request-by-request and a retry can escape a silent replica.
func replicaHash(key string, rid uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(rid >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// mark records a put prepare traversing the switch. Idempotent per
// (key, op): multicast repair retransmissions and client retries of the
// same logical put merge into one tracked operation, which remembers the
// latest attempt that renewed it.
func (d *DirtySet) mark(key string, op any, attempt int) {
	part := d.partOf(key)
	p := d.parts[part]
	if p == nil || !p.installed || len(p.replicas) < 2 {
		// Partition not harmonia-managed, or too few replicas to ever
		// spread reads: tracking its puts would only burn table capacity.
		return
	}
	e := d.entries[key]
	if e == nil {
		if len(d.entries) >= d.cfg.Capacity {
			// Cannot track this write: poison the whole partition until
			// the next view install so no clean-key claim it would have
			// invalidated is trusted.
			p.untracked++
			p.tainted = true
			d.stats.Overflows++
			return
		}
		e = &entry{part: part, ops: make(map[any]*opState)}
		d.entries[key] = e
		d.stats.Marks++
	}
	if os := e.ops[op]; os == nil {
		e.ops[op] = &opState{gen: p.gen, epoch: p.epoch, attempt: attempt, applied: make(map[netsim.IP]bool)}
	} else if attempt > os.attempt {
		os.attempt = attempt
	}
}

// MemberApplied is the commit-side hook: replica member applied op's
// committed object for key (core.Node.applyLocal and the dedup paths
// call it). In hardware this is the ack/timestamp traffic of the commit
// passing back through the switch; invoking it synchronously at apply
// time is strictly earlier, and early clearing is safe because an op is
// only retired once every currently-installed read replica has applied
// it — any rewrite after that reads the committed version.
func (d *DirtySet) MemberApplied(key string, op any, member netsim.IP) {
	e := d.entries[key]
	if e == nil {
		return // untracked (overflow, pre-install prepare, or already cleared)
	}
	os := e.ops[op]
	if os == nil {
		return
	}
	os.applied[member] = true
	p := d.parts[e.part]
	if p == nil {
		return
	}
	for _, r := range p.replicas {
		if !os.applied[r] {
			return
		}
	}
	delete(e.ops, op)
	// A put marked under the current install and completed on every
	// current replica re-certifies the key after a view-change flush.
	if e.sticky && os.gen == p.gen && os.epoch == p.epoch {
		e.sticky = false
	}
	d.retire(key, e)
}

// OpAborted is the abort-side hook: one delivery attempt of the put was
// abandoned (primary abort broadcast, secondary/late abort, or
// new-primary resolution). Replicas may still hold the prepare's WAL record briefly;
// reads routed there are held server-side until the abort lands. An
// abort retires the mark only if no later attempt renewed it: a slow
// replica's abort of a superseded attempt leaves the live retry dirty.
func (d *DirtySet) OpAborted(key string, op any, attempt int) {
	e := d.entries[key]
	if e == nil {
		return
	}
	if os, ok := e.ops[op]; !ok || attempt < os.attempt {
		return
	}
	delete(e.ops, op)
	d.retire(key, e)
}

// retire drops an entry once nothing keeps it dirty.
func (d *DirtySet) retire(key string, e *entry) {
	if len(e.ops) == 0 && !e.sticky {
		delete(d.entries, key)
		d.stats.Clears++
	}
}

// InstallViewAs installs (or re-installs) a partition's read-serving
// replica set under writer generation gen (0 = the unfenced legacy
// writer), delivered and fenced like switchcache.InstallAs: an install
// that was in flight when a standby took over and raised the fence is
// rejected at apply time. replicas lists physical addresses, primary
// first; the slice is not retained by reference.
//
// A newer (gen, epoch) than the current install FLUSHES the partition:
// every resident dirty entry becomes sticky (primary-only until a put
// marked under the new install completes on all new replicas), and the
// overflow taint resets — untracked writes from the old view are
// covered by stickiness of tracked keys plus the server-side holds.
func (d *DirtySet) InstallViewAs(gen uint64, part int, epoch uint64, replicas []netsim.IP) {
	rs := append([]netsim.IP(nil), replicas...)
	d.dp.StageCommand(gen, openflow.StageFunc(func(admitted bool) {
		if !admitted {
			d.stats.RejectedInstalls++
			return
		}
		p := d.parts[part]
		if p == nil {
			p = &partState{}
			d.parts[part] = p
		}
		if p.installed && (gen < p.gen || (gen == p.gen && epoch <= p.epoch)) {
			return // stale install ordered behind a newer view
		}
		first := !p.installed
		p.installed = true
		p.gen, p.epoch = gen, epoch
		p.replicas = rs
		p.tainted = false
		p.untracked = 0
		d.stats.Installs++
		if first {
			return
		}
		for _, e := range d.entries {
			if e.part == part && !e.sticky {
				e.sticky = true
				d.stats.Flushes++
			}
		}
	}))
}
