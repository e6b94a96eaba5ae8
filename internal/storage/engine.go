// Package storage is a node-local durable storage engine for the
// simulated cluster: a sharded, memory-budgeted object store with a
// write-ahead log on the simulated disk tier, periodic compacting
// snapshots, and LRU eviction from the memory tier to disk.
//
// The engine models the storage stack of one NICE node (DESIGN.md §13):
//
//   - The value bytes of every committed object already live on disk —
//     the put protocol's W step forces them there before commit — so the
//     memory tier is a cache over disk-resident data and eviction is a
//     free metadata operation; only *reads* of evicted objects pay disk
//     time.
//   - What crashes lose is the *commit metadata*: which version of which
//     object is the committed one. Commits append a record to the WAL
//     tail in memory; the tail becomes durable when an fsync (Sync) or a
//     snapshot covers it. Crash drops everything above the durable LSN,
//     deterministically; a Sync in flight at the crash instant has not
//     advanced the durable LSN yet, so its records are torn and lost.
//   - Recovery is a real snapshot-load + log-replay: the volatile tiers
//     are wiped at crash and rebuilt from the last complete snapshot
//     plus the durable log suffix, charging disk-read time for both.
//
// Map order never leaves the engine: Keys is sorted, replay runs in LSN
// order, and the snapshot map is built and loaded order-free (each key's
// row is set once, sizes are summed).
package storage

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// DiskTier charges simulated time for transfers against the node's
// serially-shared storage device. The implementation (kvstore's disk
// resource) reads the live disk model on every call, so a slowdisk
// fault degrades WAL fsyncs, snapshot writes and eviction reads exactly
// as it degrades foreground object I/O.
type DiskTier interface {
	ReadDisk(p *sim.Proc, bytes int)
	WriteDisk(p *sim.Proc, bytes int)
}

// StreamTier is a DiskTier that can stream a read into a reply: the
// device is booked for the whole read, but the reader resumes once the
// reply's first segment is read (kvstore's streamed read). The engine
// reads evicted keys through it; recovery reads stay whole, and a tier
// without StreamDisk reads evicted keys whole too.
type StreamTier interface {
	DiskTier
	StreamDisk(p *sim.Proc, bytes int)
}

// Config parameterizes one engine.
type Config struct {
	// Shards is the hash-partition count; each shard has its own map,
	// LRU list and slice of the memory budget.
	Shards int
	// MemoryBudget bounds the bytes resident in the memory tier across
	// all shards (each shard owns budget/Shards). 0 = unbounded: nothing
	// is ever evicted.
	MemoryBudget int64
	// GroupCommit coalesces concurrent Sync callers into one fsync: the
	// first caller leads the disk write and later arrivals whose records
	// it covers piggyback on the result instead of forcing their own.
	GroupCommit bool
	// MaxSyncDelay is how long a group-commit leader lingers before
	// sizing its write, letting co-arriving commits join the batch. It
	// bounds the added latency: a lone writer pays at most this delay
	// and then fsyncs alone. 0 = fire immediately (coalescing still
	// happens for callers that arrive while a write is in flight).
	MaxSyncDelay sim.Time
	// SnapshotEvery is the snapshot + log-truncate period (0 = never).
	SnapshotEvery sim.Time
}

// DefaultConfig sizes the engine for a simulated node.
func DefaultConfig() Config {
	return Config{
		Shards:        8,
		SnapshotEvery: 200 * time.Millisecond,
	}
}

const (
	// WALRecordBytes is the on-disk size charged per WAL record.
	WALRecordBytes = 64
	// SnapshotEntryBytes is the per-entry metadata overhead charged on top
	// of the value bytes when writing or loading a snapshot.
	SnapshotEntryBytes = 32
)

// Stats counts engine activity. Gauges (Entries, Resident, MemBytes,
// WALRecords) are snapshots at read time; everything else accumulates
// across crashes and recoveries — the counters model the device, which
// survives.
type Stats struct {
	Commits int64 // committed object versions installed

	MemHits   int64 // gets served from the memory tier (no disk time)
	DiskReads int64 // gets of evicted objects (charged a disk read)
	Misses    int64 // gets of absent keys
	Evictions int64 // memory-tier residents demoted to disk-only

	WALAppends     int64 // commit records appended to the WAL tail
	Fsyncs         int64 // Sync calls that forced records to disk
	FsyncedRecords int64 // records made durable by those fsyncs
	LostRecords    int64 // unfsynced tail records dropped by crashes
	TornRecords    int64 // crashes that tore an in-flight fsync

	CoalescedSyncs   int64 // Sync calls satisfied by another caller's fsync
	SyncedBatchBytes int64 // bytes written by group-commit fsync batches

	Snapshots        int64 // complete snapshots installed
	SnapshotsAborted int64 // snapshot writes abandoned by a crash
	SnapshotBytes    int64 // bytes of the last complete snapshot
	TruncatedRecords int64 // WAL records retired by snapshots

	Recoveries      int64 // completed crash recoveries
	ReplayedRecords int64 // WAL records replayed across all recoveries

	Entries    int   // keys known to the engine (both tiers)
	Resident   int   // keys resident in the memory tier
	MemBytes   int64 // bytes resident in the memory tier
	WALRecords int   // live WAL records (since the last truncate)
}

// MeanSyncBatch returns the mean records made durable per fsync — the
// group-commit batching factor (1.0 when every Sync forces its own).
func (s Stats) MeanSyncBatch() float64 {
	if s.Fsyncs == 0 {
		return 0
	}
	return float64(s.FsyncedRecords) / float64(s.Fsyncs)
}

// MemHitRatio returns memory-tier hits over all gets that found the key.
func (s Stats) MemHitRatio() float64 {
	total := s.MemHits + s.DiskReads
	if total == 0 {
		return 0
	}
	return float64(s.MemHits) / float64(total)
}

// Add accumulates o into s: a deployment's totals across its nodes.
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.MemHits += o.MemHits
	s.DiskReads += o.DiskReads
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.WALAppends += o.WALAppends
	s.Fsyncs += o.Fsyncs
	s.FsyncedRecords += o.FsyncedRecords
	s.LostRecords += o.LostRecords
	s.TornRecords += o.TornRecords
	s.CoalescedSyncs += o.CoalescedSyncs
	s.SyncedBatchBytes += o.SyncedBatchBytes
	s.Snapshots += o.Snapshots
	s.SnapshotsAborted += o.SnapshotsAborted
	s.SnapshotBytes += o.SnapshotBytes
	s.TruncatedRecords += o.TruncatedRecords
	s.Recoveries += o.Recoveries
	s.ReplayedRecords += o.ReplayedRecords
	s.Entries += o.Entries
	s.Resident += o.Resident
	s.MemBytes += o.MemBytes
	s.WALRecords += o.WALRecords
}

// String renders the counters for run summaries.
func (s Stats) String() string {
	return fmt.Sprintf("memhits=%d diskreads=%d (%.1f%% mem) evictions=%d wal=%d fsyncs=%d snapshots=%d recoveries=%d replayed=%d",
		s.MemHits, s.DiskReads, 100*s.MemHitRatio(), s.Evictions,
		s.WALAppends, s.Fsyncs, s.Snapshots, s.Recoveries, s.ReplayedRecords)
}

// entry is one key's state: metadata always memory-resident, the value
// served from the memory tier only while resident.
type entry[V any] struct {
	val      V
	size     int
	resident bool
	// LRU intrusive list links (resident entries only).
	prev, next *entry[V]
}

// shard is one hash partition: its own map, LRU list and budget slice.
type shard[V any] struct {
	entries  map[string]*entry[V]
	lruHead  *entry[V] // most recently used
	lruTail  *entry[V] // eviction victim
	memBytes int64
}

// walRec is one commit record: enough to reinstall the committed
// version at replay.
type walRec[V any] struct {
	key  string
	val  V
	size int
}

// snapRow is one snapshot row, keyed by the object key.
type snapRow[V any] struct {
	val  V
	size int
}

// snapshot is the last complete checkpoint: state as of WAL position
// lsn, so recovery is snapshot + wal[lsn:]. entries is nil until the
// first checkpoint lands; each later one folds the records it retires
// into it in place.
type snapshot[V any] struct {
	entries map[string]snapRow[V]
	bytes   int64
	lsn     uint64
}

// RecoveryInfo summarizes one Recover call.
type RecoveryInfo struct {
	SnapshotBytes   int64 // snapshot read charged
	ReplayedRecords int   // durable WAL records replayed
	Interrupted     bool  // a second crash landed mid-recovery
}

// EngineOf is one node's storage engine, holding values of type V: a
// caller that stores a struct by value commits, logs and snapshots it
// without boxing it into an interface.
type EngineOf[V any] struct {
	s           *sim.Simulator
	cfg         Config
	disk        DiskTier
	shards      []shard[V]
	shardBudget int64
	stats       Stats
	// stateBytes is Σ(size + SnapshotEntryBytes) over every key: the
	// write a snapshot of the live state charges.
	stateBytes int64

	// WAL: wal[i] has LSN walBase+i; records below durableLSN are on
	// disk, the rest are the volatile tail a crash discards.
	wal        []walRec[V]
	walBase    uint64
	durableLSN uint64
	syncing    int // Sync calls currently sleeping in the disk write

	// Group commit: group is the batch a leader gathers or writes, nil
	// when none is; followers Join it until it lands (or a crash tears it
	// — Crash wakes them too, and the gen fence sorts them out).
	group  *sim.Gather[struct{}]
	groups sim.Free[sim.Gather[struct{}]]

	snap snapshot[V]

	// gen counts crashes; procs sleeping in disk time capture it and
	// abandon their structural updates when it moved (their world died).
	gen        int
	down       bool
	recovering bool
}

// Engine is the engine over boxed values.
type Engine = EngineOf[any]

// NewEngine builds an empty engine of boxed values clocked by s, charging
// disk time through disk. Call Start to arm the snapshot loop.
func NewEngine(s *sim.Simulator, cfg Config, disk DiskTier) *Engine {
	return NewEngineOf[any](s, cfg, disk)
}

// NewEngineOf builds an empty engine of V values, as NewEngine.
func NewEngineOf[V any](s *sim.Simulator, cfg Config, disk DiskTier) *EngineOf[V] {
	e := &EngineOf[V]{s: s, cfg: cfg, disk: disk}
	if cfg.MemoryBudget > 0 {
		e.shardBudget = (cfg.MemoryBudget + int64(cfg.Shards) - 1) / int64(cfg.Shards)
	}
	e.resetShards()
	return e
}

// Start spawns the periodic snapshot process (no-op without a period).
// The process belongs to the device, not the node software: it skips
// cycles while the node is crashed and survives restarts.
func (e *EngineOf[V]) Start() {
	if e.cfg.SnapshotEvery <= 0 {
		return
	}
	e.s.Spawn("storage-snap", func(p *sim.Proc) {
		for {
			p.Sleep(e.cfg.SnapshotEvery)
			// No snapshots while crashed, and none while a recovery is
			// reading the old snapshot and log back: the device finishes
			// recovering before it checkpoints again.
			if e.down || e.recovering {
				continue
			}
			e.writeSnapshot(p)
		}
	})
}

// Stats returns counters plus current gauges.
func (e *EngineOf[V]) Stats() Stats {
	st := e.stats
	for i := range e.shards {
		sh := &e.shards[i]
		st.Entries += len(sh.entries)
		st.MemBytes += sh.memBytes
	}
	for i := range e.shards {
		for cur := e.shards[i].lruHead; cur != nil; cur = cur.next {
			st.Resident++
		}
	}
	st.WALRecords = len(e.wal)
	return st
}

// fnv1a hashes a key to its shard.
func (e *EngineOf[V]) shardOf(key string) *shard[V] {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &e.shards[h%uint32(len(e.shards))]
}

func (e *EngineOf[V]) resetShards() {
	e.shards = make([]shard[V], e.cfg.Shards)
	for i := range e.shards {
		e.shards[i].entries = make(map[string]*entry[V])
	}
	e.stateBytes = 0
}

func (e *EngineOf[V]) tailLSN() uint64 { return e.walBase + uint64(len(e.wal)) }

// lruUnlink removes en from its shard's LRU list.
func (sh *shard[V]) lruUnlink(en *entry[V]) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		sh.lruHead = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		sh.lruTail = en.prev
	}
	en.prev, en.next = nil, nil
}

// lruFront pushes en as most-recently-used.
func (sh *shard[V]) lruFront(en *entry[V]) {
	en.prev, en.next = nil, sh.lruHead
	if sh.lruHead != nil {
		sh.lruHead.prev = en
	}
	sh.lruHead = en
	if sh.lruTail == nil {
		sh.lruTail = en
	}
}

// touch moves a resident entry to the LRU front.
func (sh *shard[V]) touch(en *entry[V]) {
	if sh.lruHead == en {
		return
	}
	sh.lruUnlink(en)
	sh.lruFront(en)
}

// evict demotes LRU victims until the shard fits its budget. Demotion is
// free: the value bytes are already on disk (the W step forced them);
// only the memory-tier reference is dropped.
func (e *EngineOf[V]) evict(sh *shard[V]) {
	if e.shardBudget <= 0 {
		return
	}
	for sh.memBytes > e.shardBudget && sh.lruTail != nil {
		victim := sh.lruTail
		sh.lruUnlink(victim)
		victim.resident = false
		sh.memBytes -= int64(victim.size)
		e.stats.Evictions++
	}
}

// install places a committed version in the memory tier (write-allocate)
// and rebalances the shard against its budget.
func (e *EngineOf[V]) install(key string, val V, size int) {
	sh := e.shardOf(key)
	en := sh.entries[key]
	if en == nil {
		en = &entry[V]{}
		sh.entries[key] = en
		e.stateBytes += SnapshotEntryBytes
	} else if en.resident {
		sh.memBytes -= int64(en.size)
		sh.lruUnlink(en)
	}
	e.stateBytes += int64(size - en.size)
	en.val, en.size, en.resident = val, size, true
	sh.memBytes += int64(size)
	sh.lruFront(en)
	e.evict(sh)
}

// Commit installs a committed object version and appends its WAL record
// to the volatile tail. It charges no time: the data write was paid in
// the put protocol's W step, and the record reaches disk at the next
// Sync or snapshot. Version ordering is the caller's contract — the
// caller checks Peek before committing, so WAL order is version order
// per key on this node.
func (e *EngineOf[V]) Commit(key string, val V, size int) {
	if e.down {
		// Two callers do reach a crashed engine: core's primaryCommit →
		// finish and syncPartition → fetchObjects, in procs that wake
		// between the node's Crash and its Restart (4 commits at 200
		// chaos schedules, seed 99); only Restart ends their incarnation,
		// until a crash does too (ROADMAP.md item 28(ii)). The write is
		// dropped and counted rather than corrupting recovery state.
		e.stats.LostRecords++
		return
	}
	e.install(key, val, size)
	e.wal = append(e.wal, walRec[V]{key: key, val: val, size: size})
	e.stats.Commits++
	e.stats.WALAppends++
}

// Get reads key. A memory-tier hit is free; an evicted key charges a
// streamed disk read of its size (StreamTier) and is promoted back into
// the memory tier.
func (e *EngineOf[V]) Get(p *sim.Proc, key string) (V, bool) {
	sh := e.shardOf(key)
	en := sh.entries[key]
	if en == nil {
		e.stats.Misses++
		var zero V
		return zero, false
	}
	if en.resident {
		e.stats.MemHits++
		sh.touch(en)
		return en.val, true
	}
	e.stats.DiskReads++
	val, size := en.val, en.size
	gen := e.gen
	if st, ok := e.disk.(StreamTier); ok {
		st.StreamDisk(p, size)
	} else {
		e.disk.ReadDisk(p, size)
	}
	if gen == e.gen && !en.resident {
		// Promote, unless a crash rebuilt the world (or a concurrent
		// reader already promoted) while we slept in the disk read.
		en.resident = true
		sh.memBytes += int64(size)
		sh.lruFront(en)
		e.evict(sh)
	}
	return val, true
}

// Peek returns key's committed value without charging time or touching
// the LRU state: metadata (the version inside the value) is always
// memory-resident.
func (e *EngineOf[V]) Peek(key string) (V, bool) {
	en := e.shardOf(key).entries[key]
	if en == nil {
		var zero V
		return zero, false
	}
	return en.val, true
}

// Len returns the number of keys known to the engine.
func (e *EngineOf[V]) Len() int {
	n := 0
	for i := range e.shards {
		n += len(e.shards[i].entries)
	}
	return n
}

// Keys returns every key, sorted: the deterministic enumeration the
// recovery wire protocol ships objects in. The snapshot writer does not
// use it.
func (e *EngineOf[V]) Keys() []string {
	out := make([]string, 0, e.Len())
	for i := range e.shards {
		for k := range e.shards[i].entries {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Sync forces the volatile WAL tail to disk, charging one forced write
// sized by the pending record count. Records appended while the write
// is in flight are not covered; a crash during the write tears it and
// the records stay volatile (the durable LSN only advances here, after
// the write survives).
//
// With GroupCommit enabled, concurrent Sync callers coalesce: the first
// caller leads — optionally lingering MaxSyncDelay so co-arriving
// commits join the batch — and issues one disk write covering every
// record appended up to that point; followers park until a covering
// fsync lands and never touch the disk themselves. The durability
// contract is identical either way: Sync returns only once every record
// appended before the call is on disk (or the engine crashed, tearing
// the whole in-flight batch — torn followers return non-durable exactly
// like a torn solo fsync, and callers' generation fences catch it).
func (e *EngineOf[V]) Sync(p *sim.Proc) {
	target := e.tailLSN()
	if e.durableLSN >= target {
		return
	}
	if !e.cfg.GroupCommit {
		e.fsync(p, target)
		return
	}
	gen := e.gen
	led := false
	for e.durableLSN < target && gen == e.gen {
		// A follower whose records the open batch does not cover (it
		// appended after the leader sized the write) waits it out and
		// contends to lead the next one. A crash tears the batch.
		if g := e.group; g != nil {
			g.Join(p)
		} else {
			led = true
			e.leadSync(p)
		}
	}
	if !led && gen == e.gen {
		e.stats.CoalescedSyncs++
	}
}

// leadSync runs one group-commit batch: linger MaxSyncDelay so commits
// racing in can join, size the write to every record then pending, and
// charge one disk write for the whole batch. Only called when no batch
// is active; exactly one leader exists at a time.
func (e *EngineOf[V]) leadSync(p *sim.Proc) {
	g := sim.OpenGather(e.s, &e.groups)
	e.group = g
	gen := e.gen
	if d := e.cfg.MaxSyncDelay; d > 0 {
		p.Sleep(d)
	}
	// A snapshot may have covered everything while we gathered.
	if target := e.tailLSN(); gen != e.gen || (target > e.durableLSN && !e.fsync(p, target)) {
		g.End() // crashed while gathering or writing: Crash woke the batch
		return
	}
	e.group = nil
	g.End()
}

// fsync forces the records below target with one disk write and reports
// whether the engine survived it: a crash during the write tears it, and
// the records stay volatile.
func (e *EngineOf[V]) fsync(p *sim.Proc, target uint64) bool {
	gen := e.gen
	bytes := int(target-e.durableLSN) * WALRecordBytes
	e.syncing++
	e.disk.WriteDisk(p, bytes)
	e.syncing--
	if gen != e.gen {
		return false
	}
	if target > e.durableLSN {
		e.stats.Fsyncs++
		e.stats.FsyncedRecords += int64(target - e.durableLSN)
		if e.cfg.GroupCommit {
			e.stats.SyncedBatchBytes += int64(bytes)
		}
		e.durableLSN = target
	}
	return true
}

// Crash models a node fail-stop at this instant: the volatile tiers
// (memory tier, unfsynced WAL tail) vanish deterministically and the
// engine refuses traffic until Recover rebuilds it from the durable
// media. An fsync in flight is torn — its records never reached disk.
func (e *EngineOf[V]) Crash() {
	e.gen++
	e.down = true
	lost := e.tailLSN() - e.durableLSN
	if lost > 0 {
		e.stats.LostRecords += int64(lost)
		if e.syncing > 0 {
			e.stats.TornRecords++
		}
	}
	e.truncateWAL(e.durableLSN - e.walBase)
	// Tear down any group-commit batch: its followers wake now, its leader
	// (gathering or mid write) when its sleep ends; all see the generation
	// moved and return non-durable.
	if e.group != nil {
		e.group.Wake()
		e.group = nil
	}
	// The in-memory view dies with the process; Recover rebuilds it.
	e.resetShards()
}

// Recover rebuilds the engine from the durable media: load the last
// complete snapshot (charged as one disk read of its size), then replay
// the durable WAL suffix in LSN order (charged as one sequential read).
// Loaded state starts disk-resident — the memory tier comes back cold
// and warms on reads. Safe to re-run: a crash mid-recovery leaves the
// next incarnation to start over.
//
// The rebuild happens before the reads are paid, so a commit racing the
// recovery (kvstore.Apply version-checks against Peek) sees the recovered
// state and a stale late version is refused.
func (e *EngineOf[V]) Recover(p *sim.Proc) RecoveryInfo {
	e.down = false
	e.recovering = true
	gen := e.gen
	// Clear the flag only if this incarnation is still the current one: a
	// crash mid-recovery starts a newer Recover, and this one's cleanup
	// must not unmask snapshots under it.
	defer func() {
		if gen == e.gen {
			e.recovering = false
		}
	}()
	e.resetShards()
	for k, row := range e.snap.entries {
		e.shardOf(k).entries[k] = &entry[V]{val: row.val, size: row.size}
	}
	e.stateBytes = e.snap.bytes
	replay := len(e.wal)
	for _, rec := range e.wal {
		e.install(rec.key, rec.val, rec.size)
	}
	var info RecoveryInfo
	if e.snap.entries != nil {
		info.SnapshotBytes = e.snap.bytes
		e.disk.ReadDisk(p, int(e.snap.bytes))
		if gen != e.gen {
			info.Interrupted = true
			return info
		}
	}
	if replay > 0 {
		e.disk.ReadDisk(p, replay*WALRecordBytes)
		if gen != e.gen {
			info.Interrupted = true
			return info
		}
		info.ReplayedRecords = replay
		e.stats.ReplayedRecords += int64(replay)
	}
	e.stats.Recoveries++
	return info
}

// writeSnapshot checkpoints the committed state as of WAL position lsn:
// charge one write of the live state's bytes, and — if no crash landed
// during the write — fold the records it retires, wal[:lsn], into the
// previous snapshot and drop them from the log. The previous snapshot
// plus those records is exactly the live state at lsn, because only
// Commit and Recover install and both go through the WAL or the
// snapshot. Commits that land while the write is in flight stay in the
// WAL, so nothing is lost; a crash mid-write abandons the attempt before
// the fold, and the previous snapshot plus the full log still recover
// everything durable.
func (e *EngineOf[V]) writeSnapshot(p *sim.Proc) {
	gen := e.gen
	lsn := e.tailLSN()
	bytes := e.stateBytes
	e.disk.WriteDisk(p, int(bytes))
	if gen != e.gen {
		e.stats.SnapshotsAborted++
		return
	}
	if e.snap.entries == nil {
		e.snap.entries = make(map[string]snapRow[V])
	}
	e.snap.bytes, e.snap.lsn = bytes, lsn
	e.stats.Snapshots++
	e.stats.SnapshotBytes = bytes
	if lsn > e.walBase {
		drop := lsn - e.walBase
		for _, rec := range e.wal[:drop] {
			e.snap.entries[rec.key] = snapRow[V]{val: rec.val, size: rec.size}
		}
		e.stats.TruncatedRecords += int64(drop)
		e.truncateWAL(uint64(copy(e.wal, e.wal[drop:])))
		e.walBase = lsn
	}
	if lsn > e.durableLSN {
		// The snapshot durably covers every record it retired.
		e.durableLSN = lsn
	}
}

// truncateWAL keeps wal[:n] in place and zeroes the rest, so no dropped
// record keeps its value reachable.
func (e *EngineOf[V]) truncateWAL(n uint64) {
	clear(e.wal[n:])
	e.wal = e.wal[:n]
}
