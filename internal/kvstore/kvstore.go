// Package kvstore is the storage node's local engine: a versioned object
// store with a write-ahead log, in-memory object locks, and a separate
// handoff namespace — the per-node pieces of the Fig. 3 put protocol
// (lock, +L log append, W object write, -L log delete, unlock) and of the
// handoff mechanism (§4.4, new objects for a failed peer go in "a
// separate directory").
//
// A prepare — the lock and the WAL record — belongs to the put that took
// it, named by a PutID. Release is the only way to end one and it is
// owner-checked: the WAL survives a restart and the locks do not, so a
// key's record and its lock can name different puts, and a late verdict
// on the older one must not end the newer one's prepare.
//
// Operations that force data to persistent storage charge simulated disk
// time by sleeping the calling process; in-memory operations (locks, log
// truncation) are free.
package kvstore

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Timestamp is the put-ordering quadruplet generated by the primary
// (§4.3): it orders puts to the same object, including retries of the
// same put by the same client.
type Timestamp struct {
	Primary    netsim.IP // primary replica's address
	PrimarySeq uint64    // primary's logical clock
	Client     netsim.IP // originating client
	ClientSeq  uint64    // client's request number
}

// Less orders timestamps: primary clock first, then tie-breakers, so all
// replicas agree on a total order per object.
func (t Timestamp) Less(o Timestamp) bool {
	if t.PrimarySeq != o.PrimarySeq {
		return t.PrimarySeq < o.PrimarySeq
	}
	if t.Primary != o.Primary {
		return t.Primary < o.Primary
	}
	if t.ClientSeq != o.ClientSeq {
		return t.ClientSeq < o.ClientSeq
	}
	return t.Client < o.Client
}

// IsZero reports whether the timestamp is unset.
func (t Timestamp) IsZero() bool { return t == Timestamp{} }

// String renders the quadruplet compactly.
func (t Timestamp) String() string {
	return fmt.Sprintf("ts(%s:%d,%s:%d)", t.Primary, t.PrimarySeq, t.Client, t.ClientSeq)
}

// Object is one stored key-value pair. Value is held by reference (the
// simulator never copies payload bytes); Size drives disk timing and load
// accounting.
type Object struct {
	Key     string
	Value   any
	Size    int
	Version Timestamp
}

// PutID names one put across its delivery attempts: the originating
// client and its request number. It owns the put's prepare (lock and WAL
// record) from Lock to Release.
type PutID struct {
	Client netsim.IP
	Seq    uint64
}

// LogRecord is one WAL entry: an in-flight put that has been prepared but
// not yet committed (the +L of Fig. 3).
type LogRecord struct {
	Key  string
	Size int
	Ver  Timestamp
	Obj  *Object // the prepared object, applied on commit
	Tag  PutID   // the put this prepare belongs to
	// Attempt is the delivery attempt that prepared this record; an
	// abort releases it only when the attempt matches (core/put.go).
	Attempt int
}

// DiskConfig models the persistent medium.
type DiskConfig struct {
	WriteLatency sim.Time
	WriteBps     float64 // bytes/second
	ReadLatency  sim.Time
	ReadBps      float64
}

// SSD approximates the testbed's SATA SSD (§6 Platform).
func SSD() DiskConfig {
	return DiskConfig{
		WriteLatency: 80 * time.Microsecond,
		WriteBps:     450e6,
		ReadLatency:  60 * time.Microsecond,
		ReadBps:      500e6,
	}
}

// NullDisk charges no time; for tests that isolate protocol behaviour.
func NullDisk() DiskConfig { return DiskConfig{} }

func xferTime(lat sim.Time, bps float64, size int) sim.Time {
	d := lat
	if bps > 0 {
		d += sim.Time(float64(size) / bps * float64(time.Second))
	}
	return d
}

// Stats counts engine activity.
type Stats struct {
	Puts        int64
	Gets        int64
	GetMisses   int64
	LogAppends  int64
	BytesOnDisk int64
	// CombinedWrites counts forced writes that rode another caller's
	// charged disk write through the prepare combiner (AppendLogCombined).
	CombinedWrites int64
}

// Store is one node's local engine.
type Store struct {
	s       *sim.Simulator
	disk    DiskConfig
	diskRes *sim.Resource // the device serves one request at a time
	objects map[string]*Object
	handoff map[string]*Object
	wal     map[string]LogRecord
	walMod  *sim.Cond // broadcast whenever a WAL record is written or dropped
	locks   map[string]*lockState
	// freeLocks recycles the lockStates Release frees (at most
	// freeLockCap): only one without waiters is pooled, and a timed-out
	// waiter touches its lockState only while still queued on it.
	freeLocks []*lockState
	stats     Stats
	// combining is the open prepare-combiner batch (AppendLogCombined);
	// nil when no gather is in flight. freeGathers recycles finished ones.
	combining   *writeBatch
	freeGathers []*writeBatch
	// freeGrants recycles the grant queues of lock waiters (Lock).
	freeGrants []*sim.Queue[struct{}]
	// eng, when non-nil, replaces the flat objects map with the durable
	// sharded engine (see durable.go); the legacy map stays unused.
	eng *storage.Engine
}

// lockState is one held lock; a free lock has no entry.
type lockState struct {
	owner   PutID
	waiters []lockWaiter
}

type lockWaiter struct {
	owner PutID
	grant *sim.Queue[struct{}]
}

// freeLockCap bounds the pooled lockStates: enough for every lock a node
// holds at once under load, little memory after a burst.
const freeLockCap = 256

// New creates an empty store clocked by s with the given disk model.
func New(s *sim.Simulator, disk DiskConfig) *Store {
	return &Store{
		s:       s,
		disk:    disk,
		diskRes: sim.NewResource(s),
		objects: make(map[string]*Object),
		handoff: make(map[string]*Object),
		wal:     make(map[string]LogRecord),
		walMod:  sim.NewCond(s),
		locks:   make(map[string]*lockState),
	}
}

// Stats returns engine counters.
func (st *Store) Stats() Stats { return st.stats }

// Disk returns the current disk model.
func (st *Store) Disk() DiskConfig { return st.disk }

// SetDisk swaps the disk model in place; fault injection uses it to make
// a healthy disk gray (slow) and back. Requests already queued on the
// device finish at the old speed.
func (st *Store) SetDisk(cfg DiskConfig) { st.disk = cfg }

// Len returns the number of objects in the main namespace.
func (st *Store) Len() int {
	if st.eng != nil {
		return st.eng.Len()
	}
	return len(st.objects)
}

// Lock acquires the in-memory lock for key on behalf of owner, queueing
// FIFO behind the current holder. It returns false if the deadline d
// elapses first (d <= 0 waits forever).
func (st *Store) Lock(p *sim.Proc, key string, owner PutID, d sim.Time) bool {
	ls := st.locks[key]
	if ls == nil {
		if n := len(st.freeLocks); n > 0 {
			ls = st.freeLocks[n-1]
			st.freeLocks = st.freeLocks[:n-1]
			ls.owner = owner
		} else {
			ls = &lockState{owner: owner}
		}
		st.locks[key] = ls
		return true
	}
	// Queue behind the holder on a pooled grant queue, recycled as Lock
	// returns: the waiter is then its only holder, since Release popped it
	// from the wait list before granting, or the timeout withdrew it. Not
	// in a defer: a waiter Simulator.Shutdown unwinds is still parked on
	// it, and the queue is dropped instead.
	var q *sim.Queue[struct{}]
	if n := len(st.freeGrants); n > 0 {
		q = st.freeGrants[n-1]
		st.freeGrants = st.freeGrants[:n-1]
	} else {
		q = sim.NewQueue[struct{}](st.s)
	}
	ls.waiters = append(ls.waiters, lockWaiter{owner, q})
	granted := awaitGrant(p, ls, q, d)
	q.Reset()
	st.freeGrants = append(st.freeGrants, q)
	return granted
}

// awaitGrant parks a queued waiter until Release grants it the lock, or
// withdraws it from ls's wait list after d (d <= 0 waits forever).
func awaitGrant(p *sim.Proc, ls *lockState, q *sim.Queue[struct{}], d sim.Time) bool {
	if d <= 0 {
		q.Pop(p)
		return true
	}
	if _, ok := q.PopTimeout(p, d); ok {
		return true
	}
	// Timed out: withdraw from the wait list (the grant may race; if the
	// queue already has the grant, accept it).
	if _, granted := q.TryPop(); granted {
		return true
	}
	for i, w := range ls.waiters {
		if w.grant == q {
			ls.waiters = append(ls.waiters[:i], ls.waiters[i+1:]...)
			break
		}
	}
	return false
}

// Release ends owner's prepare of key: it drops the WAL record (-L in
// Fig. 3) and frees the lock, granting it to the oldest waiter — each
// only if it is still owner's, so a record or a lock that a newer put
// took over is left alone. Both are in-memory operations. It reports
// whether anything was released.
func (st *Store) Release(key string, owner PutID) bool {
	released := false
	if rec, ok := st.wal[key]; ok && rec.Tag == owner {
		delete(st.wal, key)
		st.walMod.Broadcast()
		released = true
	}
	ls := st.locks[key]
	if ls == nil || ls.owner != owner {
		return released
	}
	if len(ls.waiters) == 0 {
		delete(st.locks, key)
		if len(st.freeLocks) < freeLockCap {
			st.freeLocks = append(st.freeLocks, ls)
		}
		return true
	}
	w := ls.waiters[0]
	ls.waiters[0] = lockWaiter{}
	ls.waiters = ls.waiters[1:]
	ls.owner = w.owner
	w.grant.Push(struct{}{}) // the lock stays held, ownership transfers
	return true
}

// Locked reports whether key's lock is held.
func (st *Store) Locked(key string) bool { return st.locks[key] != nil }

// AppendLog forces a WAL record for an in-flight put (+L in Fig. 3),
// charging the forced-write latency.
func (st *Store) AppendLog(p *sim.Proc, rec LogRecord) {
	st.diskRes.Use(p, xferTime(st.disk.WriteLatency, st.disk.WriteBps, 64))
	st.wal[rec.Key] = rec
	st.walMod.Broadcast()
	st.stats.LogAppends++
}

// writeBatch is one open prepare-combiner gather: callers add their
// bytes while the leader lingers, and one charged disk write covers all
// of them. Gathers are recycled by the rule of core's commit batches: the
// leader and each joiner hold one until they leave it — the leader after
// done.Set, a joiner once its Wait returns — and the last to leave puts
// it back (leaveGather). A caller Simulator.Shutdown unwinds never leaves,
// and its gather is dropped.
type writeBatch struct {
	bytes   int
	done    *sim.Future[struct{}]
	holders int
}

// newGather opens a gather led by the caller, reusing a recycled one.
func (st *Store) newGather(bytes int) *writeBatch {
	var b *writeBatch
	if n := len(st.freeGathers); n > 0 {
		b = st.freeGathers[n-1]
		st.freeGathers = st.freeGathers[:n-1]
	} else {
		b = &writeBatch{done: sim.NewFuture[struct{}](st.s)}
	}
	b.bytes, b.holders = bytes, 1
	return b
}

// leaveGather ends one holder's use of b, whose done is set; the last
// holder recycles it.
func (st *Store) leaveGather(b *writeBatch) {
	if b.holders--; b.holders > 0 {
		return
	}
	b.done.Reset()
	st.freeGathers = append(st.freeGathers, b)
}

// AppendLogCombined is AppendLog plus the op's data write (+L and W of
// Fig. 3) issued through a write combiner: co-arriving prepares on this
// store share one forced disk write of their summed bytes instead of
// charging latency-dominated writes one by one. The first caller opens a
// gather batch and lingers window; later arrivals add their bytes and
// park until the leader's write completes. The durability contract is
// AppendLog's: when this returns, the prepare record (and the object
// bytes it carries) are on disk — a caller's bytes always join a batch
// before its charged write starts, never an in-flight one.
func (st *Store) AppendLogCombined(p *sim.Proc, rec LogRecord, window sim.Time) {
	st.wal[rec.Key] = rec
	st.walMod.Broadcast()
	st.stats.LogAppends++
	bytes := 64 + rec.Size
	if b := st.combining; b != nil {
		b.bytes += bytes
		b.holders++
		st.stats.CombinedWrites++
		b.done.Wait(p)
		st.leaveGather(b)
		return
	}
	b := st.newGather(bytes)
	st.combining = b
	p.Sleep(window)
	// Close the gather before the charged write: a prepare arriving once
	// the disk op started must lead a fresh batch, not ride this one.
	if st.combining == b {
		st.combining = nil
	}
	st.diskRes.Use(p, xferTime(st.disk.WriteLatency, st.disk.WriteBps, b.bytes))
	b.done.Set(struct{}{})
	st.leaveGather(b)
}

// PendingLog returns the WAL records still open — what a new primary
// scans after a failure (§4.4). Sorted by key: enumeration feeds the
// recovery wire protocol, and the simulation demands a deterministic
// order where Go's map iteration gives none.
func (st *Store) PendingLog() []LogRecord {
	out := make([]LogRecord, 0, len(st.wal))
	for _, r := range st.wal {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// LogOf returns key's open WAL record, if any.
func (st *Store) LogOf(key string) (LogRecord, bool) {
	r, ok := st.wal[key]
	return r, ok
}

// WaitLog parks p until a WAL record is written or dropped, or d passes.
func (st *Store) WaitLog(p *sim.Proc, d sim.Time) { st.walMod.WaitTimeout(p, d) }

// HasLog reports whether key has an open WAL record.
func (st *Store) HasLog(key string) bool {
	_, ok := st.wal[key]
	return ok
}

// Put forces obj to persistent storage (W in Fig. 3) if it is newer than
// the stored version. It returns false when an equal-or-newer version was
// already present (stale replay).
func (st *Store) Put(p *sim.Proc, obj *Object) bool {
	st.diskRes.Use(p, xferTime(st.disk.WriteLatency, st.disk.WriteBps, obj.Size))
	return st.Apply(obj)
}

// ChargeWrite charges the disk time of writing size bytes without
// installing anything: the W step of Fig. 3, whose metadata commit
// happens later under Apply.
func (st *Store) ChargeWrite(p *sim.Proc, size int) {
	st.diskRes.Use(p, xferTime(st.disk.WriteLatency, st.disk.WriteBps, size))
}

// Apply installs obj without charging disk time (for commit paths that
// already paid through ChargeWrite).
func (st *Store) Apply(obj *Object) bool {
	if st.eng != nil {
		if old, ok := st.eng.Peek(obj.Key); ok {
			oldObj := old.(*Object)
			if !oldObj.Version.Less(obj.Version) {
				return false
			}
			st.stats.BytesOnDisk -= int64(oldObj.Size)
		}
		// The version check above is the ordering contract: WAL order is
		// commit order per key, so log replay converges on this state.
		st.eng.Commit(obj.Key, obj, obj.Size)
		st.stats.BytesOnDisk += int64(obj.Size)
		st.stats.Puts++
		return true
	}
	if old, ok := st.objects[obj.Key]; ok && !old.Version.Less(obj.Version) {
		return false
	}
	if old, ok := st.objects[obj.Key]; ok {
		st.stats.BytesOnDisk -= int64(old.Size)
	}
	st.objects[obj.Key] = obj
	st.stats.BytesOnDisk += int64(obj.Size)
	st.stats.Puts++
	return true
}

// Get reads key, charging read time on a hit. In durable mode the
// engine does the charging instead: a memory-tier hit is free, a get of
// an evicted object pays the disk read and promotes it.
func (st *Store) Get(p *sim.Proc, key string) (*Object, bool) {
	st.stats.Gets++
	if st.eng != nil {
		v, ok := st.eng.Get(p, key)
		if !ok {
			st.stats.GetMisses++
			return nil, false
		}
		return v.(*Object), true
	}
	obj, ok := st.objects[key]
	if !ok {
		st.stats.GetMisses++
		return nil, false
	}
	st.diskRes.Use(p, xferTime(st.disk.ReadLatency, st.disk.ReadBps, obj.Size))
	return obj, true
}

// Peek reads key without charging time (metadata checks).
func (st *Store) Peek(key string) (*Object, bool) {
	if st.eng != nil {
		v, ok := st.eng.Peek(key)
		if !ok {
			return nil, false
		}
		return v.(*Object), true
	}
	obj, ok := st.objects[key]
	return obj, ok
}

// Keys returns all keys in the main namespace (recovery enumeration),
// sorted: fetch replies ship objects in this order, and mixed object
// sizes make the order timing-visible, so it must be deterministic.
func (st *Store) Keys() []string {
	if st.eng != nil {
		return st.eng.Keys()
	}
	out := make([]string, 0, len(st.objects))
	for k := range st.objects {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PutHandoff stores an object in the handoff namespace: objects a node
// holds on behalf of a failed peer, kept apart to simplify recovery.
func (st *Store) PutHandoff(p *sim.Proc, obj *Object) {
	st.diskRes.Use(p, xferTime(st.disk.WriteLatency, st.disk.WriteBps, obj.Size))
	st.ApplyHandoff(obj)
}

// ApplyHandoff installs obj in the handoff namespace without charging
// disk time, reporting whether it was newer than the resident copy.
func (st *Store) ApplyHandoff(obj *Object) bool {
	if old, ok := st.handoff[obj.Key]; ok && !old.Version.Less(obj.Version) {
		return false
	}
	st.handoff[obj.Key] = obj
	st.stats.Puts++
	return true
}

// DeleteHandoff removes one key from the handoff namespace.
func (st *Store) DeleteHandoff(key string) { delete(st.handoff, key) }

// ResetLocks drops every in-memory lock: locks do not survive a node
// crash (Fig. 3: "object locks are maintained in memory only"). The old
// lockStates are abandoned, never pooled: a waiter queued on one may
// still withdraw from it.
func (st *Store) ResetLocks() { st.locks = make(map[string]*lockState) }

// GetHandoff reads from the handoff namespace.
func (st *Store) GetHandoff(p *sim.Proc, key string) (*Object, bool) {
	obj, ok := st.handoff[key]
	if !ok {
		return nil, false
	}
	st.diskRes.Use(p, xferTime(st.disk.ReadLatency, st.disk.ReadBps, obj.Size))
	return obj, true
}

// PeekHandoff returns key's handoff-directory copy without charging disk
// time.
func (st *Store) PeekHandoff(key string) (*Object, bool) {
	obj, ok := st.handoff[key]
	return obj, ok
}

// HandoffObjects returns everything held for the failed peer, sorted by
// key (deterministic enumeration, like Keys).
func (st *Store) HandoffObjects() []*Object {
	out := make([]*Object, 0, len(st.handoff))
	for _, o := range st.handoff {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// HandoffLen returns the handoff namespace size.
func (st *Store) HandoffLen() int { return len(st.handoff) }

// ClearHandoff empties the handoff namespace (after the owner recovered).
func (st *Store) ClearHandoff() { st.handoff = make(map[string]*Object) }
