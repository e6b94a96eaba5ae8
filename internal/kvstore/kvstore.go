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
	"repro/internal/transport"
)

// Timestamp is the put-ordering quadruplet generated by the primary
// (§4.3): it orders puts to the same object, including retries of the
// same put by the same client. The two clocks lead and the two
// addresses share a word, so it packs into 24 bytes.
type Timestamp struct {
	PrimarySeq uint64    // primary's logical clock
	ClientSeq  uint64    // client's request number
	Primary    netsim.IP // primary replica's address
	Client     netsim.IP // originating client
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

// Object is one stored key-value pair. A store owns its objects by value:
// every install copies the Object in and every read copies it out, so no
// caller's later write reaches a stored version. Value is held by
// reference (the simulator never copies payload bytes); Size drives disk
// timing and load accounting.
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
// not yet committed (the +L of Fig. 3). It holds its own copy of the
// prepared object and stays within 128 bytes, so the WAL map stores it
// inline rather than at one allocation per append.
type LogRecord struct {
	Obj Object // the prepared object, applied on commit; keyed by Obj.Key
	Tag PutID  // the put this prepare belongs to
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

func xferTime(lat sim.Time, bps float64, size int) sim.Time {
	d := lat
	if bps > 0 {
		d += sim.Time(float64(size) / bps * float64(time.Second))
	}
	return d
}

// streamRead charges a read of size bytes whose value feeds a reply. The
// device is booked for the whole read, but the reader resumes once the
// reply's first segment is read — and no sooner than lets the NIC, at
// line rate, send every later byte after the device has read it:
// ReadLatency + max(MSS/ReadBps, S/ReadBps − (S−MSS)/R_nic). A read of at
// most one segment, or with no cabled, rate-limited NIC, resumes when
// the whole read is done.
func (st *Store) streamRead(p *sim.Proc, size int) {
	d := xferTime(st.disk.ReadLatency, st.disk.ReadBps, size)
	head := d
	if rate := st.nicRate(); size > transport.MSS && rate > 0 {
		drain := sim.Time(float64(size-transport.MSS) / rate * float64(time.Second))
		head = max(xferTime(st.disk.ReadLatency, st.disk.ReadBps, transport.MSS), d-drain)
	}
	st.diskRes.UseHead(p, d, head)
}

// nicRate returns the node's access-link rate in bytes/second now, or 0
// when the store has no NIC, it is uncabled, or its link is unlimited.
func (st *Store) nicRate() float64 {
	if st.nic == nil || st.nic.Link() == nil {
		return 0
	}
	return st.nic.Link().Config().BandwidthBps / 8
}

// Stats counts engine activity.
type Stats struct {
	Puts        int64
	Gets        int64
	GetMisses   int64
	LogAppends  int64
	BytesOnDisk int64
	// CombinedWrites counts prepares that rode another caller's forced
	// write through the prepare combiner (AppendLog with a window).
	CombinedWrites int64
	// DiskWrites counts the forced writes the store booked on its device;
	// DiskBusy is the device time booked so far, reads included.
	DiskWrites int64
	DiskBusy   sim.Time
}

// Store is one node's local engine.
type Store struct {
	s       *sim.Simulator
	disk    DiskConfig
	diskRes *sim.Resource // the device serves one request at a time
	nic     *netsim.Port  // the node's access port: paces streamed reads
	objects map[string]Object
	handoff map[string]Object
	wal     map[string]LogRecord
	walMod  *sim.Cond // broadcast whenever a WAL record is written or dropped
	locks   map[string]*lockState
	// freeLocks recycles the lockStates Release frees (at most
	// freeLockCap): only one without waiters is pooled, and a timed-out
	// waiter touches its lockState only while still queued on it.
	freeLocks sim.Free[lockState]
	stats     Stats
	// combining is the open prepare-combiner gather (AppendLog), its
	// value the bytes of its one write; nil when none is open.
	combining   *sim.Gather[int]
	freeGathers sim.Free[sim.Gather[int]]
	// freeGrants recycles the grant queues of lock waiters (Lock).
	freeGrants sim.Free[sim.Queue[struct{}]]
	// eng, when non-nil, replaces the flat objects map with the durable
	// sharded engine (see durable.go); the legacy map stays unused.
	eng *storage.EngineOf[Object]
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
	st := &Store{
		s:       s,
		disk:    disk,
		diskRes: sim.NewResource(s),
		objects: make(map[string]Object),
		handoff: make(map[string]Object),
		wal:     make(map[string]LogRecord),
		walMod:  sim.NewCond(s),
		locks:   make(map[string]*lockState),
	}
	st.freeLocks.Max = freeLockCap
	return st
}

// Stats returns engine counters.
func (st *Store) Stats() Stats {
	s := st.stats
	s.DiskBusy = st.diskRes.BusyTime()
	return s
}

// Disk returns the current disk model.
func (st *Store) Disk() DiskConfig { return st.disk }

// SetDisk swaps the disk model in place; fault injection uses it to make
// a healthy disk gray (slow) and back. Requests already queued on the
// device finish at the old speed.
func (st *Store) SetDisk(cfg DiskConfig) { st.disk = cfg }

// SetNIC names the node's access port. A read feeding a reply paces its
// head against that port's link rate at the moment of the read.
func (st *Store) SetNIC(port *netsim.Port) { st.nic = port }

// Lock acquires the in-memory lock for key on behalf of owner, queueing
// FIFO behind the current holder. It returns false if the deadline d
// elapses first (d <= 0 waits forever).
func (st *Store) Lock(p *sim.Proc, key string, owner PutID, d sim.Time) bool {
	ls := st.locks[key]
	if ls == nil {
		if ls = st.freeLocks.Take(); ls != nil {
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
	q := st.freeGrants.Take()
	if q == nil {
		q = sim.NewQueue[struct{}](st.s)
	}
	ls.waiters = append(ls.waiters, lockWaiter{owner, q})
	granted := awaitGrant(p, ls, q, d)
	q.Reset()
	st.freeGrants.Put(q)
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
		st.freeLocks.Put(ls)
		return true
	}
	// Pop the head by shifting the rest down, so the wait list keeps its
	// array for the next contended round.
	w := ls.waiters[0]
	n := copy(ls.waiters, ls.waiters[1:])
	ls.waiters[n] = lockWaiter{}
	ls.waiters = ls.waiters[:n]
	ls.owner = w.owner
	w.grant.Push(struct{}{}) // the lock stays held, ownership transfers
	return true
}

// Locked reports whether key's lock is held.
func (st *Store) Locked(key string) bool { return st.locks[key] != nil }

// AppendLog forces a prepare to disk: the WAL record (+L of Fig. 3)
// carries the prepared object, so one forced write of 64 + rec.Obj.Size
// bytes is both +L and W. The record is open in the WAL from the call on,
// so recovery scans and range fetches see the prepare while its write is
// in flight; when this returns, the record and its object are on disk.
// With window <= 0 the write is booked at once. With window > 0
// co-arriving prepares share one forced write of their summed bytes: the
// first caller opens a gather and lingers window, and a caller's bytes
// always join a gather before its write starts.
func (st *Store) AppendLog(p *sim.Proc, rec LogRecord, window sim.Time) {
	st.wal[rec.Obj.Key] = rec
	st.walMod.Broadcast()
	st.stats.LogAppends++
	bytes := 64 + rec.Obj.Size
	if window <= 0 {
		st.forceWrite(p, bytes)
		return
	}
	if g := st.combining; g != nil {
		g.Val += bytes
		st.stats.CombinedWrites++
		g.Join(p)
		return
	}
	g := sim.OpenGather(st.s, &st.freeGathers)
	g.Val = bytes
	st.combining = g
	p.Sleep(window)
	// Close the gather before the charged write: a prepare arriving once
	// the disk op started must lead a fresh batch, not ride this one.
	if st.combining == g {
		st.combining = nil
	}
	st.forceWrite(p, g.Val)
	g.End()
}

// forceWrite books one forced write of bytes on the device.
func (st *Store) forceWrite(p *sim.Proc, bytes int) {
	st.stats.DiskWrites++
	st.diskRes.Use(p, xferTime(st.disk.WriteLatency, st.disk.WriteBps, bytes))
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
	sort.Slice(out, func(i, j int) bool { return out[i].Obj.Key < out[j].Obj.Key })
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

// Put forces a copy of obj to persistent storage (W in Fig. 3) if it is
// newer than the stored version. It returns false when an equal-or-newer
// version was already present (stale replay).
func (st *Store) Put(p *sim.Proc, obj *Object) bool {
	st.forceWrite(p, obj.Size)
	return st.Apply(obj)
}

// Apply installs a copy of obj without charging disk time (for commit
// paths whose prepare already forced the object with AppendLog).
func (st *Store) Apply(obj *Object) bool {
	if st.eng != nil {
		if old, ok := st.eng.Peek(obj.Key); ok {
			if !old.Version.Less(obj.Version) {
				return false
			}
			st.stats.BytesOnDisk -= int64(old.Size)
		}
		// The version check above is the ordering contract: WAL order is
		// commit order per key, so log replay converges on this state.
		st.eng.Commit(obj.Key, *obj, obj.Size)
		st.stats.BytesOnDisk += int64(obj.Size)
		st.stats.Puts++
		return true
	}
	if old, ok := st.objects[obj.Key]; ok {
		if !old.Version.Less(obj.Version) {
			return false
		}
		st.stats.BytesOnDisk -= int64(old.Size)
	}
	st.objects[obj.Key] = *obj
	st.stats.BytesOnDisk += int64(obj.Size)
	st.stats.Puts++
	return true
}

// Get reads a copy of key, charging a streamed read on a hit. The copy is
// taken before the read parks on the disk, so a commit landing meanwhile
// does not change what this read returns. In durable mode the engine does
// the charging instead: a memory-tier hit is free, a get of an evicted
// object pays the streamed read and promotes it.
func (st *Store) Get(p *sim.Proc, key string) (Object, bool) {
	st.stats.Gets++
	if st.eng != nil {
		obj, ok := st.eng.Get(p, key)
		if !ok {
			st.stats.GetMisses++
		}
		return obj, ok
	}
	obj, ok := st.objects[key]
	if !ok {
		st.stats.GetMisses++
		return Object{}, false
	}
	st.streamRead(p, obj.Size)
	return obj, true
}

// Peek reads a copy of key without charging time (metadata checks).
func (st *Store) Peek(key string) (Object, bool) {
	if st.eng != nil {
		return st.eng.Peek(key)
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

// ApplyHandoff installs a copy of obj in the handoff namespace — objects
// a node holds on behalf of a failed peer, kept apart to simplify
// recovery — without charging disk time, reporting whether it was newer
// than the resident copy.
func (st *Store) ApplyHandoff(obj *Object) bool {
	if old, ok := st.handoff[obj.Key]; ok && !old.Version.Less(obj.Version) {
		return false
	}
	st.handoff[obj.Key] = *obj
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

// GetHandoff reads a copy of key from the handoff namespace, charging a
// streamed read.
func (st *Store) GetHandoff(p *sim.Proc, key string) (Object, bool) {
	obj, ok := st.handoff[key]
	if !ok {
		return Object{}, false
	}
	st.streamRead(p, obj.Size)
	return obj, true
}

// PeekHandoff returns a copy of key's handoff-directory entry without
// charging disk time.
func (st *Store) PeekHandoff(key string) (Object, bool) {
	obj, ok := st.handoff[key]
	return obj, ok
}

// HandoffObjects returns copies of everything held for the failed peer,
// sorted by key (deterministic enumeration, like Keys).
func (st *Store) HandoffObjects() []Object {
	out := make([]Object, 0, len(st.handoff))
	for _, o := range st.handoff {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ClearHandoff empties the handoff namespace (after the owner recovered).
func (st *Store) ClearHandoff() { st.handoff = make(map[string]Object) }
