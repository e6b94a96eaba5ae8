package kvstore

// Durable mode swaps the main namespace's flat map for the
// internal/storage engine: sharded, memory-budgeted, WAL-backed. The
// node-facing API is unchanged — Apply/Put/Get/Peek/Keys delegate to the
// engine when one is attached — plus a handful of durability hooks the
// protocol layer calls (Sync before acks, CrashStorage/RecoverStorage
// around a fail-stop). The prepare log (+L of Fig. 3), the handoff
// directory and the in-memory locks keep their legacy semantics: each +L
// append is individually forced to disk, so the prepare log has no
// unfsynced tail to lose, while locks and handoff never survive a crash
// in either mode.

import (
	"repro/internal/sim"
	"repro/internal/storage"
)

// NewDurable creates a store whose main namespace lives in a durable
// storage engine with the given configuration. The engine charges its
// WAL fsyncs, snapshot writes and eviction reads against the same disk
// device (and live disk model) as the store's foreground I/O, so a
// slowdisk fault degrades all of them together.
func NewDurable(s *sim.Simulator, disk DiskConfig, cfg storage.Config) *Store {
	st := New(s, disk)
	st.eng = storage.NewEngineOf[Object](s, cfg, (*storeDisk)(st))
	st.eng.Start()
	return st
}

// storeDisk adapts the store's disk device to the engine's DiskTier. It
// reads st.disk on every call rather than caching a DiskConfig, so
// SetDisk (the slowdisk fault hook) retunes engine I/O in place.
type storeDisk Store

func (d *storeDisk) ReadDisk(p *sim.Proc, bytes int) {
	st := (*Store)(d)
	st.diskRes.Use(p, xferTime(st.disk.ReadLatency, st.disk.ReadBps, bytes))
}

// StreamDisk reads an evicted key that feeds a reply (Store.streamRead).
func (d *storeDisk) StreamDisk(p *sim.Proc, bytes int) { (*Store)(d).streamRead(p, bytes) }

func (d *storeDisk) WriteDisk(p *sim.Proc, bytes int) { (*Store)(d).forceWrite(p, bytes) }

// Durable reports whether the main namespace is engine-backed.
func (st *Store) Durable() bool { return st.eng != nil }

// Engine exposes the durable engine (nil in legacy mode); tests and
// experiments inspect it.
func (st *Store) Engine() *storage.EngineOf[Object] { return st.eng }

// Sync forces the engine's outstanding commit records to disk, charging
// fsync time. The put protocol calls it before acknowledging a commit
// (primary: before the timestamp multicast; secondary: before Ack2), so
// an acked write is always recoverable from the local WAL. A free no-op
// in legacy mode.
func (st *Store) Sync(p *sim.Proc) {
	if st.eng != nil {
		st.eng.Sync(p)
	}
}

// CrashStorage models the storage side of a node fail-stop: the memory
// tier and every unfsynced WAL record vanish deterministically, and the
// engine stays down until RecoverStorage. A no-op in legacy mode, where
// crash survival is simulated by state resurrection.
func (st *Store) CrashStorage() {
	if st.eng != nil {
		st.eng.Crash()
	}
}

// RecoverStorage rebuilds the engine from its durable media — snapshot
// load plus WAL replay, both charged as disk reads — and reports what it
// did. ok is false in legacy mode (nothing to recover).
func (st *Store) RecoverStorage(p *sim.Proc) (info storage.RecoveryInfo, ok bool) {
	if st.eng == nil {
		return storage.RecoveryInfo{}, false
	}
	return st.eng.Recover(p), true
}

// StorageStats returns engine counters; ok is false in legacy mode.
func (st *Store) StorageStats() (storage.Stats, bool) {
	if st.eng == nil {
		return storage.Stats{}, false
	}
	return st.eng.Stats(), true
}
