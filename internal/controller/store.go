package controller

// StateStore is the controller's coordination-state backend,
// decoupling membership/cache policy from where that state lives.
// One store per role: a controller with no standby keeps a private
// MemStore (the live Service struct is the state; it dies with the
// process, and nobody is there to read it), and a controller with a
// standby shares a ChainStore with it, replicating the state across a
// chain of switch-resident stores (internal/ctrlchain) so a takeover
// reads it back sub-RTT from the chain tail.
//
// The store also owns split-brain fencing: Acquire hands out
// monotonically increasing writer generations, and every write
// carries the caller's generation. Once a promoted standby acquires a
// newer generation, the old primary's writes return false and the
// zombie must stop propagating state.
type StateStore interface {
	// Acquire returns the next writer generation. Called once per
	// controller instance at startup.
	Acquire() uint64
	// WriteView replicates one partition view. Returns false when gen
	// is stale (the caller is a fenced zombie).
	WriteView(gen uint64, v *PartitionView) bool
	// WriteStatuses replicates the membership status vector.
	WriteStatuses(gen uint64, statuses []int) bool
	// WriteCache replicates one switch-cache install (resident=true)
	// or evict (resident=false) with the installed object version.
	WriteCache(gen uint64, key string, ver uint64, resident bool) bool
	// Snapshot reads the replicated state back. ok is false when the
	// store has nothing to offer right now — ChainStore while a chain
	// repair is in flight (a takeover waits it out), MemStore always.
	Snapshot() (StateSnapshot, bool)
}

// StateSnapshot is the coordination state a takeover restores.
type StateSnapshot struct {
	Views    []*PartitionView
	Statuses []int
	Cache    []CacheState
}

// CacheState is the replicated install/version record for one
// switch-cached key.
type CacheState struct {
	Key      string
	Ver      uint64
	Resident bool
}

// MemStore is the in-process store of a controller with no standby:
// writes are generation-checked no-ops (the live Service struct is the
// state) that schedule no simulator event, and Snapshot never succeeds.
type MemStore struct {
	gen uint64
}

// NewMemStore returns an empty in-process store.
func NewMemStore() *MemStore { return &MemStore{} }

func (m *MemStore) Acquire() uint64 {
	m.gen++
	return m.gen
}

func (m *MemStore) WriteView(gen uint64, v *PartitionView) bool { return gen >= m.gen }

func (m *MemStore) WriteStatuses(gen uint64, statuses []int) bool { return gen >= m.gen }

func (m *MemStore) WriteCache(gen uint64, key string, ver uint64, resident bool) bool {
	return gen >= m.gen
}

func (m *MemStore) Snapshot() (StateSnapshot, bool) { return StateSnapshot{}, false }
