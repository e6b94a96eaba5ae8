// Package core implements NICEKV, the paper's key-value store prototype:
// a storage node running the NICE-2PC consistency protocol over
// switch-multicast replication (Fig. 3), consistency-aware fault
// tolerance (handoff service, two-phase rejoin, new-primary lock
// resolution, §4.4), and a client that addresses the two virtual rings
// over UDP and collects replies on a stream listener (§5).
package core

import (
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// Wire-size constants for small protocol messages.
const (
	putHeaderSize = 64  // PutRequest framing inside the multicast payload
	ackSize       = 64  // Ack1/Ack2 datagrams
	tsMsgSize     = 96  // timestamp multicast (the §4.3 quadruplet + key)
	getReqSize    = 64  // get request datagram
	replyOverhead = 64  // reply framing on the stream
	ctrlMsgSize   = 128 // node-to-controller datagrams
	batchHeader   = 32  // shared framing of a batched message (§16)
)

// Batched datagrams must fit the transport MTU (1400 bytes); senders
// fragment above these per-message item bounds.
const (
	maxTsItemsPerMsg = (transport.MTU - batchHeader) / tsMsgSize  // 14
	maxGetReqsPerMsg = (transport.MTU - batchHeader) / getReqSize // 21
)

// MaxBatchedGets is the most get requests one batched datagram can
// carry, exported for traffic generators that pack their own batches.
const MaxBatchedGets = maxGetReqsPerMsg

// GetReqSize is the wire size of one get request datagram, exported for
// traffic generators that craft GetRequests without a full Client.
const GetReqSize = getReqSize

// BatchHeaderSize is the shared framing overhead of a batched message,
// exported for the same traffic generators.
const BatchHeaderSize = batchHeader

// reqKey identifies one client operation across its delivery attempts;
// it keys the primary's and secondaries' in-flight put state and owns the
// put's lock and WAL record in the store.
type reqKey = kvstore.PutID

// PutRequest is the application message carried by the put multicast:
// every replica receives the full object plus this header.
type PutRequest struct {
	Key        string
	Value      any
	Size       int // object bytes
	Client     netsim.IP
	ClientPort uint16 // client's reply listener
	ClientSeq  uint64
	// Attempt numbers the client's delivery attempts of this operation.
	// Retries reuse the (Client, ClientSeq) identity — dedup depends on
	// that — so an abort must name the attempt it cancels: a stale abort
	// from attempt N must not kill attempt N+1's prepare after its Ack1
	// was counted toward a commit quorum.
	Attempt int
}

func (r *PutRequest) key() reqKey { return reqKey{Client: r.Client, Seq: r.ClientSeq} }

// homed is the return address of a message with one reader (DESIGN.md
// §7.2): its sender takes it from its own free list, and the reader hands
// it back once it has read it. A message with no home, built by hand, is
// never pooled.
type homed struct {
	home *Node
	idle bool // on home's free list
}

// free marks the message idle, reporting whether it has a home to go
// back to. Releasing a message twice panics: its sender may already have
// sent it again.
func (h *homed) free() bool {
	if h.home == nil {
		return false
	}
	if h.idle {
		panic("core: message released twice")
	}
	h.idle = true
	return true
}

// take takes the last item off a free list, or makes one.
func take[M any](free *[]*M) *M {
	k := len(*free)
	if k == 0 {
		return new(M)
	}
	m := (*free)[k-1]
	*free = (*free)[:k-1]
	return m
}

// Ack1 is a secondary's first-phase acknowledgment: object locked,
// logged, and written (Fig. 3). Committed, when set, is the version the
// sender already committed the put at (a retry answered from its dedup
// record): the primary commits at that version too. Zero is a fresh
// vote.
type Ack1 struct {
	Req       reqKey
	From      int // node index
	Committed kvstore.Timestamp
	homed
}

// release hands m back to its sender; the reader must not touch it after.
func (m *Ack1) release() {
	if m.free() {
		m.home.ack1s = append(m.home.ack1s, m)
	}
}

// TsMsg is the primary's timestamp multicast: it commits the put and
// orders it against other puts to the same key (§4.3). Every group member
// reads it, so it is never pooled; it packs into 64 bytes instead.
type TsMsg struct {
	Req reqKey
	Key string
	Ts  kvstore.Timestamp
	// Attempt scopes an abort to the delivery attempt it cancels (see
	// PutRequest.Attempt). Commits converge any attempt and ignore it.
	Attempt int32
	Abort   bool // primary aborted the operation; release without applying
	// Dup marks the dedup path's re-multicast of an already-committed
	// timestamp: the version may predate the current membership, so a
	// handoff stand-in must not treat the install as a post-failure write
	// it can serve authoritatively (get.go).
	Dup bool
}

// Ack2 is a secondary's second-phase acknowledgment: lock released, log
// entry dropped.
type Ack2 struct {
	Req  reqKey
	From int
	homed
}

// release hands m back to its sender; the reader must not touch it after.
func (m *Ack2) release() {
	if m.free() {
		m.home.ack2s = append(m.home.ack2s, m)
	}
}

// PutReply is the primary's final answer to the client (on the client's
// reply stream).
type PutReply struct {
	ReqID uint64
	OK    bool
	Err   string
	// Ver is the committed version's primary sequence number; the
	// consistency checker orders acknowledged puts by it.
	Ver uint64
	homed
}

// release hands m back to its sender; the reader must not touch it after.
func (m *PutReply) release() {
	if m.free() {
		m.home.putReplies = append(m.home.putReplies, m)
	}
}

// GetRequest is the client's read, sent as one UDP datagram to the
// unicast vring.
type GetRequest struct {
	Key        string
	ReqID      uint64
	Client     netsim.IP
	ClientPort uint16
	// Attempt is the client's retry counter for this request. The
	// harmonia stage mixes it into the replica-choice hash so a read
	// whose hashed replica stays silent (crashed but not yet detected)
	// escapes to a different replica on retry instead of timing out
	// MaxRetries times against the same dead node.
	Attempt int

	// reply is room for the answer, and occupied marks it written and
	// not yet read (DESIGN.md §7.2): a request has one reader of its
	// reply, so the answer rides in it instead of being allocated.
	reply    GetReply
	occupied bool
}

// answer returns the reply to fill and send for r: r's room if free,
// else a fresh reply, so a sent reply is never written again.
func (r *GetRequest) answer() *GetReply {
	if r.occupied {
		return &GetReply{}
	}
	r.occupied = true
	return &r.reply
}

// FreeReply frees r's reply room if rep, a reply its reader has done
// with, was written there. Only a requester that reuses r needs it.
func (r *GetRequest) FreeReply(rep *GetReply) {
	if rep == &r.reply {
		r.occupied = false
	}
}

// GetReply answers a GetRequest on the client's reply stream.
type GetReply struct {
	ReqID uint64
	Found bool
	Value any
	Size  int
	// Ver is the returned object's committed version (primary sequence);
	// switch-cache replies carry it too, so stale cache reads are
	// checkable.
	Ver uint64
}

// Batched pipeline (DESIGN.md §16). Batching changes the framing of the
// prepare multicast, the commit multicast and the get datagram — never
// the per-operation protocol state: every op inside a batch keeps its
// own reqKey, attempt counter, dedup record and abort scope, so the
// retry, resolution and recovery machinery is oblivious to batching.

// BatchPutRequest is a client's batched prepare: MultiPut packs the ops
// headed for one partition into a single multicast transfer. Receivers
// explode it into independent per-op put handlers — the batch exists
// only on the wire.
type BatchPutRequest struct {
	Ops []*PutRequest
}

// BatchTsMsg is the primary's batched commit: the put accumulator packs
// the timestamps of co-arriving commits for one partition into a single
// multicast. Receivers route a pointer to each item to its per-op put
// state (or the late-timestamp path), exactly as if it had arrived as its
// own TsMsg — every group member shares the items, as it shares a
// multicast TsMsg, and no receiver writes to one.
type BatchTsMsg struct {
	Items []TsMsg
}

// BatchGetRequest is a client's batched read: MultiGet (and the traffic
// engine's batched arms) packs the gets headed for one node into a
// single datagram. The node serves each embedded request independently
// and replies per op, so retries and duplicate-get coalescing work
// unchanged.
type BatchGetRequest struct {
	Reqs []*GetRequest
}

// ForwardedGet is a handoff node passing a get it cannot serve to the
// primary, which replies to the client directly (§4.4).
type ForwardedGet struct {
	Req GetRequest
}

// Recovery protocol (over streams).

// FetchHandoffReq asks the handoff node for everything stored on behalf
// of the recovering node for one partition.
type FetchHandoffReq struct {
	Partition int
}

// FetchHandoffReply returns the handoff objects. Size on the stream is
// the sum of object sizes, so recovery traffic is charged realistically.
type FetchHandoffReply struct {
	Objects []kvstore.Object
}

// FetchRangeReq asks a partition's primary for every object in the
// partition (ring expansion, §4.4: "the node contacts the primary node
// to retrieve all keys stored in the hash range").
type FetchRangeReq struct {
	Partition int
}

// FetchRangeReply returns the partition's objects, taken once the puts
// open at the responder when the request arrived have resolved (settle).
// Pending lists the puts that opened there since: their commits are not
// in Objects yet, and a fetcher that was outside the put multicast group
// when they were prepared has no other way to learn them — it re-fetches
// once before serving reads (see syncPartition).
type FetchRangeReply struct {
	Objects []kvstore.Object
	Pending []PendingPut
}

// PendingPut names one in-flight put at a fetch responder.
type PendingPut struct {
	Key string
	Req reqKey
}

// LockQuery is the new primary's post-promotion probe (§4.4 "failures
// during put"): which objects does each replica still hold locked, and
// at what committed version.
type LockQuery struct {
	Partition int
}

// LockInfo describes one locked object at a replica.
type LockInfo struct {
	Key    string
	ReqTag reqKey         // which put this lock belongs to
	Obj    kvstore.Object // a copy of the prepared object from the WAL
}

// LockQueryReply lists a replica's locked objects. MaxSeq is the
// replica's primary logical clock: the querying (newly promoted) primary
// advances past the maximum, so its future commits dominate every commit
// the old primary issued — even ones this node never witnessed (possible
// under any-k puts with a lossy network).
type LockQueryReply struct {
	From   int
	Locked []LockInfo
	MaxSeq uint64
}

// ResolveOrder is the new primary's verdict on one put a dead primary
// left locked (new-primary resolution): commit Req's prepare of Key under
// Ts, or abandon it when Ts is zero. It names the put because a key's
// WAL record may by now belong to a newer one, which the order must not
// touch.
type ResolveOrder struct {
	Key string
	Req reqKey
	Ts  kvstore.Timestamp
}

// ResolveRequest asks the current primary of a partition to run lock
// resolution: sent by a replica stuck with an orphaned locked object
// after the coordinating primary died mid-put.
type ResolveRequest struct {
	Partition int
}

// VersionQuery asks a replica for its committed versions of keys (round
// two of new-primary resolution: a version carrying the locked put's
// client quadruplet proves the old primary committed it somewhere).
type VersionQuery struct {
	Keys []string
}

// VersionReply maps each queried key to its committed version (zero when
// the replica has no committed copy).
type VersionReply struct {
	From int
	Vers map[string]kvstore.Timestamp
}
