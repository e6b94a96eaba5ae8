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
	"repro/internal/sim"
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
// every replica receives the full object plus this header. Every member
// of the put's group reads the same request, so its holders are the
// client until its attempt is answered, the multicast send until its
// state is reused, and each delivery until that replica's handler
// returns (counted). The count grows as holders appear instead of being
// fixed at the send: a multicast reaches whoever is in the group as it
// crosses the switch, which its sender's view does not always know.
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

	counted
}

func (r *PutRequest) key() reqKey { return reqKey{Client: r.Client, Seq: r.ClientSeq} }

// Holders lets the transport count r's copies (transport.Counted).
func (r *PutRequest) Holders() *netsim.Holds { return r.holders() }

// counted is the lifetime of a message its sender takes off a free list
// of its own (takeCounted; DESIGN.md §7.2). Its holders count themselves
// in holds (netsim.Holds): the sender holds it, a message with one reader
// passes that hold on to the reader, and one with several readers —
// PutRequest, BatchTsMsg — is held by each packet and queued delivery
// carrying it and each reader in turn. The last to let go hands it back
// (holds.Last). A message built by hand has no Last: it counts nothing
// and is never pooled.
type counted struct{ holds netsim.Holds }

func (c *counted) counter() *counted { return c }

// release lets go of one hold; the holder must not touch the message
// after. Releasing past the last holder panics: the sender may already
// have sent the message again.
func (c *counted) release() {
	if c.holds.Last != nil {
		c.holds.Release()
	}
}

// holders returns the count, or nil for a message built by hand.
func (c *counted) holders() *netsim.Holds {
	if c.holds.Last == nil {
		return nil
	}
	return &c.holds
}

// takeCounted takes a message off free, or makes one whose last holder
// hands it back there, and holds it for the caller.
func takeCounted[M any, P interface {
	*M
	counter() *counted
}](free *sim.Free[M]) *M {
	m := free.Take()
	if m == nil {
		m = new(M)
	}
	c := P(m).counter()
	if c.holds.Last == nil {
		c.holds.Last = func() { free.Put(m) }
	}
	c.holds.Hold()
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
	counted
}

// TsMsg is the primary's verdict on one put: it commits the put and
// orders it against other puts to the same key (§4.3). It travels as an
// item of a BatchTsMsg and is read by value, so no reader keeps it; it
// packs into 64 bytes.
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
	counted
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
	counted
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

// BatchTsMsg is the primary's timestamp multicast: one verdict, sent at
// tsMsgSize, or the timestamps of co-arriving commits for one partition
// packed by the put accumulator. Receivers route each item, by value, to
// its per-op put state (or the late-timestamp path), exactly as if it had
// arrived alone. Every group member reads the message, so its holders are
// its builder until it is sent, each packet, and each queued delivery
// until dataLoop has routed it (counted); the last hands it back to the
// primary that sent it.
type BatchTsMsg struct {
	Items []TsMsg

	counted
}

// Holders lets the transport count m's copies (transport.Counted).
func (m *BatchTsMsg) Holders() *netsim.Holds { return m.holders() }

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
