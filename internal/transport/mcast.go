package transport

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Debug enables multicast transport tracing (tests only).
var Debug bool

func dbg(s *sim.Simulator, format string, args ...any) {
	if Debug {
		fmt.Printf("%v mcast ", s.Now())
		fmt.Printf(format, args...)
		fmt.Println()
	}
}

// Multicast transport tuning (§5 "Replication"): data is chunked below a
// single MTU, NACKs repair losses over unicast, and ACKs drive flow
// control. The quorum ("any-k") variant advances its window when any k
// receivers acknowledge and returns when any k finish.
const (
	// McastWindow is the flow-control window in chunks (~45 KB).
	McastWindow = 32
	// mcastRTO is how long the sender waits for window acks before
	// retransmitting.
	mcastRTO = 25 * time.Millisecond
	// mcastMaxRetries bounds sender persistence per window.
	mcastMaxRetries = 4
	// gapTimeout is how long a receiver waits on an incomplete transfer
	// before NACKing the missing chunks.
	gapTimeout = 5 * time.Millisecond
	// gapMaxNacks bounds receiver-side repair attempts (dead sender).
	gapMaxNacks = 8
	// StragglerTimeout is how long an any-k sender keeps serving repair
	// traffic for receivers outside the quorum after returning.
	StragglerTimeout = 250 * time.Millisecond
	// finishedCap bounds the completed transfers a receiver remembers so
	// that a late duplicate is re-confirmed with DONE. A sender re-solicits
	// for mcastMaxRetries × mcastRTO = 100 ms past its last answer, and a
	// 1 Gbps port completes at most ~80 one-chunk 1 KB transfers per ms, so
	// the last 8192 completions cover that horizon at line rate. A
	// duplicate of a forgotten transfer is taken for a new one: delivered
	// again if it is the whole transfer (the put protocol knows a replay by
	// its request id), NACKed gapMaxNacks times and dropped otherwise.
	finishedCap = 8192
	// mctrlSize is the wire size of ACK/NACK/DONE messages.
	mctrlSize = 64
)

// chunkMsg describes a multicast transfer to whoever receives one of its
// chunks. What differs from chunk to chunk — the index, and whether the
// receiver should ack on receipt — rides in the packet's sequence field
// (chunkSeq), so a transfer has two descriptors, not one per chunk: one
// shared by every chunk but the last, and the last chunk's, which alone
// carries the application message.
type chunkMsg struct {
	xfer    uint64
	total   int
	size    int // total transfer payload bytes
	data    any // application message, on the last chunk
	ackIP   netsim.IP
	ackPort uint16 // sender's control socket
}

// chunkSeq packs a chunk's index and its ack-request flag (set on window
// boundaries) into a packet sequence field; chunkOf unpacks them.
func chunkSeq(idx int, needAck bool) uint64 {
	seq := uint64(idx) << 1
	if needAck {
		seq |= 1
	}
	return seq
}

func chunkOf(pkt *netsim.Packet) (idx int, needAck bool) {
	return int(pkt.Seq >> 1), pkt.Seq&1 != 0
}

// ChunkPayload unwraps a multicast chunk's application message. It lets
// switch-resident stages (e.g. the harmonia dirty-set) recognize the
// protocol message a multicast transfer carries without exporting the
// chunk framing itself: only the final chunk of a transfer carries the
// message, so a stage acting on it sees each transfer exactly once per
// switch traversal (retransmitted repairs re-deliver the same message,
// so stages must be idempotent).
func ChunkPayload(payload any) (any, bool) {
	m, ok := payload.(*chunkMsg)
	if !ok || m.data == nil {
		return nil, false
	}
	return m.data, true
}

type mctrlKind uint8

const (
	mctrlAck mctrlKind = iota + 1
	mctrlNack
	mctrlDone
)

// mctrlMsg is a receiver-to-sender control message (unicast UDP). The
// transfer it answers and, on an ACK, the contiguous chunks received ride
// in the packet's sequence field (ctrlSeq), so ACK and DONE say nothing
// beyond their kind and are the shared descriptors ackCtrl and doneCtrl.
// Only a NACK, which loss alone provokes, allocates one, for its list.
type mctrlMsg struct {
	kind    mctrlKind
	missing []int // nack: chunk indexes to repair
}

var (
	ackCtrl  = &mctrlMsg{kind: mctrlAck}
	doneCtrl = &mctrlMsg{kind: mctrlDone}
)

// ctrlSeq packs a control message's transfer and chunk count into a packet
// sequence field: the count (below 2^32 chunks, 5.6 TB) in the low 32 bits,
// the transfer's low 32 bits above. A control socket compares only those
// (answers), so it would take a late message of the transfer 2^32 sends
// before its own for one of its own — a message that stayed in flight
// while its sender started four billion more sends. ctrlOf unpacks the
// count.
func ctrlSeq(xfer uint64, upTo int) uint64 { return xfer<<32 | uint64(uint32(upTo)) }

func ctrlOf(seq uint64) (upTo int) { return int(uint32(seq)) }

// answers reports whether a control message's sequence field names xfer.
func answers(seq, xfer uint64) bool { return uint32(seq>>32) == uint32(xfer) }

// Transfer is a complete multicast message delivered to a receiver.
type Transfer struct {
	From     netsim.IP // sender's physical address
	FromPort uint16    // sender's control port (for protocol replies)
	To       netsim.IP // group address the data arrived on
	Data     any
	Size     int
	Xfer     uint64
}

// xferKey identifies a transfer at a receiver.
type xferKey struct {
	from netsim.IP
	xfer uint64
}

// rxState tracks one inbound transfer while it is in flight. Completion
// or abandonment recycles it for a later transfer (MulticastReceiver.free);
// a finished transfer is remembered by its key alone (rxTable).
type rxState struct {
	key     xferKey
	ackPort uint16 // sender's control socket, from the latest chunk
	// have is the chunk bitmap; a transfer of at most 64 chunks (a 1 KB put
	// is one) keeps it in inline and allocates none, a longer one in spill,
	// which the state keeps, with its capacity, from tenant to tenant.
	have    []uint64
	inline  [1]uint64
	spill   []uint64
	count   int
	total   int
	contig  int
	maxIdx  int // highest chunk index seen: NACKs never reach past it
	fires   int // gap-watchdog expiries; bounds abandoned transfers
	nacks   int
	data    any // stashed from the data-bearing last chunk
	size    int
	hasData bool
	// One watchdog event is armed per incomplete transfer. A chunk only
	// moves gapDeadline (latest chunk + gapTimeout; zero = never armed);
	// the event re-arms itself for the remainder when it fires early.
	gapDeadline sim.Time
	watchdog    sim.Event
}

// has reports whether chunk idx arrived.
func (st *rxState) has(idx int) bool { return st.have[idx>>6]&(1<<(idx&63)) != 0 }

// MulticastReceiver receives reliable-multicast transfers on a port. Bind
// one per storage node; the node must separately join the group address
// at its host NIC.
type MulticastReceiver struct {
	stack *Stack
	port  uint16
	ctrl  *UDPSocket // replies to senders
	rq    *sim.Queue[Transfer]
	rx    rxTable
	last  *rxState // the transfer the latest chunk belonged to, if in flight
	// finished is a ring of the last finishedCap completed transfers in
	// completion order; finishedAt is the oldest once the ring is full.
	finished   []xferKey
	finishedAt int
	// free holds the states of transfers that completed or were given up.
	// Nothing else reaches one: its watchdog was cancelled at completion or
	// fired for the last time at abandonment, and release cleared last.
	free []*rxState
}

// BindMulticast binds a multicast receiver on port.
func (st *Stack) BindMulticast(port uint16) (*MulticastReceiver, error) {
	if _, dup := st.mrecv[port]; dup {
		return nil, st.portInUse("multicast", port)
	}
	ctrl, err := st.BindUDP(0)
	if err != nil {
		return nil, err
	}
	r := &MulticastReceiver{
		stack: st,
		port:  port,
		ctrl:  ctrl,
		rq:    sim.NewQueue[Transfer](st.s),
	}
	st.mrecv[port] = r
	return r, nil
}

// MustBindMulticast is BindMulticast that panics on error.
func (st *Stack) MustBindMulticast(port uint16) *MulticastReceiver {
	r, err := st.BindMulticast(port)
	if err != nil {
		panic(err)
	}
	return r
}

// Recv blocks until a complete transfer arrives.
func (r *MulticastReceiver) Recv(p *sim.Proc) (Transfer, bool) { return r.rq.Pop(p) }

// RecvTimeout is Recv with a deadline.
func (r *MulticastReceiver) RecvTimeout(p *sim.Proc, d sim.Time) (Transfer, bool) {
	return r.rq.PopTimeout(p, d)
}

// Close unbinds the receiver.
func (r *MulticastReceiver) Close() {
	if r.stack.mrecv[r.port] == r {
		delete(r.stack.mrecv, r.port)
	}
	if r.stack.lastMrecv == r {
		r.stack.lastMrecv = nil
	}
	r.ctrl.Close()
	r.rq.Close()
}

// send answers transfer xfer's sender with a control message.
func (r *MulticastReceiver) send(to netsim.IP, toPort uint16, m *mctrlMsg, xfer uint64, upTo int) {
	r.ctrl.send(r.stack.IP(), to, toPort, m, mctrlSize-netsim.UDPHeaderSize, ctrlSeq(xfer, upTo))
}

// recvChunk is called by the stack for every arriving chunk (multicast or
// unicast repair). A chunk in the middle of a window costs no allocation
// and no event: back-to-back chunks of one transfer skip the table probe,
// and the stall watchdog is already armed.
func (r *MulticastReceiver) recvChunk(pkt *netsim.Packet, m *chunkMsg) {
	idx, needAck := chunkOf(pkt)
	key := xferKey{m.ackIP, m.xfer}
	st := r.last
	if st == nil || st.key != key {
		var ok bool
		if st, ok = r.rx.get(key); !ok {
			st = r.newRx(key, m.total)
			r.rx.set(key, st)
		} else if st == nil {
			// Duplicate tail of a finished transfer: re-confirm.
			r.send(m.ackIP, m.ackPort, doneCtrl, m.xfer, m.total)
			return
		}
		r.last = st
	}
	st.ackPort = m.ackPort
	if idx >= 0 && idx < st.total && !st.has(idx) {
		st.have[idx>>6] |= 1 << (idx & 63)
		st.count++
		if idx > st.maxIdx {
			st.maxIdx = idx
		}
		for st.contig < st.total && st.has(st.contig) {
			st.contig++
		}
	}
	if idx == m.total-1 && !st.hasData {
		st.hasData = true
		st.data = m.data
		st.size = m.size
	}
	if st.count == st.total {
		st.watchdog.Cancel()
		tr := Transfer{
			From:     m.ackIP,
			FromPort: m.ackPort,
			To:       pkt.DstIP,
			Data:     st.data,
			Size:     st.size,
			Xfer:     m.xfer,
		}
		r.finish(st)
		r.send(m.ackIP, m.ackPort, doneCtrl, m.xfer, m.total)
		r.rq.Push(tr)
		return
	}
	if needAck {
		r.send(m.ackIP, m.ackPort, ackCtrl, m.xfer, st.contig)
		if st.contig <= idx {
			r.nackMissing(st, idx+1)
		}
	}
	// If the transfer stalls from here, NACK what is missing.
	s := r.stack.s
	armed := st.gapDeadline != 0
	st.gapDeadline = s.Now() + gapTimeout
	if !armed {
		st.watchdog = s.At2(st.gapDeadline, gapWatchdog, r, st)
	}
}

// newRx returns a clean state for a new transfer of total chunks, reusing
// a released one, and its heap bitmap, when there is one.
func (r *MulticastReceiver) newRx(key xferKey, total int) *rxState {
	var st *rxState
	if n := len(r.free); n > 0 {
		st = r.free[n-1]
		r.free = r.free[:n-1]
		*st = rxState{spill: st.spill}
	} else {
		st = new(rxState)
	}
	st.key, st.total = key, total
	if words := (total + 63) / 64; words <= len(st.inline) {
		st.have = st.inline[:words]
	} else {
		if cap(st.spill) < words {
			st.spill = make([]uint64, words)
		}
		st.have = st.spill[:words]
		clear(st.have)
	}
	return st
}

// finish remembers st's transfer as the newest completed one, forgetting
// the oldest past finishedCap, and recycles st. A key sits in the ring at
// most once: it finishes only while in flight, and only its ring entry's
// eviction forgets a finished transfer, so the eviction deletes exactly
// the table entry that entry made.
func (r *MulticastReceiver) finish(st *rxState) {
	key := st.key
	r.rx.set(key, nil)
	r.release(st)
	if len(r.finished) < finishedCap {
		r.finished = append(r.finished, key)
		return
	}
	r.rx.del(r.finished[r.finishedAt])
	r.finished[r.finishedAt] = key
	r.finishedAt = (r.finishedAt + 1) % finishedCap
}

// release puts the state of a transfer that completed or was given up on
// the free list.
func (r *MulticastReceiver) release(st *rxState) {
	if r.last == st {
		r.last = nil
	}
	st.data = nil
	r.free = append(r.free, st)
}

// abandon forgets an incomplete transfer and recycles its state; a later
// chunk of it starts the transfer afresh.
func (r *MulticastReceiver) abandon(st *rxState) {
	r.rx.del(st.key)
	r.release(st)
}

// nackMissing asks the sender to repair the missing chunks below bound.
func (r *MulticastReceiver) nackMissing(st *rxState, bound int) {
	var missing []int
	for i := st.contig; i < bound && i < st.total; i++ {
		if !st.has(i) {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		r.send(st.key.from, st.ackPort, &mctrlMsg{kind: mctrlNack, missing: missing}, st.key.xfer, 0)
	}
}

// gapWatchdog is the static callback of a transfer's one watchdog event
// (armed only while the transfer is incomplete and remembered). Chunks
// that arrived since it was armed moved the deadline without touching the
// event, so an early firing re-arms for the remainder; a firing at the
// deadline means gapTimeout passed with no chunk.
func gapWatchdog(a1, a2 any) {
	r, st := a1.(*MulticastReceiver), a2.(*rxState)
	s := r.stack.s
	if s.Now() >= st.gapDeadline {
		if !r.gapFired(st) {
			return
		}
		st.gapDeadline = s.Now() + gapTimeout
	}
	st.watchdog = s.At2(st.gapDeadline, gapWatchdog, r, st)
}

// gapFired handles a stalled transfer: NACK what is provably lost, or
// give the transfer up (false) when the sender must be gone.
func (r *MulticastReceiver) gapFired(st *rxState) bool {
	st.fires++
	if st.fires > 64 {
		r.abandon(st) // sender gave up long ago
		return false
	}
	// Only chunks behind the highest index seen can be genuinely lost;
	// everything past maxIdx may simply not have been transmitted yet
	// (the sender is pacing on flow control).
	if st.contig <= st.maxIdx {
		st.nacks++
		if st.nacks > gapMaxNacks {
			r.abandon(st) // sender is gone
			return false
		}
		r.nackMissing(st, st.maxIdx+1)
	}
	return true
}

// McastOpts parameterizes one reliable multicast send.
type McastOpts struct {
	To        netsim.IP // group (or multicast-vring) address
	ToPort    uint16
	Data      any
	Size      int
	Receivers int // expected group size
	K         int // quorum: return after any K receivers finish (0 = all)
	Timeout   sim.Time
}

// McastResult reports a completed multicast send. It is a value that
// shares nothing with the send's pooled state: up to inlinePeers receivers
// (every R = 3 group) the finished list rides inside it, so returning it
// allocates nothing.
type McastResult struct {
	Chunks  int
	Repairs int // chunks retransmitted via unicast repair
	nfin    int
	fin     [inlinePeers]netsim.IP
	spill   []netsim.IP // the finished list, past inlinePeers receivers
}

// Finished lists the receivers that completed, in completion order. An
// any-k send's result holds those that had finished when it returned.
func (r *McastResult) Finished() []netsim.IP {
	if r.spill != nil {
		return r.spill
	}
	return r.fin[:r.nfin]
}

// finished appends ip to the finished list, moving it out of line when it
// outgrows the inline array.
func (r *McastResult) finished(ip netsim.IP) {
	switch {
	case r.spill != nil:
		r.spill = append(r.spill, ip)
	case r.nfin < inlinePeers:
		r.fin[r.nfin] = ip
		r.nfin++
	default:
		r.spill = append(r.fin[:r.nfin:r.nfin], ip)
	}
}

// txPeer tracks the sender's view of one receiver.
type txPeer struct {
	ip   netsim.IP
	upTo int
	done bool
}

// inlinePeers is how many receivers a send tracks in its own struct: the
// replica count, R = 3, of every default deployment.
const inlinePeers = 3

// mcastSend is the sender's state of one transfer, pooled per Stack
// (newSend, releaseSend). The result and, up to inlinePeers receivers, the
// peer list live inside it, so a send allocates only its chunk
// descriptors, and nothing per chunk (packets are pooled) or per control
// message.
type mcastSend struct {
	st    *Stack
	ctrl  *UDPSocket
	to    netsim.IP
	port  uint16
	size  int
	total int
	res   McastResult
	// last describes the final chunk, the only one carrying the message;
	// body every other chunk (nil in a one-chunk transfer). They are the
	// transfer's own, never recycled: a late chunk reads xfer and total from
	// its descriptor, so a reused one would graft it onto a newer transfer.
	last, body *chunkMsg
	peers      []txPeer // receivers heard from, in first-contact order
	peerBuf    [inlinePeers]txPeer
}

// newSend takes a clean send state from the stack's pool, or makes one.
func (st *Stack) newSend() *mcastSend {
	if n := len(st.txFree); n > 0 {
		tx := st.txFree[n-1]
		st.txFree = st.txFree[:n-1]
		return tx
	}
	return &mcastSend{st: st}
}

// releaseSend ends a send: its control socket goes back to the pool, and
// its state, cleared, with it. It runs where the send stops reading
// control messages — on return, or when an any-k send's straggler ends.
func (st *Stack) releaseSend(tx *mcastSend) {
	st.releaseCtrl(tx.ctrl)
	*tx = mcastSend{st: st}
	st.txFree = append(st.txFree, tx)
}

// end releases tx and returns its result, copied out first.
func (tx *mcastSend) end(err error) (McastResult, error) {
	res := tx.res
	tx.st.releaseSend(tx)
	return res, err
}

// sendChunk transmits chunk idx to the group, or as a unicast repair to
// one receiver.
func (tx *mcastSend) sendChunk(idx int, unicastTo netsim.IP, needAck bool) {
	m, chunkSize := tx.body, MTU
	if idx == tx.total-1 {
		m = tx.last
		chunkSize = tx.size - (tx.total-1)*MTU
		if chunkSize <= 0 {
			chunkSize = 1
		}
	}
	dst := tx.to
	if unicastTo != 0 {
		dst = unicastTo
		tx.res.Repairs++
	}
	tx.ctrl.send(tx.st.IP(), dst, tx.port, m, chunkSize, chunkSeq(idx, needAck))
}

// peer returns the record of receiver ip, adding one on first contact.
func (tx *mcastSend) peer(ip netsim.IP) *txPeer {
	for i := range tx.peers {
		if tx.peers[i].ip == ip {
			return &tx.peers[i]
		}
	}
	tx.peers = append(tx.peers, txPeer{ip: ip})
	return &tx.peers[len(tx.peers)-1]
}

// handle applies one control message to the sender's state. The control
// socket delivers only this transfer's (UDPSocket.deliver).
func (tx *mcastSend) handle(d Datagram) {
	m := d.Data.(*mctrlMsg)
	pe := tx.peer(d.From)
	switch m.kind {
	case mctrlAck:
		if upTo := ctrlOf(d.seq); upTo > pe.upTo {
			pe.upTo = upTo
		}
	case mctrlDone:
		pe.upTo = tx.total
		if !pe.done {
			pe.done = true
			tx.res.finished(d.From)
		}
	case mctrlNack:
		if Debug {
			dbg(tx.st.s, "NACK from %v: %d missing (first %d)", d.From, len(m.missing), m.missing[0])
		}
		for _, idx := range m.missing {
			tx.sendChunk(idx, d.From, false)
		}
		// Repairing the tail re-requests an ack so flow control can
		// make progress past the repaired window.
		if n := len(m.missing); n > 0 {
			tx.sendChunk(m.missing[n-1], d.From, true)
		}
	}
}

// countAt counts the receivers holding every chunk below mark.
func (tx *mcastSend) countAt(mark int) int {
	n := 0
	for _, pe := range tx.peers {
		if pe.upTo >= mark || pe.done {
			n++
		}
	}
	return n
}

// SendMulticast performs one reliable multicast transfer from this stack
// and blocks until all receivers (or any K, when opts.K > 0) have the
// whole message. Repair traffic for stragglers continues in the
// background after an any-k send returns, as in the paper's quorum
// transport.
func (st *Stack) SendMulticast(p *sim.Proc, opts McastOpts) (McastResult, error) {
	if opts.Receivers <= 0 {
		panic("transport: SendMulticast needs Receivers > 0")
	}
	k := opts.K
	if k <= 0 || k > opts.Receivers {
		k = opts.Receivers
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	deadline := st.s.Now() + timeout

	ctrl, err := st.ctrlSocket()
	if err != nil {
		return McastResult{}, err
	}
	st.xferSeq++
	ctrl.xfer = st.xferSeq

	total := (opts.Size + MTU - 1) / MTU
	if total == 0 {
		total = 1
	}
	tx := st.newSend()
	tx.ctrl, tx.to, tx.port, tx.size, tx.total = ctrl, opts.To, opts.ToPort, opts.Size, total
	tx.res.Chunks = total
	desc := chunkMsg{
		xfer: ctrl.xfer, total: total, size: opts.Size, data: opts.Data,
		ackIP: st.IP(), ackPort: ctrl.Port(),
	}
	if total == 1 {
		tx.last = new(chunkMsg)
		*tx.last = desc
	} else {
		d := new([2]chunkMsg)
		d[0], d[1] = desc, desc
		d[1].data = nil
		tx.last, tx.body = &d[0], &d[1]
	}
	tx.peers = tx.peerBuf[:0]
	if opts.Receivers > inlinePeers {
		tx.peers = make([]txPeer, 0, opts.Receivers)
		tx.res.spill = make([]netsim.IP, 0, opts.Receivers)
	}

	for base := 0; base < total; base += McastWindow {
		end := base + McastWindow
		if end > total {
			end = total
		}
		if Debug {
			dbg(st.s, "window %d-%d (k=%d)", base, end, k)
		}
		for i := base; i < end; i++ {
			tx.sendChunk(i, 0, i == end-1)
		}
		retries := 0
		for tx.countAt(end) < k {
			remain := deadline - st.s.Now()
			if remain <= 0 {
				return tx.end(ErrTimeout)
			}
			wait := sim.Time(mcastRTO)
			if wait > remain {
				wait = remain
			}
			d, ok := ctrl.RecvTimeout(p, wait)
			if !ok {
				retries++
				if retries > mcastMaxRetries {
					return tx.end(ErrTimeout)
				}
				// Re-solicit acks by retransmitting the window tail.
				tx.sendChunk(end-1, 0, true)
				continue
			}
			retries = 0
			tx.handle(d)
		}
	}

	// Wait for K completions.
	for len(tx.res.Finished()) < k {
		remain := deadline - st.s.Now()
		if remain <= 0 {
			return tx.end(ErrTimeout)
		}
		d, ok := ctrl.RecvTimeout(p, minTime(sim.Time(mcastRTO), remain))
		if !ok {
			tx.sendChunk(total-1, 0, true)
			continue
		}
		tx.handle(d)
	}

	if len(tx.res.Finished()) >= opts.Receivers {
		return tx.end(nil)
	}

	// Quorum reached but stragglers remain: keep repairing in the
	// background, then release the control socket and the send state — not
	// before, or a later send would share them.
	st.s.Spawn("mcast-straggler", func(bp *sim.Proc) {
		stop := st.s.Now() + StragglerTimeout
		for len(tx.res.Finished()) < opts.Receivers {
			remain := stop - st.s.Now()
			if remain <= 0 {
				break
			}
			d, ok := ctrl.RecvTimeout(bp, remain)
			if !ok {
				break
			}
			tx.handle(d)
		}
		st.releaseSend(tx)
	})
	return tx.res, nil
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}
