package transport

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Stream tuning. The window is what makes concurrent flows share a
// bottleneck link: each flow keeps at most WindowSegments in flight and
// advances on acks, so interleaving (and thus contention, Fig. 8) emerges
// naturally.
const (
	// WindowSegments is the sliding-window size (~64 KB at MSS 1400).
	WindowSegments = 44
	// RTO is the retransmission timeout.
	RTO = 25 * time.Millisecond
	// MaxRetries is how many RTOs a sender endures before declaring the
	// peer dead.
	MaxRetries = 4
	// handshakeRTO bounds SYN retransmission.
	handshakeRTO = 25 * time.Millisecond
	// segHeader approximates TCP header bytes charged per segment.
	ctrlSegSize = 64
)

type segKind uint8

const (
	segSYN segKind = iota + 1
	segSYNACK
	segData
	segAck
	segFIN
)

// segMsg is the payload of a ProtoTCP packet. A segment's own number —
// data: its stream-wide segment number; ack: the cumulative next expected —
// rides in the packet's sequence field, so a data segMsg describes a whole
// message: one is shared by every segment but the last, and the last
// segment's alone carries the body. Both live in the sending Conn.
type segMsg struct {
	kind    segKind
	first   uint64 // stream-wide number of the message's first segment
	total   int    // segments in the message
	msgSize int    // message payload bytes
	data    any    // message body, carried on the last segment
}

// A control segment says nothing beyond its kind (an ack's number is in
// the packet), so each kind is one immutable descriptor shared by all.
var (
	synSeg    = &segMsg{kind: segSYN}
	synAckSeg = &segMsg{kind: segSYNACK}
	ackSeg    = &segMsg{kind: segAck}
	finSeg    = &segMsg{kind: segFIN}
)

// Message is a complete application message received on a stream.
type Message struct {
	Data any
	Size int
}

// Conn is one endpoint of an established reliable stream.
type Conn struct {
	stack     *Stack
	peer      netsim.IP
	peerPort  uint16
	localPort uint16

	// Sender state.
	sendSeq  uint64 // next segment number to send
	ackedSeq uint64 // cumulative acked
	ackSig   *sim.Queue[struct{}]
	sending  bool // one Send at a time per conn
	// last and body describe the message being sent; each Send rewrites
	// them when it starts. The peer reads a data descriptor only for the
	// segment it wants next (recvData), and a Send starts only once every
	// segment of the previous message is acked, so a late copy of one is
	// numbered below that and never reads the rewrite.
	last, body segMsg

	// Receiver state.
	wantSeq uint64
	got     int
	recvQ   *sim.Queue[Message]

	established *sim.Future[bool]
	closed      bool
}

// Listener accepts inbound streams on a port.
type Listener struct {
	stack *Stack
	port  uint16
	q     *sim.Queue[*Conn]
}

// Listen binds a stream listener.
func (st *Stack) Listen(port uint16) (*Listener, error) {
	if _, dup := st.listeners[port]; dup {
		return nil, st.portInUse("stream", port)
	}
	l := &Listener{stack: st, port: port, q: sim.NewQueue[*Conn](st.s)}
	st.listeners[port] = l
	return l, nil
}

// MustListen is Listen that panics on error.
func (st *Stack) MustListen(port uint16) *Listener {
	l, err := st.Listen(port)
	if err != nil {
		panic(err)
	}
	return l
}

// Accept blocks until an inbound connection is established.
func (l *Listener) Accept(p *sim.Proc) (*Conn, bool) { return l.q.Pop(p) }

// Close stops accepting.
func (l *Listener) Close() {
	delete(l.stack.listeners, l.port)
	l.q.Close()
}

// Dial opens a stream to to:port, blocking through the handshake. It
// fails with ErrTimeout when the peer does not answer (down host, no
// route, no listener).
func (st *Stack) Dial(p *sim.Proc, to netsim.IP, port uint16) (*Conn, error) {
	c := &Conn{
		stack:       st,
		peer:        to,
		peerPort:    port,
		localPort:   st.ephemeralPort(),
		ackSig:      sim.NewQueue[struct{}](st.s),
		recvQ:       sim.NewQueue[Message](st.s),
		established: sim.NewFuture[bool](st.s),
	}
	st.conns[c.key()] = c
	st.dialed[c.localPort]++
	for try := 0; try <= MaxRetries; try++ {
		c.sendSeg(synSeg, 0, ctrlSegSize)
		if _, ok := c.established.WaitTimeout(p, handshakeRTO); ok {
			return c, nil
		}
	}
	st.dropConn(c)
	return nil, ErrTimeout
}

func (c *Conn) key() connKey { return connKey{c.peer, c.peerPort, c.localPort} }

// dropConn forgets a torn-down stream; a dialed one (the only kind with an
// established future) also gives its local port back to ephemeralPort.
func (st *Stack) dropConn(c *Conn) {
	k := c.key()
	if st.conns[k] != c {
		return
	}
	delete(st.conns, k)
	if c.established != nil {
		if st.dialed[c.localPort]--; st.dialed[c.localPort] == 0 {
			delete(st.dialed, c.localPort)
		}
	}
}

// sendSeg transmits one segment of the stream, numbered seq.
func (c *Conn) sendSeg(m *segMsg, seq uint64, size int) {
	pkt := c.stack.host.Network().NewPacket()
	pkt.DstIP = c.peer
	pkt.Proto = netsim.ProtoTCP
	pkt.SrcPort = c.localPort
	pkt.DstPort = c.peerPort
	pkt.Size = size
	pkt.Payload = m
	pkt.Seq = seq
	c.stack.host.Send(pkt)
}

// Send transmits one application message of `size` payload bytes and
// blocks until the peer acknowledged every segment. A message smaller
// than one MSS still costs one segment. Concurrent Sends on one conn are
// a protocol bug and panic.
func (c *Conn) Send(p *sim.Proc, data any, size int) error {
	if c.closed {
		return ErrClosed
	}
	if c.sending {
		panic("transport: concurrent Send on one stream")
	}
	c.sending = true
	defer func() { c.sending = false }()

	total := (size + MSS - 1) / MSS
	if total == 0 {
		total = 1
	}
	base := c.sendSeq
	final := base + uint64(total)

	c.last = segMsg{kind: segData, first: base, total: total, msgSize: size, data: data}
	last, body := &c.last, &c.last // a one-segment message needs no body
	if total > 1 {
		c.body = c.last
		c.body.data = nil
		body = &c.body
	}
	sendOne := func(i uint64) {
		m, segSize := body, MSS
		if i == final-1 {
			m = last
			segSize = size - (total-1)*MSS
			if segSize <= 0 {
				segSize = 1
			}
		}
		c.sendSeg(m, i, segSize+netsim.TCPHeaderSize)
	}

	retries := 0
	for c.ackedSeq < final {
		// Fill the window.
		for c.sendSeq < final && c.sendSeq-c.ackedSeq < WindowSegments {
			sendOne(c.sendSeq)
			c.sendSeq++
		}
		// Go-back-N with RTO-driven recovery: duplicate acks are drained
		// here without retransmitting (a fast-retransmit storm is worse
		// than one RTO stall on our fabric, which only loses packets
		// under injected loss or crashed hosts).
		if _, ok := c.ackSig.PopTimeout(p, RTO); !ok {
			retries++
			if retries > MaxRetries {
				return ErrTimeout
			}
			// Rewind and resend the window.
			c.sendSeq = c.ackedSeq
			continue
		}
		retries = 0
	}
	return nil
}

// Recv blocks until a complete message arrives; ok is false when the
// peer closed.
func (c *Conn) Recv(p *sim.Proc) (Message, bool) { return c.recvQ.Pop(p) }

// RecvTimeout is Recv with a deadline.
func (c *Conn) RecvTimeout(p *sim.Proc, d sim.Time) (Message, bool) {
	return c.recvQ.PopTimeout(p, d)
}

// Close tears the stream down, sending a best-effort FIN.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.sendSeg(finSeg, 0, ctrlSegSize)
	c.stack.dropConn(c)
	c.recvQ.Close()
}

// recvTCP dispatches a stream segment to its connection, establishing
// server-side connections on SYN.
func (st *Stack) recvTCP(pkt *netsim.Packet) {
	m, ok := pkt.Payload.(*segMsg)
	if !ok {
		return
	}
	key := connKey{pkt.SrcIP, pkt.SrcPort, pkt.DstPort}
	c, exists := st.conns[key]

	switch m.kind {
	case segSYN:
		if !exists {
			l, listening := st.listeners[pkt.DstPort]
			if !listening {
				return // no RST modeling; the dialer will time out
			}
			c = &Conn{
				stack:     st,
				peer:      pkt.SrcIP,
				peerPort:  pkt.SrcPort,
				localPort: pkt.DstPort,
				ackSig:    sim.NewQueue[struct{}](st.s),
				recvQ:     sim.NewQueue[Message](st.s),
			}
			st.conns[key] = c
			l.q.Push(c)
		}
		c.sendSeg(synAckSeg, 0, ctrlSegSize)
	case segSYNACK:
		if exists && c.established != nil && !c.established.Done() {
			c.established.Set(true)
		}
	case segData:
		if !exists {
			return
		}
		c.recvData(m, pkt.Seq)
	case segAck:
		if !exists {
			return
		}
		if pkt.Seq > c.ackedSeq {
			c.ackedSeq = pkt.Seq
		}
		c.ackSig.Push(struct{}{})
	case segFIN:
		if !exists {
			return
		}
		st.dropConn(c)
		c.closed = true
		c.recvQ.Close()
	}
}

// recvData implements the receiver side: in-order acceptance (go-back-N
// discipline), per-segment cumulative acks, message assembly.
func (c *Conn) recvData(m *segMsg, seq uint64) {
	if seq == c.wantSeq {
		c.wantSeq++
		idx := int(seq - m.first)
		if idx == 0 {
			c.got = 0
		}
		c.got++
		if idx == m.total-1 && c.got == m.total {
			c.recvQ.Push(Message{Data: m.data, Size: m.msgSize})
		}
	}
	// Cumulative ack (also for out-of-order arrivals, telling the sender
	// where to resume).
	c.sendSeg(ackSeg, c.wantSeq, ctrlSegSize)
}
