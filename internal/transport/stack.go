// Package transport implements the endpoint transports NICEKV uses on top
// of the simulated network (§5 "Implementation details"):
//
//   - UDP datagram sockets — clients send put/get requests over UDP to
//     vnode addresses so the switch can rewrite them freely;
//   - reliable streams ("TCP") — all other communication: replies,
//     inter-node replication in NOOB, recovery transfers. Streams model a
//     connection handshake, MSS segmentation, a sliding window with ack
//     clocking (which is what makes concurrent flows share links), and
//     timeout-based failure detection;
//   - reliable UDP multicast — the NICE data path: data chunked below the
//     MTU, NACK-based repair over unicast, ACK-based flow control; plus
//     the any-k quorum variant whose window advances when any k receivers
//     acknowledge (§5).
package transport

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// MTU is the maximum datagram payload; the paper chunks multicast data
// below a single network MTU (1400 bytes).
const MTU = 1400

// MSS is the stream segment payload size.
const MSS = 1400

// Errors reported by transports.
var (
	ErrTimeout = fmt.Errorf("transport: operation timed out")
	ErrClosed  = fmt.Errorf("transport: endpoint closed")
)

// connKey demultiplexes stream segments.
type connKey struct {
	peer      netsim.IP
	peerPort  uint16
	localPort uint16
}

// Stack is the per-host transport mux: it owns the host's packet handler
// and dispatches to bound sockets.
type Stack struct {
	host      *netsim.Host
	s         *sim.Simulator
	udp       map[uint16]*UDPSocket
	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	dialed    map[uint16]int // live dialed streams per local port
	mrecv     map[uint16]*MulticastReceiver
	lastMrecv *MulticastReceiver  // receiver of the latest chunk, if still bound
	ctrlFree  sim.Free[UDPSocket] // idle multicast sender control sockets, still bound
	txFree    sim.Free[mcastSend] // idle multicast send states (newSend)
	nextEphem uint16
	xferSeq   uint64
}

// NewStack attaches a transport stack to h (replacing its handler).
func NewStack(h *netsim.Host) *Stack {
	st := &Stack{
		host:      h,
		s:         h.Sim(),
		udp:       make(map[uint16]*UDPSocket),
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connKey]*Conn),
		dialed:    make(map[uint16]int),
		mrecv:     make(map[uint16]*MulticastReceiver),
		nextEphem: 49152,
	}
	h.SetHandler(st.recv)
	return st
}

// Host returns the underlying host.
func (st *Stack) Host() *netsim.Host { return st.host }

// Sim returns the driving simulator.
func (st *Stack) Sim() *sim.Simulator { return st.s }

// IP returns the host address.
func (st *Stack) IP() netsim.IP { return st.host.IP() }

// portInUse is the error of binding a port that kind of socket already
// holds on this host.
func (st *Stack) portInUse(kind string, port uint16) error {
	return fmt.Errorf("transport: %s port %d in use on %s", kind, port, st.host.DeviceName())
}

// ephemeralPort hands out client-side port numbers, skipping every port a
// bound socket, a listener or a live dialed stream holds: once the range
// wraps, a second stream on a live one's port would replace it in conns.
func (st *Stack) ephemeralPort() uint16 {
	for {
		p := st.nextEphem
		st.nextEphem++
		if st.nextEphem == 0 {
			st.nextEphem = 49152
		}
		if _, udpUsed := st.udp[p]; udpUsed {
			continue
		}
		if _, lnUsed := st.listeners[p]; lnUsed {
			continue
		}
		if st.dialed[p] > 0 {
			continue
		}
		return p
	}
}

// recv dispatches an incoming packet to the owning socket. Every dispatch
// target copies what it needs out of the packet synchronously (payload
// references move into Datagram/Message/rxState), so the packet itself is
// recycled here — the hot-path counterpart of the pooled send paths.
func (st *Stack) recv(pkt *netsim.Packet) {
	switch pkt.Proto {
	case netsim.ProtoUDP:
		switch pl := pkt.Payload.(type) {
		case *chunkMsg:
			r := st.lastMrecv
			if r == nil || r.port != pkt.DstPort {
				if r = st.mrecv[pkt.DstPort]; r == nil {
					break
				}
				st.lastMrecv = r
			}
			r.recvChunk(pkt, pl)
		default:
			if u, ok := st.udp[pkt.DstPort]; ok {
				u.deliver(pkt)
			}
		}
	case netsim.ProtoTCP:
		st.recvTCP(pkt)
	}
	st.host.Network().RecyclePacket(pkt)
}

// Datagram is a received UDP message.
type Datagram struct {
	From     netsim.IP
	FromPort uint16
	// To is the destination address on the wire when the datagram
	// arrived. For NICE this differs from the address the client sent
	// to: the fabric rewrote the vnode address to the physical one.
	To     netsim.IP
	ToPort uint16
	Data   any
	Size   int // payload bytes
	// seq is the packet's transport sequence field: on a multicast control
	// message, the transfer it answers and its chunk count (ctrlSeq).
	seq uint64
}

// UDPSocket sends and receives datagrams on a bound port.
type UDPSocket struct {
	stack *Stack
	port  uint16
	rq    *sim.Queue[Datagram]
	// mctrl marks a multicast sender's control socket. It is reused from
	// send to send (Stack.ctrlSocket), so it accepts only the control
	// messages of xfer, the transfer it serves now (none while pooled), as
	// their packet headers name it (ctrlSeq): an earlier transfer's late
	// DONE or ACK is dropped on arrival, like a datagram to an unbound
	// port, so it neither counts nor wakes the sender out of its RTO wait.
	mctrl bool
	xfer  uint64
}

// BindUDP binds a datagram socket; port 0 picks an ephemeral port.
func (st *Stack) BindUDP(port uint16) (*UDPSocket, error) {
	if port == 0 {
		port = st.ephemeralPort()
	}
	if _, dup := st.udp[port]; dup {
		return nil, st.portInUse("UDP", port)
	}
	u := &UDPSocket{stack: st, port: port, rq: sim.NewQueue[Datagram](st.s)}
	st.udp[port] = u
	return u, nil
}

// ctrlSocket hands a multicast send a control socket: an idle one from
// the stack's pool, or a new ephemeral bind. The send sets its xfer.
func (st *Stack) ctrlSocket() (*UDPSocket, error) {
	if u := st.ctrlFree.Take(); u != nil {
		return u, nil
	}
	u, err := st.BindUDP(0)
	if err != nil {
		return nil, err
	}
	u.mctrl = true
	return u, nil
}

// releaseCtrl ends a send's use of its control socket: the socket stays
// bound, deaf to every transfer, and goes back to the pool with its queue
// drained. A socket closed meanwhile is not pooled.
func (st *Stack) releaseCtrl(u *UDPSocket) {
	u.xfer = 0
	if st.udp[u.port] != u {
		return
	}
	for u.rq.Len() > 0 {
		u.rq.TryPop()
	}
	st.ctrlFree.Put(u)
}

// MustBindUDP is BindUDP that panics on error; for topology setup.
func (st *Stack) MustBindUDP(port uint16) *UDPSocket {
	u, err := st.BindUDP(port)
	if err != nil {
		panic(err)
	}
	return u
}

// Port returns the bound port.
func (u *UDPSocket) Port() uint16 { return u.port }

// SendTo transmits one datagram of size payload bytes. Datagrams above
// the MTU panic: callers must chunk (the multicast sender does).
func (u *UDPSocket) SendTo(to netsim.IP, toPort uint16, data any, size int) {
	u.send(u.stack.IP(), to, toPort, data, size, 0, holdsOf(data))
}

// Counted is an application message that counts its holders
// (netsim.Holds) so that its sender can reuse it once the last lets go.
// Sent as a datagram, the packet and each copy of it hold it, and so does
// each datagram a receiver queues, until its reader releases it; sent by
// multicast, the send holds it until its state is reused, and each
// delivered Transfer until its reader releases it. Holders may return nil:
// the message is not counted.
type Counted interface {
	Holders() *netsim.Holds
}

// holdsOf returns the count of data's holders, if it keeps one.
func holdsOf(data any) *netsim.Holds {
	if c, ok := data.(Counted); ok {
		return c.Holders()
	}
	return nil
}

// SendToFrom is SendTo with a caller-chosen source address: the datagram
// leaves the NIC carrying src as its source IP (netsim.Host.SendFrom).
// The open-loop traffic gateway sends each virtual client's requests this
// way; replies must be addressed to the gateway's real IP (carried inside
// the request), since nothing routes back to a synthesized source.
func (u *UDPSocket) SendToFrom(src, to netsim.IP, toPort uint16, data any, size int) {
	u.send(src, to, toPort, data, size, 0, holdsOf(data))
}

// send builds and transmits one datagram; seq is the packet's transport
// sequence field (a multicast chunk's transfer, index and ack-request
// bit), and h, if set, counts the holders of data (netsim.Holds).
func (u *UDPSocket) send(src, to netsim.IP, toPort uint16, data any, size int, seq uint64, h *netsim.Holds) {
	if size > MTU {
		panic(fmt.Sprintf("transport: %d-byte datagram exceeds MTU", size))
	}
	pkt := u.stack.host.Network().NewPacket()
	pkt.SrcIP = src
	pkt.DstIP = to
	pkt.Proto = netsim.ProtoUDP
	pkt.SrcPort = u.port
	pkt.DstPort = toPort
	pkt.Size = size + netsim.UDPHeaderSize
	pkt.Payload = data
	if h != nil {
		pkt.Holds = h
		h.Hold()
	}
	pkt.Seq = seq
	u.stack.host.SendFrom(pkt)
}

// Recv blocks until a datagram arrives.
func (u *UDPSocket) Recv(p *sim.Proc) (Datagram, bool) { return u.rq.Pop(p) }

// RecvTimeout is Recv with a deadline.
func (u *UDPSocket) RecvTimeout(p *sim.Proc, d sim.Time) (Datagram, bool) {
	return u.rq.PopTimeout(p, d)
}

// Close unbinds the socket and wakes blocked receivers.
func (u *UDPSocket) Close() {
	if st := u.stack; st.udp[u.port] == u {
		delete(st.udp, u.port)
	}
	u.rq.Close()
}

func (u *UDPSocket) deliver(pkt *netsim.Packet) {
	if u.mctrl {
		if _, ok := pkt.Payload.(*mctrlMsg); !ok || u.xfer == 0 || !answers(pkt.Seq, u.xfer) {
			return
		}
	}
	if pkt.Holds != nil {
		pkt.Holds.Hold() // the queued datagram's, until its reader releases
	}
	u.rq.Push(Datagram{
		From:     pkt.SrcIP,
		FromPort: pkt.SrcPort,
		To:       pkt.DstIP,
		ToPort:   pkt.DstPort,
		Data:     pkt.Payload,
		Size:     pkt.Size - netsim.UDPHeaderSize,
		seq:      pkt.Seq,
	})
}
