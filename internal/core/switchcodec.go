package core

import (
	"repro/internal/netsim"
	"repro/internal/switchcache"
	"repro/internal/transport"
)

// SwitchCodec adapts the NICEKV wire format to the in-switch stages: it
// is the one parser the hot-key cache (switchcache.Parser) and the
// dirty set (harmonia.Parser) share, so what one stage can see on the
// wire every stage can. Batched gets are the exception it keeps: a
// BatchGetRequest is not recognized and passes the stages untouched
// (DESIGN.md §16.4).
type SwitchCodec struct {
	// DataPort is the storage nodes' request port; only UDP datagrams to
	// it are candidate gets.
	DataPort uint16
}

// ParseGet recognizes a client get datagram. The request identifier
// mixes the client's stable request ID with its retry counter so a retry
// can hash to a different replica.
func (c SwitchCodec) ParseGet(pkt *netsim.Packet) (string, uint64, bool) {
	if pkt.Proto != netsim.ProtoUDP || pkt.DstPort != c.DataPort {
		return "", 0, false
	}
	req, ok := pkt.Payload.(*GetRequest)
	if !ok {
		return "", 0, false
	}
	return req.Key, req.ReqID + uint64(req.Attempt)<<48, true
}

// MakeReply synthesizes the GetReply a storage node would have sent. It
// arrives on the client's UDP reply socket instead of its TCP reply
// stream — the switch cannot speak a stream protocol — which is why
// Client.Start also listens for datagram replies. The reply is written
// into the room the request carries, as a storage node's is.
func (c SwitchCodec) MakeReply(pkt *netsim.Packet, value any, size int, ver uint64) switchcache.Reply {
	req := pkt.Payload.(*GetRequest)
	rep := req.answer()
	*rep = GetReply{ReqID: req.ReqID, Found: true, Value: value, Size: size, Ver: ver}
	return switchcache.Reply{
		Payload: rep,
		Size:    size + replyOverhead,
		DstPort: req.ClientPort,
	}
}

// ParsePut returns the i-th prepare of a put transfer: the final
// multicast chunk of a PutRequest (one op) or a BatchPutRequest (one per
// packed op). Only the last chunk carries the message, so each traversal
// marks once; unicast repair retransmissions re-deliver the same message
// and merge into the same marks. The operation identity is the put's
// reqKey — stable across client retries, recoverable from a committed
// object's version — so the commit hooks can find the mark; the attempt
// scopes an abort to the marks it may retire.
func (c SwitchCodec) ParsePut(pkt *netsim.Packet, i int) (string, any, int, bool) {
	if pkt.Proto != netsim.ProtoUDP {
		return "", nil, 0, false
	}
	data, _ := transport.ChunkData(pkt)
	switch m := data.(type) {
	case *PutRequest:
		if i == 0 {
			return m.Key, m.key(), m.Attempt, true
		}
	case *BatchPutRequest:
		if i < len(m.Ops) {
			return m.Ops[i].Key, m.Ops[i].key(), m.Ops[i].Attempt, true
		}
	}
	return "", nil, 0, false
}
