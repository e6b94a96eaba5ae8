package main

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/checker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The tracer rebuilds per-op virtual-time spans from outside the system:
// a Network.AddTap callback sees every packet at every host NIC, and the
// recorder stamps op start and end around Client.Get/Put. Six stamps cut
// an op into consecutive spans, so the spans of an op sum to its latency
// exactly:
//
//	get   start -client.send-> first client tx -net.request-> serving
//	      node rx -node.service-> that node's first reply tx -net.reply->
//	      last reply rx at the client -client.recv-> end
//	put   start -client.send-> first client tx -put.fanout-> last replica
//	      rx of the final data chunk -put.commit-> primary's first reply
//	      tx -net.reply-> last reply rx -client.recv-> end
//	a get the switch cache answers never reaches a node: first client tx
//	      -switch.cache_reply-> reply rx replaces the middle three spans.
//
// Host NICs are the only observation points the tap offers, so time in
// switches and on links is inside the net.* spans.
//
// Closed-loop clients have one op in flight each, so packets correlate by
// client address inside the op's window. The traffic engine keeps many
// gets in flight per gateway and is not ours to wrap: there an op starts
// at the gateway's tx of the GetRequest and ends at its rx of the reply
// (which is where the engine itself stamps latency), and packets
// correlate by ReqID.

const (
	stStart = iota
	stFirstTx
	stMid // get: serving node rx of the request; put: fan-out complete
	stReplyTx
	stLastRx
	stEnd
	numStamps
)

// tracedOp is one operation's stamps.
type tracedOp struct {
	Kind     checker.OpKind
	CacheHit bool
	Node     int // serving node (gets)
	At       [numStamps]sim.Time
	has      uint8
}

func (o *tracedOp) set(i int, t sim.Time) { o.At[i] = t; o.has |= 1 << i }
func (o *tracedOp) got(i int) bool        { return o.has&(1<<i) != 0 }

// span names, in stamp order, for each shape of op.
var (
	getSpans   = []string{"client.send", "net.request", "node.service", "net.reply", "client.recv"}
	hitSpans   = []string{"client.send", "switch.cache_reply", "client.recv"}
	putSpans   = []string{"client.send", "put.fanout", "put.commit", "net.reply", "client.recv"}
	opTypeName = map[checker.OpKind]string{checker.OpGet: "get", checker.OpPut: "put"}
)

// spansOf lists every span an op type can report.
var spansOf = map[string][]string{
	"get": append(append([]string{}, getSpans...), "switch.cache_reply"),
	"put": putSpans,
}

// spans cuts the op into named durations; ok is false when a stamp is
// missing or out of order.
func (o *tracedOp) spans() (names []string, durs []sim.Time, ok bool) {
	var cuts []int
	switch {
	case o.CacheHit:
		names, cuts = hitSpans, []int{stStart, stFirstTx, stLastRx, stEnd}
	case o.Kind == checker.OpGet:
		names, cuts = getSpans, []int{stStart, stFirstTx, stMid, stReplyTx, stLastRx, stEnd}
	default:
		names, cuts = putSpans, []int{stStart, stFirstTx, stMid, stReplyTx, stLastRx, stEnd}
	}
	for i, c := range cuts {
		if !o.got(c) || (i > 0 && o.At[c] < o.At[cuts[i-1]]) {
			return nil, nil, false
		}
		if i > 0 {
			durs = append(durs, o.At[c]-o.At[cuts[i-1]])
		}
	}
	return names, durs, true
}

type role uint8

const (
	roleClient role = iota + 1
	roleNode
	roleGateway
)

type device struct {
	role role
	idx  int
}

type tracer struct {
	open bool
	devs map[string]device
	byIP map[netsim.IP]int // closed loop: client address -> client index

	cur      []*tracedOp          // closed loop: each client's op in flight
	inflight map[uint64]*tracedOp // open loop: by ReqID

	done       []tracedOp
	incomplete int // ops with a stamp missing or out of order
	mismatched int // ops whose spans do not sum to the reported latency
}

func newTracer(d *cluster.NICE, open bool) *tracer {
	t := &tracer{
		open: open, devs: map[string]device{}, byIP: map[netsim.IP]int{},
		cur: make([]*tracedOp, len(d.Clients)), inflight: map[uint64]*tracedOp{},
	}
	for i, st := range d.Stacks {
		t.devs[st.Host().DeviceName()] = device{roleNode, i}
	}
	if open {
		for i, g := range d.Gateways {
			t.devs[g.Stack.Host().DeviceName()] = device{roleGateway, i}
		}
		return t
	}
	for i, st := range d.CStacks {
		t.devs[st.Host().DeviceName()] = device{roleClient, i}
		t.byIP[st.IP()] = i
	}
	return t
}

// begin and end are the recorder's stamps around Client.Get/Put.
func (t *tracer) begin(c int, kind checker.OpKind, at sim.Time) {
	o := &tracedOp{Kind: kind}
	o.set(stStart, at)
	t.cur[c] = o
}

func (t *tracer) end(c int, at, reported sim.Time, ok bool) {
	o := t.cur[c]
	t.cur[c] = nil
	o.set(stEnd, at)
	if ok {
		t.finish(o, reported)
	}
}

func (t *tracer) finish(o *tracedOp, reported sim.Time) {
	_, durs, ok := o.spans()
	if !ok {
		t.incomplete++
		return
	}
	var sum sim.Time
	for _, d := range durs {
		sum += d
	}
	if sum != reported {
		t.mismatched++
		return
	}
	t.done = append(t.done, *o)
}

// replyReqID digs the ReqID out of a stream segment carrying a GetReply.
// The segment type is transport's own, so this looks for any interface
// field holding a *core.GetReply rather than naming the field.
func replyReqID(payload any) (uint64, bool) {
	v := reflect.ValueOf(payload)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return 0, false
	}
	s := v.Elem()
	for i := 0; i < s.NumField(); i++ {
		f := s.Field(i)
		if f.Kind() != reflect.Interface || f.IsNil() {
			continue
		}
		if e := f.Elem(); e.Type() == getReplyType && !e.IsNil() {
			return e.Elem().FieldByName("ReqID").Uint(), true
		}
	}
	return 0, false
}

var getReplyType = reflect.TypeOf((*core.GetReply)(nil))

func (t *tracer) tap(ev netsim.TraceEvent) {
	dv, ok := t.devs[ev.Device]
	if !ok {
		return
	}
	tx := ev.Dir == "tx"
	pkt := &ev.Pkt
	switch {
	case t.open:
		t.openEvent(dv, tx, ev.At, pkt)
	case dv.role == roleClient:
		o := t.cur[dv.idx]
		if o == nil {
			return
		}
		if tx {
			if !o.got(stFirstTx) && pkt.Proto == netsim.ProtoUDP && pkt.DstPort == cluster.DataPort {
				o.set(stFirstTx, ev.At)
			}
			return
		}
		if _, hit := pkt.Payload.(*core.GetReply); hit {
			o.CacheHit = true
			o.set(stLastRx, ev.At)
		} else if pkt.Proto == netsim.ProtoTCP {
			o.set(stLastRx, ev.At)
		}
	case dv.role == roleNode && !tx:
		if pkt.Proto != netsim.ProtoUDP || pkt.DstPort != cluster.DataPort {
			return
		}
		if req, ok := pkt.Payload.(*core.GetRequest); ok {
			if o := t.clientOp(req.Client); o != nil && o.Kind == checker.OpGet && !o.got(stMid) {
				o.set(stMid, ev.At)
				o.Node = dv.idx
			}
		} else if data, ok := transport.ChunkPayload(pkt.Payload); ok {
			// Only a transfer's final chunk carries the message, so this
			// is a replica holding the whole object.
			if req, ok := data.(*core.PutRequest); ok {
				if o := t.clientOp(req.Client); o != nil && o.Kind == checker.OpPut && !o.got(stReplyTx) {
					o.set(stMid, ev.At)
				}
			}
		}
	case dv.role == roleNode && tx:
		if pkt.Proto != netsim.ProtoTCP {
			return
		}
		o := t.clientOp(pkt.DstIP)
		if o == nil || !o.got(stMid) || o.got(stReplyTx) {
			return
		}
		if o.Kind == checker.OpPut || o.Node == dv.idx {
			o.set(stReplyTx, ev.At)
		}
	}
}

func (t *tracer) clientOp(ip netsim.IP) *tracedOp {
	if c, ok := t.byIP[ip]; ok {
		return t.cur[c]
	}
	return nil
}

func (t *tracer) openEvent(dv device, tx bool, at sim.Time, pkt *netsim.Packet) {
	switch {
	case dv.role == roleGateway && tx:
		if req, ok := pkt.Payload.(*core.GetRequest); ok {
			o := &tracedOp{Kind: checker.OpGet}
			o.set(stStart, at)
			o.set(stFirstTx, at)
			t.inflight[req.ReqID] = o
		}
	case dv.role == roleNode && !tx:
		if req, ok := pkt.Payload.(*core.GetRequest); ok {
			if o := t.inflight[req.ReqID]; o != nil && !o.got(stMid) {
				o.set(stMid, at)
				o.Node = dv.idx
			}
		}
	case dv.role == roleNode && tx:
		if pkt.Proto != netsim.ProtoTCP {
			return
		}
		if id, ok := replyReqID(pkt.Payload); ok {
			if o := t.inflight[id]; o != nil && !o.got(stReplyTx) {
				o.set(stReplyTx, at)
			}
		}
	case dv.role == roleGateway && !tx:
		var id uint64
		var ok, hit bool
		if rep, isRep := pkt.Payload.(*core.GetReply); isRep {
			id, ok, hit = rep.ReqID, true, true
		} else if pkt.Proto == netsim.ProtoTCP {
			id, ok = replyReqID(pkt.Payload)
		}
		o := t.inflight[id]
		if !ok || o == nil {
			return
		}
		delete(t.inflight, id)
		o.CacheHit = hit
		o.set(stLastRx, at)
		o.set(stEnd, at)
		t.finish(o, at-o.At[stStart])
	}
}

// spanStat summarises one span over the ops that have it. Share is the
// span's part of the summed latency of every op of that type, so the
// shares of an op type sum to 1.
type spanStat struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_us"`
	Tail    float64 `json:"tail_us"`
	TailPct float64 `json:"tail_percentile"`
	Share   float64 `json:"share"`
}

type spanTable struct {
	Stats      map[string]map[string]spanStat `json:"spans"` // op type -> span
	Traced     int                            `json:"ops_traced"`
	Incomplete int                            `json:"ops_incomplete"`
	Mismatched int                            `json:"ops_mismatched"`
	ops        []tracedOp
}

func (t *tracer) table() *spanTable {
	tb := &spanTable{
		Stats: map[string]map[string]spanStat{}, Traced: len(t.done),
		Incomplete: t.incomplete + len(t.inflight), Mismatched: t.mismatched, ops: t.done,
	}
	durs := map[string]map[string][]float64{}
	total := map[string]float64{}
	for i := range t.done {
		o := &t.done[i]
		ty := opTypeName[o.Kind]
		names, ds, _ := o.spans()
		if durs[ty] == nil {
			durs[ty] = map[string][]float64{}
		}
		for j, n := range names {
			durs[ty][n] = append(durs[ty][n], micros(ds[j]))
			total[ty] += micros(ds[j])
		}
	}
	for ty, byName := range durs {
		tb.Stats[ty] = map[string]spanStat{}
		for n, vs := range byName {
			sort.Float64s(vs)
			var sum float64
			for _, v := range vs {
				sum += v
			}
			tp := tailPercentile(len(vs))
			tb.Stats[ty][n] = spanStat{
				N: len(vs), P50: percentile(vs, 50), Tail: percentile(vs, tp),
				TailPct: tp, Share: ratio(sum, total[ty]),
			}
		}
	}
	return tb
}

// export is the -trace-out document: every traced op's spans.
func (tb *spanTable) export(workload string, seed int64) any {
	type opOut struct {
		Type    string  `json:"type"`
		Hit     bool    `json:"cache_hit,omitempty"`
		Node    int     `json:"node"`
		StartNs int64   `json:"start_ns"`
		DursNs  []int64 `json:"spans_ns"` // in the order of shapes[type or "get-hit"]
	}
	ops := make([]opOut, 0, len(tb.ops))
	for i := range tb.ops {
		o := &tb.ops[i]
		_, durs, _ := o.spans()
		out := opOut{Type: opTypeName[o.Kind], Hit: o.CacheHit, Node: o.Node, StartNs: int64(o.At[stStart])}
		for _, d := range durs {
			out.DursNs = append(out.DursNs, int64(d))
		}
		ops = append(ops, out)
	}
	return map[string]any{
		"workload": workload, "seed": seed, "summary": tb,
		"shapes": map[string][]string{"get": getSpans, "get-hit": hitSpans, "put": putSpans},
		"ops":    ops,
	}
}

// check fails when the reconstruction lost ops: every successful op must
// cut into ordered spans that sum to the latency the client reported.
func (tb *spanTable) check() error {
	if tb.Mismatched > 0 {
		return fmt.Errorf("trace: spans of %d ops do not sum to their latency", tb.Mismatched)
	}
	if tb.Incomplete*100 > tb.Traced {
		return fmt.Errorf("trace: %d of %d ops could not be cut into spans", tb.Incomplete, tb.Traced+tb.Incomplete)
	}
	return nil
}

// matches checks the open-loop reconstruction against the engine's own
// report: same completions, same latency percentiles.
func (t *tracer) matches(res cluster.TrafficResult) error {
	lat := make([]float64, 0, len(t.done))
	for i := range t.done {
		lat = append(lat, float64(t.done[i].At[stEnd]-t.done[i].At[stStart]))
	}
	sort.Float64s(lat)
	if int64(len(lat)) != res.Completed {
		return fmt.Errorf("trace: rebuilt %d gets, engine completed %d", len(lat), res.Completed)
	}
	for _, c := range []struct {
		p    float64
		want sim.Time
	}{{50, res.P50}, {99, res.P99}} {
		if got := percentile(lat, c.p); got-float64(c.want) > 2 || float64(c.want)-got > 2 {
			return fmt.Errorf("trace: rebuilt p%v %vns, engine reports %vns", c.p, got, float64(c.want))
		}
	}
	return nil
}
