package kvstore

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// nicStore is a store on a node host cabled straight to a client host
// over link, with the store's NIC set to the node's port.
type nicStore struct {
	s            *sim.Simulator
	st           *Store
	node, client *transport.Stack
}

func newNICStore(disk DiskConfig, link netsim.LinkConfig) *nicStore {
	s := sim.New(1)
	nw := netsim.NewNetwork(s)
	node := nw.NewHost("node", netsim.IPv4(10, 0, 0, 1))
	client := nw.NewHost("client", netsim.IPv4(10, 0, 0, 2))
	nw.Connect(node.Port(), client.Port(), link)
	st := New(s, disk)
	st.SetNIC(node.Port())
	return &nicStore{s: s, st: st, node: transport.NewStack(node), client: transport.NewStack(client)}
}

func (n *nicStore) run(t *testing.T) {
	t.Helper()
	if err := n.s.Run(); err != nil {
		t.Fatal(err)
	}
	n.s.Shutdown()
}

// read spawns a reader of key and reports when its Get returned into
// *woke; readers reach the device in the order they were spawned.
func (n *nicStore) read(key string, woke *sim.Time) {
	n.s.Spawn("read-"+key, func(p *sim.Proc) {
		if _, ok := n.st.Get(p, key); !ok {
			panic("missing " + key)
		}
		*woke = p.Now()
	})
}

// TestReadOfOneSegmentIsUse: a read of at most one MSS wakes its reader,
// and frees the device for the next user, at exactly the times a whole
// Use of the device gives.
func TestReadOfOneSegmentIsUse(t *testing.T) {
	for _, size := range []int{1, 1024, transport.MSS} {
		n := newNICStore(SSD(), netsim.Gbps(1, time.Microsecond))
		n.st.Apply(&Object{Key: "a", Size: size})
		n.st.Apply(&Object{Key: "b", Size: 512})
		var a, b sim.Time
		n.read("a", &a)
		n.read("b", &b)
		n.run(t)
		d := xferTime(SSD().ReadLatency, SSD().ReadBps, size)
		if a != d {
			t.Errorf("%d B read woke at %v, want the whole read %v", size, a, d)
		}
		if want := d + xferTime(SSD().ReadLatency, SSD().ReadBps, 512); b != want {
			t.Errorf("after a %d B read, the next read woke at %v, want %v", size, b, want)
		}
	}
}

// TestLargeReadWakesAtItsFirstSegment: a 1 MB read on a 1 Gbps NIC, which
// drains slower than the SSD reads, resumes its reader once the first
// segment is read; the device stays booked for the whole read, so a read
// issued right after it starts only once all of it is done.
func TestLargeReadWakesAtItsFirstSegment(t *testing.T) {
	const size = 1 << 20
	disk := SSD()
	n := newNICStore(disk, netsim.Gbps(1, time.Microsecond))
	n.st.Apply(&Object{Key: "big", Size: size})
	n.st.Apply(&Object{Key: "next", Size: 512})
	var big, next sim.Time
	n.read("big", &big)
	n.read("next", &next)
	n.run(t)
	if want := xferTime(disk.ReadLatency, disk.ReadBps, transport.MSS); big != want {
		t.Errorf("1 MB read woke at %v, want ReadLatency + MSS/ReadBps = %v", big, want)
	}
	whole := xferTime(disk.ReadLatency, disk.ReadBps, size)
	if want := whole + xferTime(disk.ReadLatency, disk.ReadBps, 512); next != want {
		t.Errorf("the read behind it woke at %v, want %v (after the whole 1 MB read, %v)", next, want, whole)
	}
}

// TestStreamedReplyNeverOvertakesTheDisk: the node replies with what Get
// returned the moment it returns. Whether the NIC is faster than the disk
// (10 Gbps) or the disk is slowed ×35 as the slowdisk fault does, the
// client receives the reply's last byte no earlier than the device
// finished reading it plus one segment's serialization — and, because the
// read streams, well before a store-and-forward reply would land.
func TestStreamedReplyNeverOvertakesTheDisk(t *testing.T) {
	const size = 1 << 20
	slow := SSD()
	slow.ReadLatency *= 35
	slow.ReadBps /= 35
	for _, c := range []struct {
		name string
		disk DiskConfig
		link netsim.LinkConfig
	}{
		{"10Gbps", SSD(), netsim.Gbps(10, time.Microsecond)},
		{"slowdisk", slow, netsim.Gbps(1, time.Microsecond)},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := newNICStore(c.disk, c.link)
			n.st.Apply(&Object{Key: "big", Size: size})
			ln := n.client.MustListen(5000)
			var readAt, woke, lastByte sim.Time
			n.s.Spawn("client", func(p *sim.Proc) {
				conn, ok := ln.Accept(p)
				if !ok {
					return
				}
				if m, ok := conn.Recv(p); ok && m.Size == size {
					lastByte = p.Now()
				}
			})
			n.s.Spawn("node", func(p *sim.Proc) {
				conn, err := n.node.Dial(p, n.client.IP(), 5000)
				if err != nil {
					t.Error(err)
					return
				}
				readAt = p.Now()
				obj, _ := n.st.Get(p, "big")
				woke = p.Now()
				if err := conn.Send(p, obj.Value, obj.Size); err != nil {
					t.Error(err)
				}
			})
			n.run(t)
			if lastByte == 0 {
				t.Fatal("the reply never arrived")
			}
			bitTime := func(bytes int) sim.Time {
				return sim.Time(float64(bytes*8) / c.link.BandwidthBps * float64(time.Second))
			}
			readEnd := readAt + xferTime(c.disk.ReadLatency, c.disk.ReadBps, size)
			if floor := readEnd + bitTime(transport.MSS+netsim.TCPHeaderSize); lastByte < floor {
				t.Errorf("last byte at %v, before the device read it (%v) plus one segment (%v)", lastByte, readEnd, floor)
			}
			if woke >= readEnd {
				t.Errorf("the reader woke at %v, not before the read ended at %v", woke, readEnd)
			}
			if stored := readEnd + bitTime(size); lastByte >= stored {
				t.Errorf("last byte at %v, no earlier than a store-and-forward reply (%v)", lastByte, stored)
			}
		})
	}
}

// TestEvictedReadStreams: the durable engine's read of an evicted key
// feeds a reply too, so it streams like Store.Get: the reader resumes at
// the first segment, and the device stays booked for the whole read.
func TestEvictedReadStreams(t *testing.T) {
	const size = 1 << 20
	disk := SSD()
	n := newNICStore(disk, netsim.Gbps(1, time.Microsecond))
	n.st = NewDurable(n.s, disk, storage.Config{Shards: 1, MemoryBudget: size})
	n.st.SetNIC(n.node.Host().Port())
	n.st.Apply(&Object{Key: "big", Size: size, Version: ts(1, 1)})
	n.st.Apply(&Object{Key: "evictor", Size: size, Version: ts(1, 2)})
	var woke, next sim.Time
	n.read("big", &woke)
	n.s.Spawn("write", func(p *sim.Proc) {
		n.st.AppendLog(p, LogRecord{Obj: Object{Key: "w", Size: 512 - 64}}, 0)
		next = p.Now()
	})
	n.run(t)
	if ss, _ := n.st.StorageStats(); ss.DiskReads != 1 {
		t.Fatalf("disk reads = %d, want the one evicted read", ss.DiskReads)
	}
	if want := xferTime(disk.ReadLatency, disk.ReadBps, transport.MSS); woke != want {
		t.Errorf("evicted 1 MB read woke at %v, want %v", woke, want)
	}
	whole := xferTime(disk.ReadLatency, disk.ReadBps, size)
	if want := whole + xferTime(disk.WriteLatency, disk.WriteBps, 512); next != want {
		t.Errorf("the write behind it finished at %v, want %v", next, want)
	}
}
