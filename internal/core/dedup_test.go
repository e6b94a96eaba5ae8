package core

import (
	"math/rand"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/netsim"
)

// checkDedupTable verifies the table against the oracle, entry count
// included, and the linear-probing invariant backward shift maintains:
// no empty slot between an entry's home and the slot it sits in.
func checkDedupTable(t *testing.T, tab *dedupTable, oracle map[reqKey]kvstore.Timestamp) {
	t.Helper()
	if tab.n != len(oracle) {
		t.Fatalf("table holds %d entries, oracle %d", tab.n, len(oracle))
	}
	for k, want := range oracle {
		if got, ok := tab.get(k); !ok || got != want {
			t.Fatalf("get(%v) = %v,%v, want %v", k, got, ok, want)
		}
	}
	mask := len(tab.slots) - 1
	occupied := 0
	for i, ts := range tab.slots {
		if ts.IsZero() {
			continue
		}
		occupied++
		for j := tab.home(dedupKey(tsKey(ts))); j != i; j = (j + 1) & mask {
			if tab.slots[j].IsZero() {
				t.Fatalf("slot %d's entry %v is unreachable: empty slot %d on its probe path", i, ts, j)
			}
		}
	}
	if occupied != tab.n {
		t.Fatalf("%d slots occupied, %d entries counted", occupied, tab.n)
	}
}

// TestDedupTableMatchesMap drives the dedup table and a map with the same
// random inserts, overwrites, deletes and lookups: once growing freely
// from empty, and once held at 16 slots, where an insert past 8 live
// entries first evicts the oldest, as the dedup FIFO does — at half load
// it never grows — so probe runs wrap past the end of the slot array and
// deletions shift entries back across it.
func TestDedupTableMatchesMap(t *testing.T) {
	for _, c := range []struct {
		name string
		tab  dedupTable
		live int // most entries held at once (0: no bound)
	}{
		{"growing", dedupTable{}, 0},
		{"forced small", dedupTable{slots: make([]kvstore.Timestamp, 16)}, 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			tab := c.tab
			oracle := make(map[reqKey]kvstore.Timestamp)
			var fifo []reqKey // insertion order, when live bounds the table
			for op := 0; op < 20000; op++ {
				i := rng.Intn(3000)
				k := reqKey{Client: netsim.IP(1 + i%3), Seq: uint64(i / 3)}
				switch r := rng.Intn(10); {
				case r < 5:
					if _, held := oracle[k]; !held && c.live > 0 {
						for len(oracle) >= c.live {
							old := fifo[0]
							fifo = fifo[1:]
							if _, ok := oracle[old]; ok {
								tab.del(old)
								delete(oracle, old)
							}
						}
						fifo = append(fifo, k)
					}
					ts := kvstore.Timestamp{Primary: 7, PrimarySeq: uint64(op), Client: k.Client, ClientSeq: k.Seq}
					tab.put(ts)
					oracle[k] = ts
				case r < 8:
					tab.del(k)
					delete(oracle, k)
				default:
					got, ok := tab.get(k)
					if want, wantOK := oracle[k]; ok != wantOK || got != want {
						t.Fatalf("op %d: get(%v) = %v,%v, want %v,%v", op, k, got, ok, want, wantOK)
					}
				}
				if op%97 == 0 {
					checkDedupTable(t, &tab, oracle)
				}
			}
			checkDedupTable(t, &tab, oracle)
			if len(tab.slots) > dedupMaxSlots || c.tab.slots != nil && len(tab.slots) != len(c.tab.slots) {
				t.Fatalf("table grew from %d to %d slots", len(c.tab.slots), len(tab.slots))
			}
		})
	}

	t.Run("backward shift across the end", func(t *testing.T) {
		tab := dedupTable{slots: make([]kvstore.Timestamp, 16)}
		// Three keys whose home is the last slot: they sit in 15, 0 and 1.
		var run []kvstore.Timestamp
		for seq := uint64(0); len(run) < 3; seq++ {
			ts := kvstore.Timestamp{Primary: 7, PrimarySeq: 1, Client: 1, ClientSeq: seq}
			if tab.home(dedupKey(tsKey(ts))) == 15 {
				run = append(run, ts)
			}
		}
		oracle := make(map[reqKey]kvstore.Timestamp)
		for _, ts := range run {
			tab.put(ts)
			oracle[tsKey(ts)] = ts
		}
		if tab.slots[15] != run[0] || tab.slots[0] != run[1] || tab.slots[1] != run[2] {
			t.Fatalf("probe run not wrapped: slots 15,0,1 = %v %v %v", tab.slots[15], tab.slots[0], tab.slots[1])
		}
		tab.del(tsKey(run[0]))
		delete(oracle, tsKey(run[0]))
		if tab.slots[15] != run[1] || tab.slots[0] != run[2] || !tab.slots[1].IsZero() {
			t.Fatalf("not shifted back across the end: slots 15,0,1 = %v %v %v", tab.slots[15], tab.slots[0], tab.slots[1])
		}
		checkDedupTable(t, &tab, oracle)
	})
}
