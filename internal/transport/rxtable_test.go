package transport

import (
	"math/rand"
	"testing"

	"repro/internal/netsim"
)

// TestRxTableMatchesMap drives the transfer index and a map with the same
// random sets, deletes and lookups over three senders' transfers, on a
// table left to grow and on one held at 16 slots, where every probe run
// wraps and backward shifts cross the end of the array.
func TestRxTableMatchesMap(t *testing.T) {
	states := make([]rxState, 4)
	for _, c := range []struct {
		name string
		tab  rxTable
		live int // most entries held at once (0: no bound)
	}{
		{"growing", rxTable{}, 0},
		{"forced small", rxTable{slots: make([]rxSlot, 16)}, 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			tab := c.tab
			oracle := make(map[xferKey]*rxState)
			for op := 0; op < 20000; op++ {
				i := rng.Intn(3000)
				k := xferKey{from: netsim.IP(1 + i%3), xfer: uint64(1 + i/3)}
				switch r := rng.Intn(10); {
				case r < 5:
					if _, held := oracle[k]; held || c.live == 0 || len(oracle) < c.live {
						var st *rxState // a finished transfer, or one in flight
						if j := rng.Intn(len(states) + 1); j < len(states) {
							st = &states[j]
						}
						tab.set(k, st)
						oracle[k] = st
					}
				case r < 8:
					tab.del(k)
					delete(oracle, k)
				default:
					got, ok := tab.get(k)
					if want, wantOK := oracle[k]; ok != wantOK || got != want {
						t.Fatalf("op %d: get(%v) = %p,%v, want %p,%v", op, k, got, ok, want, wantOK)
					}
				}
				if op%97 == 0 {
					if tab.n != len(oracle) {
						t.Fatalf("op %d: table counts %d entries, want %d", op, tab.n, len(oracle))
					}
					for k, want := range oracle {
						if got, ok := tab.get(k); !ok || got != want {
							t.Fatalf("op %d: get(%v) = %p,%v, want %p", op, k, got, ok, want)
						}
					}
				}
			}
			if c.live > 0 && len(tab.slots) != 16 {
				t.Fatalf("the forced-small table grew to %d slots", len(tab.slots))
			}
		})
	}
}
