package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// cacheTestOpts is a small deployment with an aggressive detector so
// installs happen within a short test run.
func cacheTestOpts(seed int64) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Nodes = 4
	opts.Clients = 2
	opts.R = 3
	opts.Cache = true
	opts.CacheCapacity = 32
	opts.CacheHotThreshold = 3
	return opts
}

// TestCacheServesHotKeyAtSwitch drives repeated gets at one key and
// checks the detector installs it and subsequent gets are answered by
// the switch with the correct value.
func TestCacheServesHotKeyAtSwitch(t *testing.T) {
	d := NewNICE(cacheTestOpts(1))
	defer d.Close()
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	var failure error
	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		if _, err := d.Clients[0].Put(p, "hot", "the-value", 100); err != nil {
			failure = err
			return
		}
		for i := 0; i < 40; i++ {
			res, err := d.Clients[0].Get(p, "hot")
			if err != nil {
				failure = err
				return
			}
			if !res.Found || res.Value != "the-value" {
				failure = fmt.Errorf("get %d: found=%v value=%v", i, res.Found, res.Value)
				return
			}
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if failure != nil {
		t.Fatal(failure)
	}
	st := d.Cache.Stats()
	if st.Installs == 0 {
		t.Fatalf("detector never installed the hot key: %+v (mgr %+v)", st, d.CacheMgr.Stats())
	}
	if st.Hits == 0 {
		t.Fatalf("no get was answered at the switch: %+v", st)
	}
	if !d.Cache.Contains("hot") {
		t.Fatal("hot key not resident after the run")
	}
}

// TestCacheInvalidationOrdering is the staleness check: a get issued
// after a put's commit ack must never return the overwritten value, even
// while the detector keeps reinstalling the key between writes. The
// writer bumps an integer value; the reader snapshots the last-acked
// version before each get and requires the result to be at least it.
func TestCacheInvalidationOrdering(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed%d-invalidate", seed), func(t *testing.T) {
			d := NewNICE(cacheTestOpts(seed))
			defer d.Close()
			if err := d.Settle(); err != nil {
				t.Fatal(err)
			}

			const rounds = 30
			acked := 0 // last put version whose ack the writer saw
			var failure error
			g := sim.NewGroup(d.Sim)

			g.Add(1)
			d.Sim.Spawn("writer", func(p *sim.Proc) {
				defer g.Done()
				for i := 1; i <= rounds; i++ {
					if _, err := d.Clients[0].Put(p, "hot", i, 100); err != nil {
						failure = err
						return
					}
					acked = i
					// Give the detector time to reinstall, so gets hit
					// the cache between invalidating writes.
					p.Sleep(5 * time.Millisecond)
				}
			})

			g.Add(1)
			d.Sim.Spawn("reader", func(p *sim.Proc) {
				defer g.Done()
				for acked < rounds && failure == nil {
					before := acked
					res, err := d.Clients[1].Get(p, "hot")
					if err != nil {
						failure = err
						return
					}
					if !res.Found {
						continue // first put not committed yet
					}
					if got := res.Value.(int); got < before {
						failure = fmt.Errorf("stale read: got version %d after version %d was acked", got, before)
						return
					}
				}
			})

			d.Sim.Spawn("join", func(p *sim.Proc) { g.Wait(p); d.Sim.Stop() })
			if err := d.Sim.Run(); err != nil {
				t.Fatal(err)
			}
			if failure != nil {
				t.Fatal(failure)
			}
			st := d.Cache.Stats()
			if st.Hits == 0 {
				t.Fatalf("race never exercised the cache: %+v", st)
			}
			if st.Invalidations == 0 {
				t.Fatalf("the write-through never invalidated: %+v", st)
			}
		})
	}
}

// TestCacheSweepShape checks the experiment's headline claim: at high
// skew the in-switch cache beats load balancing on hot-key get
// throughput, because LB is bounded by R servers while the cache answers
// in the fabric.
func TestCacheSweepShape(t *testing.T) {
	figs, err := CacheSweep(Params{Ops: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	theta := figs[0]
	for _, x := range []string{"0.99", "1.20"} {
		cache, ok1 := theta.SeriesValue("NICEKV+cache", x)
		lb, ok2 := theta.SeriesValue("NICEKV+LB", x)
		if !ok1 || !ok2 {
			t.Fatalf("missing series at theta %s", x)
		}
		if cache <= lb {
			t.Errorf("theta %s: cache %.0f gets/s not above LB %.0f", x, cache, lb)
		}
	}
	// Sanity: every cell produced traffic.
	for _, f := range figs {
		for _, s := range f.Series {
			for _, pt := range s.Points {
				if pt.Value <= 0 && f.YLabel[:4] == "gets" {
					t.Errorf("%s: %s at %s is %v", f.ID, s.System, pt.X, pt.Value)
				}
			}
		}
	}
}

// TestCacheSweepDeterminism requires the parallel grid to reproduce the
// sequential sweep bit for bit (the RunCells contract).
func TestCacheSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps")
	}
	pr := Params{Ops: 20, Seed: 9}
	par, err := CacheSweep(pr)
	if err != nil {
		t.Fatal(err)
	}
	pr.Seq = true
	seq, err := CacheSweep(pr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range par {
		a, b := par[i], seq[i]
		for si := range a.Series {
			for pi := range a.Series[si].Points {
				pa, pb := a.Series[si].Points[pi], b.Series[si].Points[pi]
				if pa != pb {
					t.Fatalf("%s: %s at %s: parallel %v != sequential %v",
						a.ID, a.Series[si].System, pa.X, pa.Value, pb.Value)
				}
			}
		}
	}
}
