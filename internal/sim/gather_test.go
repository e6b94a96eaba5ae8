package sim

import "testing"

// TestGatherOutlivesItsWakingJoiners: a gather is recycled only once its
// last joiner left it. Each round's leader opens the next gather as its End
// returns, before the joiners End woke resume; each still returns at its
// own gather's End, and a warm round allocates nothing. A crash's Wake ends
// a gather early: its joiners return, and its leader holds it until End.
func TestGatherOutlivesItsWakingJoiners(t *testing.T) {
	const joiners, window = 3, Time(100)
	s := New(1)
	defer s.Shutdown()
	var free Free[Gather[struct{}]]
	var open *Gather[struct{}]
	var rets []Time // every caller's return, in order
	var kicks [joiners + 1]*Queue[struct{}]
	for i := range kicks {
		kicks[i] = NewQueue[struct{}](s)
		// Each round caller 0 leads and caller i joins i tenths of a window
		// later, by the prepare gather's rule: join, or open, linger, close.
		s.Spawn("caller", func(p *Proc) {
			for {
				if kicks[i].Pop(p); i > 0 { // the leader must not yield
					p.Sleep(Time(i) * window / 10)
				}
				if g := open; g != nil {
					g.Join(p)
				} else {
					g = OpenGather(s, &free)
					open = g
					p.Sleep(window)
					open = nil
					p.Sleep(window)
					g.End()
				}
				rets = append(rets, p.Now())
			}
		})
	}
	// run kicks n rounds back to back; the i-th return must come at(i) in.
	run := func(n int, at func(i int) Time) {
		base := s.Now()
		rets = rets[:0]
		for range n {
			for _, q := range kicks {
				q.Push(struct{}{})
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		ok := len(rets) == n*(joiners+1)
		for i, got := range rets {
			ok = ok && got == base+at(i)
		}
		if !ok {
			t.Fatalf("%d rounds from %v returned at %v", n, base, rets)
		}
	}
	// Round r's callers all return at its End, 2(r+1) windows in.
	atEnd := func(i int) Time { return Time(2*(i/(joiners+1)+1)) * window }
	run(8, atEnd)
	if n := testing.AllocsPerRun(100, func() { run(1, atEnd) }); n != 0 || free.Len() == 0 {
		t.Fatalf("a warm round allocates %v objects, with %d gathers free; want 0, some", n, free.Len())
	}
	pooled, held := free.Len(), 0
	s.At(s.Now()+window/2, func() { open.Wake(); open = nil }) // a crash mid-linger
	s.At(s.Now()+window, func() { held = pooled - free.Len() })
	run(1, func(i int) Time {
		if i < joiners {
			return window / 2
		}
		return 2 * window
	})
	if held != 1 || free.Len() != pooled {
		t.Fatalf("%d gathers held between a crash and its leader's End, %d free after; want 1, %d", held, free.Len(), pooled)
	}
}
