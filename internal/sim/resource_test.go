package sim

import (
	"testing"
	"time"
)

func TestResourceSerializesFIFO(t *testing.T) {
	s := New(1)
	r := NewResource(s)
	var done []struct {
		name string
		at   Time
	}
	use := func(name string, arrive, demand Time) {
		s.Spawn(name, func(p *Proc) {
			p.Sleep(arrive)
			r.Use(p, demand)
			done = append(done, struct {
				name string
				at   Time
			}{name, p.Now()})
		})
	}
	use("a", 0, ms(10))
	use("b", ms(1), ms(10)) // queues behind a
	use("c", ms(25), ms(5)) // arrives after idle gap
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 {
		t.Fatalf("completions = %d", len(done))
	}
	if done[0].name != "a" || done[0].at != ms(10) {
		t.Fatalf("a done at %v", done[0].at)
	}
	if done[1].name != "b" || done[1].at != ms(20) {
		t.Fatalf("b done at %v (should queue behind a)", done[1].at)
	}
	if done[2].name != "c" || done[2].at != ms(30) {
		t.Fatalf("c done at %v (idle resource serves immediately)", done[2].at)
	}
	if r.BusyTime() != ms(25) {
		t.Fatalf("BusyTime = %v, want 25ms", r.BusyTime())
	}
}

func TestResourceZeroDemandIsFree(t *testing.T) {
	s := New(1)
	r := NewResource(s)
	var at Time
	s.Spawn("z", func(p *Proc) {
		r.Use(p, 0)
		r.Use(p, -time.Second)
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 || r.BusyTime() != 0 {
		t.Fatalf("zero demand consumed time: at=%v busy=%v", at, r.BusyTime())
	}
}
