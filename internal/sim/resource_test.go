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

// TestUseHeadWakesAtItsHeadAndBooksAll: UseHead resumes its user after
// the head of its demand but holds the resource for all of it, so a user
// arriving meanwhile queues behind the whole demand; a head of d or more
// is exactly Use.
func TestUseHeadWakesAtItsHeadAndBooksAll(t *testing.T) {
	s := New(1)
	r := NewResource(s)
	var a, b, c Time
	s.Spawn("a", func(p *Proc) {
		r.UseHead(p, ms(10), ms(2))
		a = p.Now()
	})
	s.Spawn("b", func(p *Proc) {
		p.Sleep(ms(1))
		r.UseHead(p, ms(5), ms(7)) // head past the demand: Use
		b = p.Now()
	})
	s.Spawn("c", func(p *Proc) {
		p.Sleep(ms(3))
		r.Use(p, ms(1))
		c = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if a != ms(2) {
		t.Errorf("a woke at %v, want its 2ms head", a)
	}
	if b != ms(15) {
		t.Errorf("b woke at %v, want 15ms (queued behind all of a's 10ms)", b)
	}
	if c != ms(16) {
		t.Errorf("c woke at %v, want 16ms", c)
	}
	if r.BusyTime() != ms(16) {
		t.Errorf("BusyTime = %v, want 16ms", r.BusyTime())
	}
}
