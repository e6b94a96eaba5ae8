package sim

// Resource models a serially-shared service center (a node's CPU, a
// disk): requests are served FIFO in arrival order, one at a time. It
// uses the virtual-queue formulation: a user arriving at time t with
// demand d is served during [max(t, busyUntil), max(t, busyUntil)+d].
type Resource struct {
	s         *Simulator
	busyUntil Time
	busyTotal Time
}

// NewResource returns an idle resource clocked by s.
func NewResource(s *Simulator) *Resource { return &Resource{s: s} }

// Use blocks p while it queues for and consumes d of service time.
// A zero or negative demand returns immediately without queueing.
func (r *Resource) Use(p *Proc, d Time) { r.UseHead(p, d, d) }

// UseHead books d of service exactly as Use does, but resumes p once the
// first head of it is served (a head above d counts as d): a streamed
// disk read hands its first segment to the reply while the device reads
// the rest. Later users still queue behind all of d.
func (r *Resource) UseHead(p *Proc, d, head Time) {
	if d <= 0 {
		return
	}
	now := r.s.Now()
	start := r.busyUntil
	if start < now {
		start = now
	}
	r.busyUntil = start + d
	r.busyTotal += d
	p.Sleep(start + min(head, d) - now)
}

// BusyTime returns the total service time consumed (utilization
// accounting).
func (r *Resource) BusyTime() Time { return r.busyTotal }
