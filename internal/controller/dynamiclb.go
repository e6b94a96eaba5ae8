package controller

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// This file implements the load-balancing extension the paper leaves as
// future work (§4.5/§8: "our future work will investigate more
// intelligent load-balancing techniques"). The static design carves the
// client space into R divisions bound 1:1 to replicas, so a skewed
// division pins its whole load to one replica. The dynamic balancer
// refines the client space into more divisions than replicas and
// periodically re-assigns divisions to replicas using the switch's own
// flow counters as the workload signal — the controller polls the
// per-division rule statistics (an OpenFlow flow-stats request) and
// packs divisions onto replicas with an LPT greedy.

// dynamicDivisionsFor returns the division count used in dynamic mode:
// the smallest power of two holding at least twice the replica count,
// so hot divisions can be separated.
func dynamicDivisionsFor(replicas int) int {
	n := 1
	for n < 2*replicas {
		n <<= 1
	}
	return n
}

// lbState tracks one partition's dynamic assignment.
type lbState struct {
	assign []int   // division -> index into view.Replicas
	last   []int64 // previous per-division match counters
}

// startDynamicLB spawns the rebalancer.
func (svc *Service) startDynamicLB() {
	if !svc.cfg.LoadBalance || !svc.cfg.DynamicLB {
		return
	}
	svc.lb = make(map[int]*lbState)
	svc.s.Spawn("metadata-rebalancer", func(p *sim.Proc) {
		for {
			p.Sleep(RebalanceEvery)
			if svc.stack.Host().Down() {
				continue
			}
			for part := range svc.views {
				svc.rebalance(part)
			}
		}
	})
}

// divisionAssignment returns the division -> replica-slot mapping for a
// partition: the dynamic assignment when one exists, else round robin.
func (svc *Service) divisionAssignment(part, ndiv, replicas int) []int {
	if svc.lb != nil {
		if st := svc.lb[part]; st != nil && len(st.assign) == ndiv {
			ok := true
			for _, slot := range st.assign {
				if slot >= replicas {
					ok = false
					break
				}
			}
			if ok {
				return st.assign
			}
		}
	}
	out := make([]int, ndiv)
	for d := range out {
		out[d] = d % replicas
	}
	return out
}

// readDivisionCounters polls the per-division rule match counters on the
// first mapping datapath (a flow-stats request in OpenFlow terms).
func (svc *Service) readDivisionCounters(part, ndiv int) []int64 {
	dps := svc.fabric.MappingDatapaths()
	if len(dps) == 0 {
		return nil
	}
	svc.stats.StatsPolls++
	out := make([]int64, ndiv)
	for _, e := range dps[0].Table().Entries() {
		var d int
		if n, err := fmt.Sscanf(e.Cookie, "uni-p"+strconv.Itoa(part)+".d%d", &d); err == nil && n == 1 {
			if d >= 0 && d < ndiv {
				out[d] += e.Matches()
			}
		}
	}
	return out
}

// rebalance recomputes one partition's division assignment from the
// counters observed since the last poll.
func (svc *Service) rebalance(part int) {
	v := svc.views[part]
	nrep := len(v.Replicas)
	if nrep <= 1 {
		return
	}
	ndiv := dynamicDivisionsFor(nrep)
	counters := svc.readDivisionCounters(part, ndiv)
	if counters == nil {
		return
	}
	st := svc.lb[part]
	if st == nil {
		st = &lbState{assign: svc.divisionAssignment(part, ndiv, nrep), last: make([]int64, ndiv)}
		svc.lb[part] = st
	}
	if len(st.last) != ndiv || len(st.assign) != ndiv {
		st.assign = svc.divisionAssignment(part, ndiv, nrep)
		st.last = make([]int64, ndiv)
	}
	delta := make([]int64, ndiv)
	var total int64
	for d := range counters {
		delta[d] = counters[d] - st.last[d]
		if delta[d] < 0 {
			delta[d] = counters[d] // rules were reinstalled; counter reset
		}
		st.last[d] = counters[d]
		total += delta[d]
	}
	if total < RebalanceMinOps {
		return // too little signal to act on
	}

	// LPT greedy: heaviest divisions first, each onto the currently
	// lightest replica.
	order := make([]int, ndiv)
	for d := range order {
		order[d] = d
	}
	sort.Slice(order, func(a, b int) bool { return delta[order[a]] > delta[order[b]] })
	load := make([]int64, nrep)
	assign := make([]int, ndiv)
	for _, d := range order {
		best := 0
		for r := 1; r < nrep; r++ {
			if load[r] < load[best] {
				best = r
			}
		}
		assign[d] = best
		load[best] += delta[d]
	}
	changed := false
	for d := range assign {
		if assign[d] != st.assign[d] {
			changed = true
			break
		}
	}
	if !changed {
		return
	}
	st.assign = assign
	svc.stats.Rebalances++
	svc.tracef("%v: partition %d divisions rebalanced to %v", svc.s.Now(), part, assign)
	svc.installPartition(part)
}

// LBAssignment exposes the current division mapping of a partition for
// tests and tooling (nil when static).
func (svc *Service) LBAssignment(part int) []int {
	if svc.lb == nil || svc.lb[part] == nil {
		return nil
	}
	out := make([]int, len(svc.lb[part].assign))
	copy(out, svc.lb[part].assign)
	return out
}

// ndivFor returns the division count installPartition should use.
func (svc *Service) ndivFor(replicas int) int {
	if svc.cfg.DynamicLB {
		return dynamicDivisionsFor(replicas)
	}
	return replicas
}

// divisionsN splits the client space into exactly n power-of-two
// prefixes.
func (svc *Service) divisionsN(n int) []netsim.Prefix {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	space := svc.cfg.ClientSpace
	out := make([]netsim.Prefix, n)
	width := uint32(1) << (32 - space.Bits - bits)
	for d := 0; d < n; d++ {
		out[d] = netsim.PrefixOf(space.Nth(uint32(d)*width), space.Bits+bits)
	}
	return out
}
