package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/noob"
	"repro/internal/sim"
)

// heartbeat keeps s's event queue from ever draining, as a deployment's
// heartbeats do: a phase that forgets to stop the simulator runs to the
// time limit instead of returning.
func heartbeat(s *sim.Simulator) {
	s.Spawn("heartbeat", func(p *sim.Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
}

// TestRunClients pins the phase driver's contract: every client is
// joined even after one fails, the first error in virtual time wins, and
// the simulator is stopped although background procs never finish.
func TestRunClients(t *testing.T) {
	s := sim.New(1)
	defer s.Shutdown()
	heartbeat(s)
	s.SetLimit(time.Hour)
	finished := make([]sim.Time, 4)
	err := RunClients(s, len(finished), func(c int, p *sim.Proc) error {
		p.Sleep(sim.Time(4-c) * time.Millisecond) // client 3 finishes first
		finished[c] = p.Now()
		if c >= 2 {
			return fmt.Errorf("client %d failed", c)
		}
		return nil
	})
	if err == nil || err.Error() != "client 3 failed" {
		t.Errorf("err = %v, want the earliest failure (client 3)", err)
	}
	for c, at := range finished {
		if at == 0 {
			t.Errorf("client %d was not joined", c)
		}
	}
	if now := s.Now(); now != 4*time.Millisecond {
		t.Errorf("simulator ran to %v, want a stop when the last client finished at 4ms", now)
	}

	// A panicking body surfaces as the simulator's failure.
	s2 := sim.New(1)
	defer s2.Shutdown()
	if err := RunClients(s2, 1, func(int, *sim.Proc) error { panic("boom") }); err == nil {
		t.Error("proc panic not reported")
	}
}

// TestClientRNGSeeds pins the per-client streams the sweeps' committed
// numbers depend on: seed + salt·(c+1).
func TestClientRNGSeeds(t *testing.T) {
	for _, salt := range []int64{1000, 2000, 7000} {
		for c := 0; c < 3; c++ {
			want := rand.New(rand.NewSource(42 + salt*int64(c+1))).Int63()
			if got := clientRNG(42, salt, c).Int63(); got != want {
				t.Errorf("clientRNG(42, %d, %d) drew %d, want %d", salt, c, got, want)
			}
		}
	}
	if clientRNG(42, 1000, 0).Int63() == clientRNG(42, 1000, 1).Int63() {
		t.Error("two clients of one phase share a stream")
	}
}

// TestArmTable resolves every system name a sweep, figure or chaos cell
// uses, spot-checks what the features set, and requires unknown names to
// be errors.
func TestArmTable(t *testing.T) {
	arms := []string{"NICE+edgeovs", "NOOB+2PC", "NOOB+quorumrw", "NOOB+RAG", "nicekv+lb+durable+groupcommit",
		"NOOB+chain", "NICE+dynamiclb"}
	arms = append(arms, fig4Systems...)
	arms = append(arms, cacheSweepSystems...)
	arms = append(arms, HeavyTrafficArms...)
	arms = append(arms, readScaleSystems...)
	for _, sys := range batchSweepSystems {
		arms = append(arms, sys, sys+"+groupcommit")
	}
	for _, sys := range cacheSweepSystems {
		arms = append(arms, sys+"+durable+groupcommit")
	}
	for _, ss := range [][]system{lbSystems, ctrlArms} {
		for _, sys := range ss {
			arms = append(arms, sys.Arm)
		}
	}
	for _, sys := range chaosSystems() {
		arms = append(arms, sys.arm)
	}
	for _, arm := range arms {
		if _, _, err := resolveArm(arm, DefaultOptions()); err != nil {
			t.Errorf("resolveArm(%q): %v", arm, err)
		}
	}

	base := DefaultOptions()
	o, isNOOB, err := resolveArm("NICEKV+LB+durable+groupcommit", base)
	if err != nil || isNOOB || !o.LoadBalance || !o.DurableStore || !o.GroupCommit || o.MaxSyncDelay != 20*time.Microsecond {
		t.Errorf("NICEKV+LB+durable+groupcommit resolved to %+v (noob=%v, err=%v)", o.Options, isNOOB, err)
	}
	if o.Cache || o.Harmonia || o.Standby {
		t.Errorf("features leaked into %+v", o.Options)
	}
	o, isNOOB, err = resolveArm("NOOB+2PC+RAG+roundrobin", base)
	if err != nil || !isNOOB || o.Consistency != noob.TwoPC || o.Access != noob.ViaGateway ||
		o.Gateway != noob.RAG || o.Gets != noob.GetRoundRobin {
		t.Errorf("NOOB+2PC+RAG+roundrobin resolved to %+v (noob=%v, err=%v)", o, isNOOB, err)
	}
	if o, _, _ = resolveArm("NOOB", base); o.Access != noob.RAC || o.Consistency != noob.PrimaryOnly || o.Replication != noob.Unicast {
		t.Errorf("plain NOOB is not the RAC primary-only unicast default: %+v", o)
	}
	if o, _, _ = resolveArm("NOOB+chain", base); o.Replication != noob.Chain {
		t.Errorf("NOOB+chain does not replicate along a chain: %+v", o)
	}
	// The rebalancer moves the division rules, so the arm installs them.
	if o, _, _ = resolveArm("NICE+dynamiclb", base); !o.DynamicLB || !o.LoadBalance {
		t.Errorf("NICE+dynamiclb resolved to %+v", o.Options)
	}
	for r, k := range map[int]int{1: 0, 3: 2, 8: 5} {
		base.R = r
		if o, _, _ = resolveArm("NICEKV+quorum", base); o.QuorumK != k {
			t.Errorf("quorum at R=%d: k=%d, want %d", r, o.QuorumK, k)
		}
	}
	// "ctrlchain" stopped being a feature when every standby became
	// chain-backed; the token is refused like any other unknown one.
	for _, bad := range []string{"NICEKV+warp", "NICEKV+ctrlchain", "NICEKV+", "OTHERKV+LB", ""} {
		if _, _, err := resolveArm(bad, base); err == nil {
			t.Errorf("resolveArm(%q) accepted an unknown name", bad)
		}
	}
}

// TestGridAxesAndSeeds checks the grid executor decodes a flat index
// row-major (last axis fastest), hands each cell its DeriveSeed seed,
// and re-runs a cell under the same seed.
func TestGridAxesAndSeeds(t *testing.T) {
	type seen struct {
		ix   [3]int
		seed int64
	}
	g := grid[seen]{
		Dims: []int{2, 3, 4},
		Cell: func(pr Params, ix []int) (seen, error) {
			return seen{[3]int{ix[0], ix[1], ix[2]}, pr.Seed}, nil
		},
	}
	pr := Params{Seed: 9}
	cells, err := g.Run(pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 24 {
		t.Fatalf("%d cells, want 24", len(cells))
	}
	for i, c := range cells {
		want := seen{[3]int{i / 12, (i / 4) % 3, i % 4}, DeriveSeed(pr.Seed, i)}
		if c != want {
			t.Errorf("cell %d = %+v, want %+v", i, c, want)
		}
		if again, _ := g.Rerun(pr, i); again != c {
			t.Errorf("rerun of cell %d = %+v, want %+v", i, again, c)
		}
	}
	series := seriesOf([]string{"a", "b"}, []string{"x", "y", "z"}, []float64{1, 2, 3, 4, 5, 6}, identity)
	if series[1].System != "b" || series[1].Points[2] != (Point{X: "z", Value: 6}) {
		t.Errorf("seriesOf misplaced a cell: %+v", series)
	}
}

// failingClient is a kvClient whose nth put fails.
type failingClient struct {
	puts, failAt int
}

var errInjected = errors.New("injected put failure")

func (f *failingClient) Put(p *sim.Proc, key string, value any, size int) (opResult, error) {
	p.Sleep(50 * time.Microsecond)
	if f.puts++; f.puts == f.failAt {
		return opResult{}, errInjected
	}
	return opResult{Latency: 50 * time.Microsecond}, nil
}

func (f *failingClient) Get(p *sim.Proc, key string) (opResult, error) {
	p.Sleep(50 * time.Microsecond)
	return opResult{Latency: 50 * time.Microsecond, Found: true}, nil
}

// TestYCSBLoadFailureStopsSimulator is the regression for the fig12 /
// ycsb-all hang: a failed load put returned without stopping the
// simulator, and heartbeats never let the event queue drain, so the run
// spun forever instead of reporting. The error must come back in bounded
// virtual time.
func TestYCSBLoadFailureStopsSimulator(t *testing.T) {
	s := sim.New(1)
	defer s.Shutdown()
	heartbeat(s)
	s.SetLimit(time.Hour) // a hang shows up as the clock reaching the limit
	b := &bench{Sim: s, Clients: []kvClient{&failingClient{failAt: 10}}, settled: true}
	_, err := ycsbRun(b, Params{Ops: 20, Seed: 1}, "C")
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected load failure", err)
	}
	if now := s.Now(); now > time.Second {
		t.Fatalf("simulator ran to %v before reporting the failed load", now)
	}

	// The same workload on healthy clients completes and reports throughput.
	s2 := sim.New(1)
	defer s2.Shutdown()
	heartbeat(s2)
	s2.SetLimit(time.Hour)
	b = &bench{Sim: s2, Clients: []kvClient{&failingClient{}, &failingClient{}}, settled: true}
	tput, err := ycsbRun(b, Params{Ops: 20, Seed: 1}, "F")
	if err != nil || tput <= 0 {
		t.Fatalf("healthy run: tput=%v err=%v", tput, err)
	}
}

// TestHeavyTrafficCellReapsGoroutines is the regression for the traffic
// cell leak: the leaf-spine deployment was never closed, so every
// heavytraffic / storagesweep-heavy / batchsweep-heavy cell stranded its
// parked procs (~150 goroutines per cell). The harness closes every
// deployment it builds, so the count returns to where it started.
func TestHeavyTrafficCellReapsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		if _, err := RunHeavyTrafficCell("nicekv+lb+cache", 500, 7, 20_000, 20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// Killed procs unwind asynchronously after Shutdown returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after two traffic cells", before, after)
	}
}
