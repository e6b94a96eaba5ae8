package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// TestChaosSmoke is the CI-sized chaos sweep: a few fixed-seed schedules
// per system, zero invariant violations expected. The full experiment
// (`nicebench -experiment chaos`) runs 50 schedules per system; this
// keeps the same machinery honest under -race on every push.
func TestChaosSmoke(t *testing.T) {
	const schedules = 4
	rep, err := RunChaos(Params{Seed: 42}, schedules, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Violating() {
		t.Errorf("violations, repro: %s", c.Repro())
		for _, v := range c.Violations {
			t.Logf("    %s", v)
		}
	}
	if !rep.DeterminismOK {
		t.Errorf("determinism recheck failed: %v", rep.Mismatches)
	}
	for i := range rep.Cells {
		if rep.Cells[i].Ops == 0 {
			t.Errorf("cell %d (%s) recorded no operations", i, rep.Cells[i].Repro())
		}
	}
}

// TestChaosDeterminism: the same (system, schedule) cell must replay to
// an identical history, and the parallel sweep must agree cell-by-cell
// with the sequential one.
func TestChaosDeterminism(t *testing.T) {
	sys := chaosSystems()[0]
	sched := faultinject.Generate(DeriveSeed(7, 3), chaosGenConfig(sys, 0))
	a, err := runChaosCell(sys, sched)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runChaosCell(sys, sched)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash || a.Ops != b.Ops || a.Failed != b.Failed {
		t.Fatalf("same seed diverged: ops %d/%d failed %d/%d hash %x/%x",
			a.Ops, b.Ops, a.Failed, b.Failed, a.Hash, b.Hash)
	}

	seq, err := RunChaos(Params{Seed: 11, Seq: true}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunChaos(Params{Seed: 11}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Cells {
		if seq.Cells[i].Hash != par.Cells[i].Hash {
			t.Errorf("cell %d: sequential hash %x != parallel hash %x (%s)",
				i, seq.Cells[i].Hash, par.Cells[i].Hash, seq.Cells[i].Repro())
		}
	}
}

// TestChaosReplayRoundTrip: the repro line a violating (or any) cell
// prints must replay to the exact same execution.
func TestChaosReplayRoundTrip(t *testing.T) {
	sys := chaosSystems()[2] // quorum: the most failure-sensitive config
	sched := faultinject.Generate(DeriveSeed(5, 1), chaosGenConfig(sys, 0))
	orig, err := runChaosCell(sys, sched)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayChaos(orig.Repro())
	if err != nil {
		t.Fatalf("ReplayChaos(%q): %v", orig.Repro(), err)
	}
	if replayed.Hash != orig.Hash || replayed.Ops != orig.Ops {
		t.Fatalf("replay diverged: ops %d/%d hash %x/%x",
			orig.Ops, replayed.Ops, orig.Hash, replayed.Hash)
	}

	if _, err := ReplayChaos("not a repro line"); err == nil {
		t.Error("malformed repro accepted")
	}
	if _, err := ReplayChaos("NOSYS :: seed=1"); err == nil {
		t.Error("unknown system accepted")
	}
}

// TestChaosCatchesInjectedViolation plants a real bug — the switch cache
// stops being invalidated on puts (probeDropInvalidate) — and demands
// the checker catch the resulting stale cache hits and print a usable
// repro. This is the end-to-end proof that a silent chaos sweep means
// something.
func TestChaosCatchesInjectedViolation(t *testing.T) {
	probeDropInvalidate = true
	defer func() { probeDropInvalidate = false }()
	var sys chaosSystem
	for _, s := range chaosSystems() {
		if s.name == "NICEKV+cache" {
			sys = s
		}
	}
	if sys.name == "" {
		t.Fatal("cache system missing from chaosSystems")
	}
	// No faults needed: the shared hot keys get cached within a few
	// gets, and the next put leaves the stale entry in the switch.
	cell, err := runChaosCell(sys, faultinject.Schedule{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Violations) == 0 {
		t.Fatal("checker missed the injected stale-cache bug")
	}
	stale := false
	for _, v := range cell.Violations {
		if v.Invariant == "stale-read" {
			stale = true
		}
	}
	if !stale {
		t.Errorf("no stale-read among violations: %v", cell.Violations)
	}
	if !strings.HasPrefix(cell.Repro(), "NICEKV+cache :: seed=99") {
		t.Errorf("unprintable repro: %q", cell.Repro())
	}
}

// TestChaosSweepSurvivesSimFailure: a cell whose simulation fails (a
// proc panicked) is that cell's violation, printed with its repro line;
// the sweep still runs and reports every other cell.
func TestChaosSweepSurvivesSimFailure(t *testing.T) {
	const seed, failed = 42, 1 // the one cell of chaosSystems()[1]
	probeChaosPanicSeed = DeriveSeed(seed, failed)
	defer func() { probeChaosPanicSeed = 0 }()
	rep, err := RunChaos(Params{Seed: seed}, 1, 0)
	if err != nil {
		t.Fatalf("one failed cell aborted the sweep: %v", err)
	}
	if len(rep.Cells) != len(chaosSystems()) {
		t.Fatalf("report has %d cells, want %d", len(rep.Cells), len(chaosSystems()))
	}
	for i, c := range rep.Cells {
		if i != failed {
			if c.Ops == 0 || len(c.Violations) != 0 {
				t.Errorf("cell %d (%s): ops=%d violations=%v", i, c.System, c.Ops, c.Violations)
			}
			continue
		}
		if len(c.Violations) != 1 || c.Violations[0].Invariant != "sim-failure" ||
			!strings.Contains(c.Violations[0].Detail, "planted simulation failure") {
			t.Errorf("failed cell's violations = %v, want one sim-failure", c.Violations)
		}
	}
	if !rep.DeterminismOK {
		t.Errorf("a failed cell must replay to the same failure: %v", rep.Mismatches)
	}
	var out strings.Builder
	rep.Fprint(&out)
	want := fmt.Sprintf("VIOLATION repro: %s :: seed=%d", chaosSystems()[failed].name, probeChaosPanicSeed)
	if !strings.Contains(out.String(), want) {
		t.Errorf("report does not name the failed cell (%q):\n%s", want, out.String())
	}
}

// TestChaosReplayLockOwnership replays the schedule that used to panic
// with "unlock of unheld lock": a soft restart (RejoinOrder) drops a
// node's locks but not its WAL, a new put takes a key whose record still
// names an old one, and the resolution verdict on the old put then freed
// the new put's lock. Release is owner-checked now, so the cell
// completes, clean.
func TestChaosReplayLockOwnership(t *testing.T) {
	cell, err := ReplayChaos("NICEKV+heavytraffic :: seed=-8532797161650872670 | slowdisk n0 x=20.720718887827932 @102.232297ms +132.810256ms | delayspike n4 x=5.252439665865953 @141.635297ms +94.806003ms | delayspike n1 x=8.973461347105118 @247.765267ms +44.118438ms | loss n2 r=0.1468147721700231 @253.566178ms +73.199903ms | slownic n3 x=10.837564623045676 @347.712099ms +78.380329ms | loss n0 r=0.27989773575896265 @362.564305ms +158.688213ms | crash n3 @480.739921ms +101.217984ms | crash n1 @523.351516ms +92.58498ms")
	if err != nil {
		t.Fatal(err)
	}
	if cell.Ops == 0 || len(cell.Violations) != 0 {
		t.Fatalf("ops=%d violations=%v", cell.Ops, cell.Violations)
	}
}
