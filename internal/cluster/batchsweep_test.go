package cluster

import (
	"testing"

	"repro/internal/faultinject"
)

// TestBatchSweepSmoke runs a reduced grid of the batchsweep and checks
// the shapes the full experiment asserts: batched durable cells must
// coalesce fsyncs (fsyncs < wal_appends, coalesced > 0), the put
// accumulator must form multi-op batches, and hot-key MultiGets must
// coalesce duplicate reads.
func TestBatchSweepSmoke(t *testing.T) {
	base, err := runBatchCell(Params{Seed: DeriveSeed(42, 0), Ops: 48},
		BatchCell{System: "NICEKV+LB+durable", Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Fsyncs == 0 || base.WALAppends == 0 {
		t.Fatalf("durable baseline recorded no WAL traffic: %+v", base)
	}
	if base.BatchCommits != 0 || base.GetsCoalesced != 0 || base.CoalescedSyncs != 0 {
		t.Errorf("baseline cell must run the legacy path, got batching counters: %+v", base)
	}

	batched, err := runBatchCell(Params{Seed: DeriveSeed(42, 1), Ops: 48},
		BatchCell{System: "NICEKV+LB+durable", Batch: 16, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	if batched.Fsyncs >= batched.WALAppends {
		t.Errorf("group commit did not coalesce: fsyncs=%d wal_appends=%d",
			batched.Fsyncs, batched.WALAppends)
	}
	if batched.CoalescedSyncs == 0 {
		t.Error("no coalesced fsyncs in the batched durable cell")
	}
	if batched.BatchCommits == 0 || batched.MeanPutBatch <= 1 {
		t.Errorf("put accumulator idle: commits=%d mean=%.2f",
			batched.BatchCommits, batched.MeanPutBatch)
	}
	if batched.GetsCoalesced == 0 {
		t.Error("no coalesced gets despite a shared zipfian hot set")
	}
	if batched.PutTput <= base.PutTput {
		t.Errorf("batched durable puts not faster: %.0f/s vs baseline %.0f/s",
			batched.PutTput, base.PutTput)
	}
}

// TestBatchSweepDeterminism: the same batched cell under the same seed
// must reproduce bit-identically — the batching stack (client multiput
// fan-out, accumulator drains, group-commit leadership, get coalescing)
// must not introduce scheduling nondeterminism.
func TestBatchSweepDeterminism(t *testing.T) {
	pr := Params{Seed: DeriveSeed(7, 9), Ops: 32}
	cell := BatchCell{System: "NICEKV+LB+durable", Batch: 4, GroupCommit: true}
	a, err := runBatchCell(pr, cell)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runBatchCell(pr, cell)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged:\n  a=%+v\n  b=%+v", a, b)
	}
}

// TestChaosDurableGroupCommit pins the regression the +durable chaos
// cell now guards: with WAL group commit enabled (the cell's tuned
// default), crash-heavy schedules must still pass the linearizability
// check AND the durability audit — coalescing fsyncs must never weaken
// fsync-before-ack. The repro line must also replay bit-identically, so
// group commit leadership is deterministic under faults.
func TestChaosDurableGroupCommit(t *testing.T) {
	var sys chaosSystem
	for _, s := range chaosSystems() {
		if s.name == "NICEKV+durable" {
			sys = s
		}
	}
	if sys.name == "" {
		t.Fatal("NICEKV+durable missing from chaosSystems")
	}
	opts, _, err := resolveArm(sys.arm, chaosCellOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if !opts.GroupCommit || opts.MaxSyncDelay == 0 {
		t.Fatalf("+durable chaos cell must run with group commit on, got %+v/%v",
			opts.GroupCommit, opts.MaxSyncDelay)
	}

	recoveries := int64(0)
	for sched := 0; sched < 3; sched++ {
		sched := faultinject.Generate(DeriveSeed(13, sched), chaosGenConfig(sys, 0))
		cell, err := runChaosCell(sys, sched)
		if err != nil {
			t.Fatal(err)
		}
		if len(cell.Violations) > 0 {
			t.Errorf("violations under group commit, repro: %s", cell.Repro())
			for _, v := range cell.Violations {
				t.Logf("    %s", v)
			}
		}
		recoveries += cell.Recoveries

		replayed, err := ReplayChaos(cell.Repro())
		if err != nil {
			t.Fatalf("ReplayChaos(%q): %v", cell.Repro(), err)
		}
		if replayed.Hash != cell.Hash || replayed.Recoveries != cell.Recoveries {
			t.Errorf("replay diverged: hash %x/%x recoveries %d/%d (%s)",
				cell.Hash, replayed.Hash, cell.Recoveries, replayed.Recoveries, cell.Repro())
		}
	}
	if recoveries == 0 {
		t.Error("no crash recoveries across the schedules; the audit proved nothing")
	}
}
