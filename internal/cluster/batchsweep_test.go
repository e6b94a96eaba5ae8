package cluster

import (
	"slices"
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

// TestChaosDurableGroupCommit: both durable cells — group commit alone,
// and with durable-write's commit batches, prepare gathers and coalesced
// gets — pass the linearizability check and the durability audit on
// crash-heavy schedules, so no batch weakens fsync-before-ack, and each
// repro line replays bit-identically, so batch leadership is
// deterministic under faults.
func TestChaosDurableGroupCommit(t *testing.T) {
	for _, tc := range []struct {
		name    string
		batched bool
	}{{"NICEKV+durable", false}, {"NICEKV+batch", true}} {
		i := slices.IndexFunc(chaosSystems(), func(s chaosSystem) bool { return s.name == tc.name })
		if i < 0 {
			t.Fatalf("%s missing from chaosSystems", tc.name)
		}
		sys := chaosSystems()[i]
		opts, _, err := resolveArm(sys.arm, chaosCellOptions(1))
		if err != nil {
			t.Fatal(err)
		}
		if !opts.GroupCommit || opts.MaxSyncDelay == 0 || (opts.PutBatchWindow > 0) != tc.batched || opts.CoalesceGets != tc.batched {
			t.Fatalf("%s: group commit %v/%v, put batch window %v, coalesced gets %v; want group commit on and batching %v",
				tc.name, opts.GroupCommit, opts.MaxSyncDelay, opts.PutBatchWindow, opts.CoalesceGets, tc.batched)
		}
		recoveries := int64(0)
		for sched := 0; sched < 3; sched++ {
			cell, err := runChaosCell(sys, faultinject.Generate(DeriveSeed(13, sched), chaosGenConfig(sys, 0)))
			if err != nil {
				t.Fatal(err)
			}
			if len(cell.Violations) > 0 {
				t.Errorf("violations under group commit, repro: %s\n%v", cell.Repro(), cell.Violations)
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
			t.Errorf("%s: no crash recoveries across the schedules; the audit proved nothing", tc.name)
		}
	}
}
