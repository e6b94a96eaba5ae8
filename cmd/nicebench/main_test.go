package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// smokeConfig is the smallest configuration every experiment still runs
// under; it writes no files.
func smokeConfig() *config {
	return &config{
		pr:           cluster.Params{Ops: 6, Seed: 42},
		ycsbOps:      20,
		clients:      2,
		chaosN:       1,
		chaosCtrl:    1,
		heavyClients: 500,
		trafficSizes: "500",
	}
}

// committed maps each sweep's BENCH_<x>.json at the repository root to
// the experiment that writes it; its hash and claims must regenerate bit
// for bit.
var committed = map[string]string{
	"readscale": "readscale", "ctrl": "ctrlsweep", "storage": "storagesweep",
	"traffic": "heavytraffic", "batch": "batchsweep",
}

// TestRegistryRunsEveryName is the CI smoke step generated from the
// registry: every -experiment value (experiment names and their parts)
// runs at reduced size, "all" selects exactly the non-extended rows, and
// an unknown name is the usage error.
func TestRegistryRunsEveryName(t *testing.T) {
	// testing.Benchmark honours -test.benchtime; one iteration keeps the
	// kernel row a smoke run instead of seconds per benchmark.
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("test.benchtime", "1s") })
	fullSize := map[string]bool{}
	for _, experiment := range committed {
		fullSize[experiment] = !testing.Short() // TestBenchFilesReproduce runs these
	}
	for _, name := range strings.Fields(experimentNames()) {
		if fullSize[name] {
			continue
		}
		var out strings.Builder
		if err := runExperiments(smokeConfig(), name, &out); err != nil {
			t.Errorf("-experiment %s: %v", name, err)
		}
		if !strings.Contains(out.String(), "-- ") {
			t.Errorf("-experiment %s printed no timing line:\n%s", name, out.String())
		}
		// A part shows only its own figure of the shared sweep.
		for part, sibling := range map[string]string{"fig6": "fig5", "abl-lb": "abl-edgeovs"} {
			if name == part && (strings.Contains(out.String(), "== "+sibling) || !strings.Contains(out.String(), "== "+part)) {
				t.Errorf("-experiment %s should show %s alone:\n%s", part, part, out.String())
			}
		}
	}
	for _, e := range registry {
		if e.selected("all") == e.extended {
			t.Errorf("-experiment all: %s selected=%v but extended=%v", e.name, !e.extended, e.extended)
		}
	}
	// The paper's own figures only print; a BENCH file is a sweep's report.
	cfg := smokeConfig()
	cfg.outDir = t.TempDir()
	if err := runExperiments(cfg, "tables", io.Discard); err != nil {
		t.Error(err)
	}
	if left, _ := os.ReadDir(cfg.outDir); len(left) > 0 {
		t.Errorf("-experiment tables wrote %s", left[0].Name())
	}
	err := runExperiments(smokeConfig(), "fig99", io.Discard)
	if !errors.Is(err, errUnknownExperiment) || !strings.Contains(err.Error(), "readscale") {
		t.Errorf("unknown experiment: err = %v, want the usage error listing the registry", err)
	}
}

// TestBenchFilesReproduce re-runs the five sweeps whose records are
// committed, at the seed and size each file names, and requires every
// BENCH_<x>.json at the repository root to regenerate bit for bit,
// ignoring the env block: the hash pins every value of every cell the
// way the fig5 golden hash pins the figures, and each claim must keep
// its value, its band, and lie in that band.
func TestBenchFilesReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("five full sweeps")
	}
	for name, experiment := range committed {
		file := "BENCH_" + name + ".json"
		want := readRecord(t, filepath.Join("..", "..", file))
		cfg := &config{pr: cluster.Params{Ops: want.Ops, Seed: want.Seed}, heavyClients: 100_000, outDir: t.TempDir()}
		if err := runExperiments(cfg, experiment, io.Discard); err != nil {
			t.Fatalf("%s: %v", experiment, err)
		}
		if err := checkRecord(want, readRecord(t, filepath.Join(cfg.outDir, file))); err != nil {
			t.Errorf("%s no longer regenerates from -experiment %s:\n%v", file, experiment, err)
		}
	}
}

// benchFile is a committed sweep file: the envelope and the record.
type benchFile struct {
	Env  benchEnv `json:"env"`
	Seed int64    `json:"seed"`
	sweepRecord
}

// readRecord parses a sweep's BENCH file; a field outside the envelope
// and the record is an error, so nothing rides in unchecked.
func readRecord(t *testing.T, path string) benchFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if f.Env == (benchEnv{}) {
		t.Errorf("%s has no env block", path)
	}
	return f
}

// checkRecord compares a fresh sweep file with the committed one, env
// aside, and names every difference: the seed or size, the hash, a claim
// missing from either side, a claim whose value or band moved, and a
// fresh claim outside its band.
func checkRecord(committed, fresh benchFile) error {
	var errs []error
	if committed.Seed != fresh.Seed || committed.Ops != fresh.Ops {
		errs = append(errs, fmt.Errorf("ran at seed %d ops %d, committed at seed %d ops %d",
			fresh.Seed, fresh.Ops, committed.Seed, committed.Ops))
	}
	if committed.Hash != fresh.Hash {
		errs = append(errs, fmt.Errorf("cells hash %s, committed %s", fresh.Hash, committed.Hash))
	}
	want := make(map[string]cluster.Claim)
	for _, c := range committed.Claims {
		want[c.Name] = c
	}
	for _, c := range fresh.Claims {
		w, ok := want[c.Name]
		delete(want, c.Name)
		if !ok {
			errs = append(errs, fmt.Errorf("claim %s is not in the committed file", c.Name))
		} else if w != c {
			errs = append(errs, fmt.Errorf("claim %s = %v in [%v, %v], committed %v in [%v, %v]",
				c.Name, c.Value, c.Lo, c.Hi, w.Value, w.Lo, w.Hi))
		}
		if !c.InBand() {
			errs = append(errs, fmt.Errorf("claim %s = %v is outside its band [%v, %v]", c.Name, c.Value, c.Lo, c.Hi))
		}
	}
	for _, c := range committed.Claims {
		if _, ok := want[c.Name]; ok {
			errs = append(errs, fmt.Errorf("claim %s is committed but no longer computed", c.Name))
		}
	}
	return errors.Join(errs...)
}

// TestSweepClaimsCannotBeLost: a claim that leaves its band, disappears
// from the file or from the code, and a cells hash that moves each fail
// the comparison, and the failure names what was lost.
func TestSweepClaimsCannotBeLost(t *testing.T) {
	record := func(hash string, claims ...cluster.Claim) benchFile {
		return benchFile{Env: benchEnv{GOOS: "linux"}, Seed: 42, sweepRecord: sweepRecord{Ops: 1000, Hash: hash, Claims: claims}}
	}
	speedup := cluster.Claim{Name: "speedup", Value: 7, Lo: 6, Hi: 8}
	share := cluster.Claim{Name: "share", Value: 0.87, Lo: 0.8, Hi: 0.9}
	file := record("00000000000000aa", speedup, share)
	if err := checkRecord(file, file); err != nil {
		t.Fatalf("identical records: %v", err)
	}
	slow := speedup
	slow.Value = 5
	for _, tc := range []struct {
		name      string
		committed benchFile
		fresh     benchFile
		want      string
	}{
		{"out of band", record("00000000000000aa", slow, share), record("00000000000000aa", slow, share), "claim speedup = 5 is outside its band [6, 8]"},
		{"missing from the file", record("00000000000000aa", share), file, "claim speedup is not in the committed file"},
		{"missing from the code", file, record("00000000000000aa", speedup), "claim share is committed but no longer computed"},
		{"hash moved", file, record("00000000000000ab", speedup, share), "cells hash 00000000000000ab, committed 00000000000000aa"},
	} {
		if err := checkRecord(tc.committed, tc.fresh); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestKernelGateCannotBeLostByARename: a gated benchmark absent from the
// baseline file or from the measured rows is an error that names it; an
// ungated row the file lacks is only reported.
func TestKernelGateCannotBeLostByARename(t *testing.T) {
	var rows []kernelResult
	for name := range kernelGates {
		rows = append(rows, kernelResult{Name: name, NsPerOp: 100})
	}
	without := func(name string) (out []kernelResult) {
		for _, r := range rows {
			if r.Name != name {
				out = append(out, r)
			}
		}
		return out
	}
	baselineOf := func(rows []kernelResult) string { return writeBaseline(t, rows) }

	var out strings.Builder
	extra := append(slices.Clone(rows), kernelResult{Name: "Ungated", NsPerOp: 5})
	if err := checkKernelBaseline(&out, baselineOf(rows), extra); err != nil {
		t.Errorf("ungated row without a baseline: err = %v, want a report only", err)
	}
	if !strings.Contains(out.String(), "Ungated") || !strings.Contains(out.String(), "(no baseline)") {
		t.Errorf("ungated row not reported:\n%s", out.String())
	}
	err := checkKernelBaseline(io.Discard, baselineOf(without("NearTimer")), rows)
	if err == nil || !strings.Contains(err.Error(), "NearTimer has no baseline") {
		t.Errorf("baseline without NearTimer: err = %v, want it named", err)
	}
	err = checkKernelBaseline(io.Discard, baselineOf(rows), without("NearTimer"))
	if err == nil || !strings.Contains(err.Error(), "NearTimer was not measured") {
		t.Errorf("NearTimer dropped from the measured rows: err = %v, want it named", err)
	}
	slow := append(without("SleepWake"), kernelResult{Name: "SleepWake", NsPerOp: 250})
	err = checkKernelBaseline(io.Discard, baselineOf(rows), slow)
	if err == nil || !strings.Contains(err.Error(), "SleepWake regressed 2.50x") {
		t.Errorf("2.5x slower gated row: err = %v, want the regression", err)
	}
}

// writeBaseline writes rows as a BENCH_kernel.json in a temporary
// directory and returns its path.
func writeBaseline(t *testing.T, rows []kernelResult) string {
	t.Helper()
	data, err := json.Marshal(map[string]any{"benchmarks": rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestKernelGateCountsAllocations: a gated row allocating one object per
// op more than its baseline fails however fast it ran; fewer objects, or
// more on an ungated row, pass.
func TestKernelGateCountsAllocations(t *testing.T) {
	rows := func(name string, allocs int64) (out []kernelResult) {
		for gate := range kernelGates {
			r := kernelResult{Name: gate, NsPerOp: 100, AllocsPerOp: 6}
			if gate == name {
				r.AllocsPerOp = allocs
			}
			out = append(out, r)
		}
		return append(out, kernelResult{Name: "Ungated", NsPerOp: 100, AllocsPerOp: allocs})
	}
	base := writeBaseline(t, rows("", 0))
	err := checkKernelBaseline(io.Discard, base, rows("McastPut", 7))
	if err == nil || !strings.Contains(err.Error(), "McastPut allocates 7 objects per op, baseline 6") {
		t.Errorf("one more object per op on a gated row: err = %v, want it named", err)
	}
	if err := checkKernelBaseline(io.Discard, base, rows("McastPut", 5)); err != nil {
		t.Errorf("one object fewer: err = %v, want none", err)
	}
}
