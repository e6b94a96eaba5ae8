package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
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

// committed maps each BENCH_<x>.json at the repository root that must
// regenerate bit for bit to the experiment that writes it.
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

// TestBenchFilesReproduce re-runs the five sweeps whose reports are
// committed and requires them to regenerate the BENCH_<x>.json files at
// the repository root bit for bit, ignoring the env block: the files pin
// every sweep's behaviour the way the fig5 golden hash pins the figures.
func TestBenchFilesReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("five full sweeps")
	}
	for name, experiment := range committed {
		cfg := &config{pr: cluster.Params{Ops: 1000, Seed: 42}, heavyClients: 100_000, outDir: t.TempDir()}
		if name == "batch" {
			cfg.pr.Ops = 48 // BENCH_batch.json is recorded at -ops 48
		}
		if err := runExperiments(cfg, experiment, io.Discard); err != nil {
			t.Fatalf("%s: %v", experiment, err)
		}
		file := "BENCH_" + name + ".json"
		got, want := readReport(t, filepath.Join(cfg.outDir, file)), readReport(t, filepath.Join("..", "..", file))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s no longer regenerates from -experiment %s (diff the file against a fresh run)", file, experiment)
		}
	}
}

// readReport parses a BENCH file without its env block.
func readReport(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]any
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if _, ok := report["env"]; !ok {
		t.Errorf("%s has no env block", path)
	}
	delete(report, "env")
	return report
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
