package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
		if name == "fig6" && (strings.Contains(out.String(), "== fig5") || !strings.Contains(out.String(), "== fig6")) {
			t.Errorf("-experiment fig6 should show fig6 alone:\n%s", out.String())
		}
	}
	for _, e := range registry {
		if e.selected("all") == e.extended {
			t.Errorf("-experiment all: %s selected=%v but extended=%v", e.name, !e.extended, e.extended)
		}
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
