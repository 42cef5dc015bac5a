package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("bogus", 1, 0, true, false, false, 0, true, ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunQuickFig3(t *testing.T) {
	if err := run("fig3", 1, 0, true, false, false, 0, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunQuickAblationRho(t *testing.T) {
	if err := run("ablation-rho", 1, 0, true, false, false, 0, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunQuickTable3CSV(t *testing.T) {
	if err := run("table3", 1, 8, true, true, false, 0, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunQuickSweepTables(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep tables take several seconds")
	}
	if err := run("table1", 1, 0, true, false, false, 0, true, ""); err != nil {
		t.Fatal(err)
	}
}

// TestCompareKernel covers the CI regression guard: a missing baseline
// skips, a within-tolerance measurement passes, a >25% regression fails
// with the offending kernel named, and sub-microsecond kernels get the
// absolute slack on top of the relative gate.
func TestCompareKernel(t *testing.T) {
	recs := []benchRecord{{Name: "genperm-fast-alias", NsPerOp: 100000}}

	if err := compareKernel(recs, filepath.Join(t.TempDir(), "nope.json"), true); err != nil {
		t.Fatalf("missing baseline must skip, got %v", err)
	}

	dir := t.TempDir()
	write := func(ns int64) string {
		doc := benchFile{Bench: "kernel", Records: []benchRecord{{Name: "genperm-fast-alias", NsPerOp: ns}}}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_kernel.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	if err := compareKernel(recs, write(90000), true); err != nil {
		t.Fatalf("1.11x must pass the 25%% gate, got %v", err)
	}
	err := compareKernel(recs, write(70000), true)
	if err == nil || !strings.Contains(err.Error(), "genperm-fast-alias") {
		t.Fatalf("1.43x must fail naming the kernel, got %v", err)
	}
	// 649 vs 476 is 1.36x but inside the 500ns absolute slack: timer
	// jitter on a sub-microsecond kernel must not fail CI.
	tiny := []benchRecord{{Name: "exec-after-swap", NsPerOp: 649}}
	tinyDoc := benchFile{Bench: "kernel", Records: []benchRecord{{Name: "exec-after-swap", NsPerOp: 476}}}
	tinyData, err := json.Marshal(tinyDoc)
	if err != nil {
		t.Fatal(err)
	}
	tinyPath := filepath.Join(dir, "BENCH_tiny.json")
	if err := os.WriteFile(tinyPath, tinyData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareKernel(tiny, tinyPath, true); err != nil {
		t.Fatalf("sub-microsecond jitter must pass via absolute slack, got %v", err)
	}
	// A benchmark absent from the baseline is reported but never fails.
	extra := append(recs, benchRecord{Name: "brand-new-kernel", NsPerOp: 5})
	if err := compareKernel(extra, write(90000), true); err != nil {
		t.Fatalf("unknown kernel must not fail the guard, got %v", err)
	}
}

// TestBenchJSONRoundTrip exercises the BENCH_<name>.json writer schema.
func TestBenchJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	recs := []benchRecord{
		{Name: "solve", Size: 64, Solver: "MaTCH", NsPerOp: 123456, AllocsPerOp: 42},
		{Name: "table1", Size: 10, Solver: "FastMapGA", ET: 987.5, NsPerOp: 5555},
	}
	if err := writeBenchJSON("roundtrip", recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_roundtrip.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Bench != "roundtrip" || len(doc.Records) != 2 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	if doc.Records[0] != recs[0] || doc.Records[1] != recs[1] {
		t.Fatalf("records did not round-trip: %+v", doc.Records)
	}
}
