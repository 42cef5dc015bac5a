package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.jsonl trace goldens")

// wallClockKey matches the trace keys whose values are timings or
// scheduling artefacts rather than results; the golden comparison strips
// them and pins every other byte of the wire form, key order included.
var wallClockKey = regexp.MustCompile(`,"(sample_ns|select_ns|update_ns|idle_ns|steal_units|mapping_time_ns)":-?[0-9]+`)

// TestTraceGolden pins the JSONL trace wire format: `match -trace` on a
// fixed instance and seed, with one sampling worker, must reproduce the
// recorded files in testdata byte for byte once wall-clock keys are
// stripped. Regenerate with `go test ./cmd/match -run TestTraceGolden
// -update` only when the wire format is meant to change.
func TestTraceGolden(t *testing.T) {
	// Workers defaults to GOMAXPROCS; pin it to 1.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	path := writeInstance(t)
	cases := []struct {
		name   string
		solver string
		tune   func(*config)
		// unordered compares the lines as a multiset: islands report
		// their iterations concurrently, so the interleaving between
		// islands is up to the scheduler.
		unordered bool
	}{
		// Plain single-population MaTCH.
		{"match", "match", func(c *config) { c.opts.Seed = 3 }, false},
		// The island ensemble fills island/migrants_in/out/blend_rounds.
		{"match-islands", "match", func(c *config) {
			c.opts.Islands, c.opts.MigrateEvery, c.opts.MigrantCount, c.opts.BlendAlpha = 2, 5, 2, 0.2
		}, true},
		{"ga", "ga", func(c *config) {}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := fastCfg(path, c.solver)
			cfg.simulate = 0
			cfg.traceFile = filepath.Join(t.TempDir(), "run.jsonl")
			c.tune(&cfg)
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(cfg.traceFile)
			if err != nil {
				t.Fatal(err)
			}
			got := wallClockKey.ReplaceAll(raw, nil)
			golden := filepath.Join("testdata", c.name+".jsonl")
			if *updateGolden {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			if c.unordered {
				slices.SortFunc(gotLines, bytes.Compare)
				slices.SortFunc(wantLines, bytes.Compare)
			}
			for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
				if !bytes.Equal(gotLines[i], wantLines[i]) {
					t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, golden, gotLines[i], wantLines[i])
				}
			}
			if len(gotLines) != len(wantLines) {
				t.Fatalf("trace has %d lines, %s has %d", len(gotLines), golden, len(wantLines))
			}
		})
	}
}
