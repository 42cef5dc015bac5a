package main

import (
	"os"
	"path/filepath"
	"testing"

	"matchsim"
	"matchsim/internal/trace"
)

// writeInstance produces a small instance file for the CLI to consume.
func writeInstance(t *testing.T) string {
	t.Helper()
	p, err := matchsim.GeneratePaper(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inst.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := p.WriteInstance(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// fastCfg is the small-budget configuration the solver table tests share.
func fastCfg(in, solver string) config {
	return config{
		in: in, solver: solver, seed: 1,
		samples: 128, rho: 0.1, zeta: 0.5, maxIters: 30,
		agentsN: 2, pop: 20, gens: 20,
		budget: 200, restarts: 2, simulate: 2,
	}
}

func TestRunAllSolvers(t *testing.T) {
	path := writeInstance(t)
	for _, solver := range []string{"match", "ga", "distributed", "random", "greedy", "local", "anneal"} {
		if err := run(fastCfg(path, solver)); err != nil {
			t.Fatalf("solver %s: %v", solver, err)
		}
	}
}

func TestRunUnknownSolver(t *testing.T) {
	path := writeInstance(t)
	if err := run(config{in: path, solver: "bogus", seed: 1, budget: 100, restarts: 1}); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run(config{in: "/nonexistent/instance.json", solver: "match", seed: 1}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunCorruptInstance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(config{in: path, solver: "match", seed: 1}); err == nil {
		t.Fatal("corrupt instance accepted")
	}
}

func TestRunWritesTrace(t *testing.T) {
	path := writeInstance(t)
	traceOut := filepath.Join(t.TempDir(), "run.trace")
	cfg := fastCfg(path, "match")
	cfg.maxIters = 10
	cfg.simulate = 0
	cfg.traceFile = traceOut
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("trace runs %d", len(runs))
	}
	if runs[0].Start.Solver != "match" || runs[0].End == nil {
		t.Fatalf("trace malformed: %+v", runs[0].Start)
	}
	if len(runs[0].Iterations) == 0 {
		t.Fatal("no iteration events recorded")
	}
}

// TestCheckpointSaveAndResume drives the -checkpoint flag: a completed
// run saves a decodable snapshot, and a re-run with a larger -max-iters
// resumes from it and extends the chain.
func TestCheckpointSaveAndResume(t *testing.T) {
	path := writeInstance(t)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := fastCfg(path, "match")
	cfg.simulate = 0
	cfg.maxIters = 10
	cfg.checkpoint = ckpt
	if err := run(cfg); err != nil {
		t.Fatalf("first run: %v", err)
	}

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	c, err := matchsim.DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("checkpoint not decodable: %v", err)
	}
	if c.Iterations == 0 {
		t.Error("checkpoint banked no iterations")
	}

	// Second invocation resumes from the file and extends the run;
	// -max-iters caps the whole chain.
	cfg.maxIters = 20
	if err := run(cfg); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	data2, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint not rewritten: %v", err)
	}
	c2, err := matchsim.DecodeCheckpoint(data2)
	if err != nil {
		t.Fatalf("rewritten checkpoint not decodable: %v", err)
	}
	if c2.Iterations < c.Iterations {
		t.Errorf("rewritten checkpoint banked %d iterations, fewer than the first run's %d", c2.Iterations, c.Iterations)
	}
}

// TestCheckpointCorruptFile checks a damaged checkpoint fails loudly
// rather than silently restarting.
func TestCheckpointCorruptFile(t *testing.T) {
	path := writeInstance(t)
	ckpt := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(ckpt, []byte(`{"iterations": 1`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(path, "match")
	cfg.checkpoint = ckpt
	if err := run(cfg); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// TestCheckpointRejectsNonMatchSolver checks the flag is refused outside
// the MaTCH solver.
func TestCheckpointRejectsNonMatchSolver(t *testing.T) {
	path := writeInstance(t)
	cfg := fastCfg(path, "ga")
	cfg.checkpoint = filepath.Join(t.TempDir(), "x.ckpt")
	if err := run(cfg); err == nil {
		t.Fatal("-checkpoint with ga accepted")
	}
}
