package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/internal/jobs"
	"matchsim/internal/trace"
)

// writeInstance produces a small instance file for the CLI to consume.
func writeInstance(t *testing.T) string {
	t.Helper()
	return writeInstanceN(t, 8)
}

// writeInstanceN writes a paper instance with n tasks and resources.
func writeInstanceN(t *testing.T, n int) string {
	t.Helper()
	p, err := matchsim.GeneratePaper(5, n)
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
		in: in, solver: solver,
		opts: api.SolverOptions{
			Seed: 1, SampleSize: 128, Rho: 0.1, Zeta: 0.5, MaxIterations: 30,
			PopulationSize: 20, Generations: 20,
			Budget: 200, Restarts: 2,
		},
		simulate: 2,
	}
}

func TestRunAllSolvers(t *testing.T) {
	path := writeInstance(t)
	for _, solver := range jobs.SolverNames() {
		if err := run(fastCfg(path, solver)); err != nil {
			t.Fatalf("solver %s: %v", solver, err)
		}
	}
}

// TestDocNamesEverySolver holds the command's header comment to the
// solver table: every name -solver accepts is listed there.
func TestDocNamesEverySolver(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "package main")
	doc = strings.ReplaceAll(doc, "\n//", "")
	for _, name := range jobs.SolverNames() {
		if !strings.Contains(doc, " "+name+" (") && !strings.Contains(doc, " "+name+",") && !strings.Contains(doc, " "+name+".") {
			t.Errorf("the header comment does not list solver %q", name)
		}
	}
}

// TestCLIMatchesDaemon holds the CLI to matchd: for every solver-table
// entry (and match's multilevel and island forms), `match` and a
// jobs.Manager job with the same instance, seed and options return the
// same mapping, the same Exec bits and the same counts.
func TestCLIMatchesDaemon(t *testing.T) {
	// The CLI's Workers defaults to GOMAXPROCS; pin it to the job's 1.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	path := writeInstanceN(t, 16)
	inst, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	problem, err := matchsim.ReadProblem(bytes.NewReader(inst))
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name, solver string
		tune         func(*api.SolverOptions)
	}
	var cases []variant
	for _, name := range jobs.SolverNames() {
		cases = append(cases, variant{name, name, func(*api.SolverOptions) {}})
	}
	cases = append(cases,
		variant{"match-multilevel", api.SolverMaTCH, func(o *api.SolverOptions) { o.Multilevel, o.MinCoarse = true, 8 }},
		variant{"match-islands", api.SolverMaTCH, func(o *api.SolverOptions) { o.Islands, o.MigrateEvery, o.BlendAlpha = 2, 5, 0.2 }},
	)

	m := jobs.New(jobs.Options{Workers: 1})
	defer m.Shutdown(context.Background())
	for _, c := range cases {
		cfg := fastCfg(path, c.solver)
		c.tune(&cfg.opts)
		cli, err := solve(jobs.LookupSolver(c.solver), cfg, problem, nil)
		if err != nil {
			t.Fatalf("%s: CLI: %v", c.name, err)
		}
		opts := cfg.opts
		opts.Workers = 1
		info, err := m.Submit(api.SubmitRequest{Instance: inst, Solver: c.solver, Options: opts})
		if err != nil {
			t.Fatalf("%s: Submit: %v", c.name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		for !api.TerminalState(info.State) && ctx.Err() == nil {
			info, err = m.WaitInfo(ctx, info.ID, info.State)
			if err != nil {
				t.Fatalf("%s: WaitInfo: %v", c.name, err)
			}
		}
		cancel()
		job, err := m.Result(info.ID)
		if err != nil {
			t.Fatalf("%s: job ended %s: %v (%s)", c.name, info.State, err, info.Error)
		}
		if !slices.Equal(cli.Mapping, job.Mapping) || math.Float64bits(cli.Exec) != math.Float64bits(job.Exec) ||
			cli.Iterations != job.Iterations || cli.Evaluations != job.Evaluations || cli.Solver != job.Solver {
			t.Errorf("%s: CLI %s exec %v after %d iterations, %d evaluations, mapping %v;\njob %s exec %v after %d, %d, mapping %v",
				c.name, cli.Solver, cli.Exec, cli.Iterations, cli.Evaluations, cli.Mapping,
				job.Solver, job.Exec, job.Iterations, job.Evaluations, job.Mapping)
		}
	}
}

func TestRunUnknownSolver(t *testing.T) {
	path := writeInstance(t)
	if err := run(config{in: path, solver: "bogus", opts: api.SolverOptions{Seed: 1, Budget: 100, Restarts: 1}}); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run(config{in: "/nonexistent/instance.json", solver: "match", opts: api.SolverOptions{Seed: 1}}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunCorruptInstance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(config{in: path, solver: "match", opts: api.SolverOptions{Seed: 1}}); err == nil {
		t.Fatal("corrupt instance accepted")
	}
}

func TestRunWritesTrace(t *testing.T) {
	path := writeInstance(t)
	traceOut := filepath.Join(t.TempDir(), "run.trace")
	cfg := fastCfg(path, "match")
	cfg.opts.MaxIterations = 10
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

// TestCheckpointSaveAndResume drives the -checkpoint flag as README
// describes it: a completed 10-iteration run saves a decodable snapshot,
// and a re-run with -max-iters 20 resumes from it and ends bit-identical
// to one uninterrupted -max-iters 20 run.
func TestCheckpointSaveAndResume(t *testing.T) {
	path := writeInstance(t)
	problem := readInstance(t, path)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := fastCfg(path, "match")
	cfg.opts.MaxIterations = 20
	whole, err := solve(jobs.LookupSolver("match"), cfg, problem, nil)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if whole.Iterations <= 10 {
		t.Fatalf("uninterrupted run stopped after %d iterations (%s); the chain must cross the file", whole.Iterations, whole.StopReason)
	}

	cfg.opts.MaxIterations = 10
	cfg.checkpoint = ckpt
	if _, err := solve(jobs.LookupSolver("match"), cfg, problem, nil); err != nil {
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
	if c.Iterations != 10 {
		t.Errorf("checkpoint banked %d iterations, want 10", c.Iterations)
	}

	// Second invocation resumes from the file and extends the run;
	// -max-iters caps the whole chain.
	cfg.opts.MaxIterations = 20
	resumed, err := solve(jobs.LookupSolver("match"), cfg, problem, nil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !slices.Equal(resumed.Mapping, whole.Mapping) || math.Float64bits(resumed.Exec) != math.Float64bits(whole.Exec) ||
		resumed.Iterations != whole.Iterations || resumed.Evaluations != whole.Evaluations {
		t.Errorf("resumed chain: exec %v, %d iterations, %d evaluations, mapping %v;\nuninterrupted: exec %v, %d, %d, mapping %v",
			resumed.Exec, resumed.Iterations, resumed.Evaluations, resumed.Mapping,
			whole.Exec, whole.Iterations, whole.Evaluations, whole.Mapping)
	}
	// The command itself runs the same path: a third invocation resumes
	// the finished chain from the file.
	if err := run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// readInstance decodes the instance file at path.
func readInstance(t *testing.T, path string) *matchsim.Problem {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := matchsim.ReadProblem(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return p
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

// TestCheckpointRejectsMultilevelAndIslands checks the flag is refused
// for match runs the solver table does not resume, before any solve:
// no checkpoint file appears.
func TestCheckpointRejectsMultilevelAndIslands(t *testing.T) {
	path := writeInstanceN(t, 40)
	for name, tune := range map[string]func(*api.SolverOptions){
		"multilevel": func(o *api.SolverOptions) { o.Multilevel, o.MinCoarse = true, 8 },
		"islands":    func(o *api.SolverOptions) { o.Islands = 2 },
	} {
		cfg := fastCfg(path, "match")
		tune(&cfg.opts)
		cfg.checkpoint = filepath.Join(t.TempDir(), "x.ckpt")
		if err := run(cfg); err == nil {
			t.Errorf("-checkpoint with %s accepted", name)
		}
		if _, err := os.Stat(cfg.checkpoint); !os.IsNotExist(err) {
			t.Errorf("-checkpoint with %s left a file behind (stat: %v)", name, err)
		}
	}
}
