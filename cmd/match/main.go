// Command match maps a problem instance (JSON, see matchgen) onto its
// platform with a chosen solver and reports the mapping, its application
// execution time and the per-resource load breakdown.
//
// Usage:
//
//	matchgen -n 20 -seed 7 -out inst.json
//	match -in inst.json -solver match
//	match -in inst.json -solver ga -pop 500 -gens 1000
//	match -in inst.json -solver match -checkpoint run.ckpt
//	match -in inst.json -solver match -islands 4 -migrate-every 10 -blend-alpha 0.2
//	match -top -job j00000001 -daemon http://127.0.0.1:8080
//	match -top -tail run.jsonl
//	match -spans <trace-id or job-id> -daemon http://127.0.0.1:8080
//
// Solvers are the entries of matchd's solver table (jobs.SolverNames),
// run by the same code as a matchd job with the same options: match
// (default, the paper's CE heuristic), match-m2o (many-to-one CE), ga
// (FastMap-GA), random, greedy, local, anneal.
//
// With -checkpoint, a plain match run becomes interruptible: Ctrl-C (or
// SIGTERM) stops the CE loop within one iteration and saves its state to
// the file; re-running the same command resumes from it and ends with
// exactly the result of an uninterrupted run. -max-iters caps the whole
// chain, and the file is also written on normal completion, so a
// finished run can later be extended with a larger -max-iters. The flag
// is refused for other solvers and for -multilevel or -islands runs,
// which do not resume exactly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"matchsim"
	"matchsim/api"
	"matchsim/internal/jobs"
	"matchsim/internal/trace"
)

// config carries every CLI knob into run (tests build it directly).
type config struct {
	in     string
	solver string
	// opts are the solver knobs, as a matchd job would carry them; the
	// solver table turns them into the library call.
	opts    api.SolverOptions
	verbose bool
	// Validation / observability.
	simulate  int
	traceFile string
	// checkpoint names a resumable snapshot file: loaded at start when
	// present, written on interrupt and on completion. Only runs the
	// solver table resumes (plain match) take one.
	checkpoint string
	// matchtop knobs (see top.go): -top switches the command into the live
	// convergence view, fed either by a matchd job's SSE stream (-job,
	// -daemon) or by tailing a trace file (-tail).
	top      bool
	daemon   string
	topJob   string
	tailFile string
	// spansID switches the command into the trace-tree view (see
	// spans.go): fetch one trace from the daemon and print its spans.
	spansID string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.in, "in", "", "instance JSON file (default stdin)")
	flag.StringVar(&cfg.solver, "solver", "match", strings.Join(jobs.SolverNames(), " | "))
	o := &cfg.opts
	flag.Uint64Var(&o.Seed, "seed", 1, "solver seed")
	flag.BoolVar(&cfg.verbose, "v", false, "print per-iteration progress")
	flag.IntVar(&o.SampleSize, "samples", 0, "CE sample size N (default 2n^2)")
	flag.Float64Var(&o.Rho, "rho", 0, "CE focus parameter (default 0.05)")
	flag.Float64Var(&o.Zeta, "zeta", 0, "CE smoothing factor (default 0.3)")
	flag.IntVar(&o.MaxIterations, "max-iters", 0, "CE iteration cap (default 1000)")
	flag.BoolVar(&o.Multilevel, "multilevel", false, "solve through the multilevel coarsen/solve/refine pipeline (large instances)")
	flag.IntVar(&o.MinCoarse, "min-coarse", 0, "multilevel: coarsest instance size (default 128)")
	flag.Float64Var(&o.CoarsenRatio, "coarsen-ratio", 0, "multilevel: abort coarsening when a step keeps more than this vertex fraction (default 0.95)")
	flag.IntVar(&o.RefinePasses, "refine-passes", 0, "multilevel: refinement passes per level (default 8)")
	flag.IntVar(&o.Islands, "islands", 0, "island-model ensemble size I (match solver; 0/1 = single population)")
	flag.StringVar(&o.IslandTopology, "island-topology", "", "island exchange topology: ring | all (default ring)")
	flag.IntVar(&o.MigrateEvery, "migrate-every", 0, "islands: exchange interval in CE iterations (default 10)")
	flag.IntVar(&o.MigrantCount, "migrants", 0, "islands: elite migrants sent per exchange (default 4; negative disables migration)")
	flag.Float64Var(&o.BlendAlpha, "blend-alpha", 0, "islands: peer weight of the P-matrix row blend, in [0,1) (0 disables blending)")
	flag.IntVar(&o.PopulationSize, "pop", 0, "GA population size (default 500)")
	flag.IntVar(&o.Generations, "gens", 0, "GA generations (default 1000)")
	flag.IntVar(&o.Budget, "budget", 10000, "random-search samples")
	flag.IntVar(&o.Restarts, "restarts", 5, "local-search restarts")
	flag.IntVar(&cfg.simulate, "simulate", 0, "after mapping, execute this many supersteps on the discrete-event simulator")
	flag.StringVar(&cfg.traceFile, "trace", "", "write a JSONL run trace to this file")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "checkpoint file of a plain match run: resume from it if present, save on interrupt/finish")
	flag.BoolVar(&cfg.top, "top", false, "matchtop: render a live convergence view instead of solving (needs -job or -tail)")
	flag.StringVar(&cfg.daemon, "daemon", "http://127.0.0.1:8080", "matchd base URL for -top -job")
	flag.StringVar(&cfg.topJob, "job", "", "matchd job ID to watch with -top")
	flag.StringVar(&cfg.tailFile, "tail", "", "JSONL trace file to follow with -top")
	flag.StringVar(&cfg.spansID, "spans", "", "print a trace's span tree from the daemon; takes a trace ID or a job ID")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "match: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.top {
		return runTop(cfg)
	}
	if cfg.spansID != "" {
		return runSpans(cfg, os.Stdout)
	}
	var rd io.Reader = os.Stdin
	if cfg.in != "" {
		f, err := os.Open(cfg.in)
		if err != nil {
			return err
		}
		defer f.Close()
		rd = f
	}
	problem, err := matchsim.ReadProblem(rd)
	if err != nil {
		return fmt.Errorf("reading instance: %w", err)
	}
	s := jobs.LookupSolver(cfg.solver)
	if s == nil {
		return fmt.Errorf("unknown solver %q (want %s)", cfg.solver, strings.Join(jobs.SolverNames(), ", "))
	}
	if cfg.checkpoint != "" && !s.Resumes(cfg.opts) {
		return fmt.Errorf("-checkpoint applies only to plain match runs, without -multilevel or -islands (got solver %q)", cfg.solver)
	}

	var tw *trace.Writer
	if cfg.traceFile != "" {
		f, err := os.Create(cfg.traceFile)
		if err != nil {
			return err
		}
		tw = trace.NewWriter(f)
		if err := tw.Start(cfg.solver, problem.NumTasks(), cfg.opts.Seed); err != nil {
			return err
		}
		defer tw.Close()
	}

	var progress func(matchsim.IterationTrace)
	if cfg.verbose || tw != nil {
		progress = func(tr matchsim.IterationTrace) {
			if cfg.verbose {
				fmt.Fprintf(os.Stderr, "iter %4d  best=%.0f  gamma=%.0f  best-so-far=%.0f\n",
					tr.Iteration, tr.Best, tr.Gamma, tr.BestSoFar)
			}
			if tw != nil {
				tw.Emit(trace.IterEvent(tr))
			}
		}
	}

	sol, err := solve(s, cfg, problem, progress)
	if err != nil {
		return err
	}

	if tw != nil {
		if err := tw.End(sol.Exec, sol.Iterations, sol.Evaluations, sol.MappingTime, sol.StopReason); err != nil {
			return err
		}
	}

	fmt.Printf("solver:       %s\n", sol.Solver)
	fmt.Printf("exec (ET):    %.2f units\n", sol.Exec)
	fmt.Printf("mapping time: %v\n", sol.MappingTime.Round(time.Microsecond))
	if sol.Iterations > 0 {
		fmt.Printf("iterations:   %d\n", sol.Iterations)
	}
	fmt.Printf("evaluations:  %d\n", sol.Evaluations)
	if len(sol.Levels) > 0 {
		fmt.Printf("levels (fine to coarse):\n")
		for i, lv := range sol.Levels {
			fmt.Printf("  level %-2d  n=%-6d m=%-7d exec=%-10.0f coarsen=%-9v solve=%-9v refine=%v (%d swaps)\n",
				i, lv.Tasks, lv.Edges, lv.Exec,
				time.Duration(lv.CoarsenNs).Round(time.Microsecond),
				time.Duration(lv.SolveNs).Round(time.Microsecond),
				time.Duration(lv.RefineNs).Round(time.Microsecond), lv.RefineSwaps)
		}
	}
	fmt.Printf("mapping (task -> resource):\n")
	for task, res := range sol.Mapping {
		fmt.Printf("  task %-3d -> resource %d\n", task, res)
	}

	b, err := problem.Explain(sol.Mapping)
	if err != nil {
		return err
	}
	fmt.Printf("per-resource loads (busiest = resource %d, imbalance %.3f):\n", b.Busiest, b.Imbalance)
	for s, load := range b.Loads {
		fmt.Printf("  resource %-3d  load %10.2f  (compute %.2f + comm %.2f)\n",
			s, load, b.Compute[s], b.Comm[s])
	}

	if cfg.simulate > 0 {
		rep, err := matchsim.Simulate(problem, sol.Mapping, cfg.simulate)
		if err != nil {
			return err
		}
		fmt.Printf("simulated %d supersteps:\n", cfg.simulate)
		fmt.Printf("  analytic ET/step: %10.2f units\n", rep.AnalyticExec)
		fmt.Printf("  simulated step:   %10.2f units (model ratio %.3f)\n", rep.PerStep[0], rep.ModelRatio)
		fmt.Printf("  total makespan:   %10.2f units (%d events)\n", rep.Makespan, rep.Events)
	}
	return nil
}

// solve runs cfg's solver through its table entry, the code a matchd
// job runs. With cfg.checkpoint the run resumes from the file when it
// exists, stops cleanly on SIGINT/SIGTERM, and saves its state back on
// interrupt and on finish.
func solve(s *jobs.Solver, cfg config, problem *matchsim.Problem, progress func(matchsim.IterationTrace)) (*matchsim.Solution, error) {
	h := jobs.Hooks{Context: context.Background(), OnIteration: progress}
	if cfg.checkpoint == "" {
		return s.Run(problem, cfg.opts, h)
	}

	ctx, stop := signal.NotifyContext(h.Context, os.Interrupt, syscall.SIGTERM)
	defer stop()
	h.Context = ctx
	if data, err := os.ReadFile(cfg.checkpoint); err == nil {
		if h.Resume, err = matchsim.DecodeCheckpoint(data); err != nil {
			return nil, fmt.Errorf("loading checkpoint %s: %w", cfg.checkpoint, err)
		}
		fmt.Fprintf(os.Stderr, "match: resuming from %s (%d iterations banked)\n", cfg.checkpoint, h.Resume.Iterations)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	sol, err := s.Run(problem, cfg.opts, h)
	if err != nil {
		return nil, err
	}

	if ckpt := sol.Checkpoint(); ckpt != nil {
		data, err := ckpt.Encode()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.checkpoint, data, 0o644); err != nil {
			return nil, fmt.Errorf("saving checkpoint: %w", err)
		}
		if sol.StopReason == matchsim.StopCancelled {
			fmt.Fprintf(os.Stderr, "match: interrupted after %d iterations; state saved to %s (re-run to resume)\n",
				sol.Iterations, cfg.checkpoint)
		}
	}
	return sol, nil
}
