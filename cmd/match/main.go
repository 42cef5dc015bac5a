// Command match maps a problem instance (JSON, see matchgen) onto its
// platform with a chosen solver and reports the mapping, its application
// execution time and the per-resource load breakdown.
//
// Usage:
//
//	matchgen -n 20 -seed 7 -out inst.json
//	match -in inst.json -solver match
//	match -in inst.json -solver ga -pop 500 -gens 1000
//	match -in inst.json -solver distributed -agents 4
//	match -in inst.json -solver match -checkpoint run.ckpt
//	match -in inst.json -solver match -islands 4 -migrate-every 10 -blend-alpha 0.2
//	match -top -job j00000001 -daemon http://127.0.0.1:8080
//	match -top -tail run.jsonl
//	match -spans <trace-id or job-id> -daemon http://127.0.0.1:8080
//
// Solvers: match (default, the paper's CE heuristic), ga (FastMap-GA),
// distributed (agent-based MaTCH), random, greedy, local, anneal.
//
// With -checkpoint, a MaTCH run becomes interruptible: Ctrl-C (or
// SIGTERM) stops the CE loop within one iteration and saves its state to
// the file; re-running the same command resumes from it and ends with
// exactly the result of an uninterrupted run. -max-iters caps the whole
// chain, and the file is also written on normal completion, so a
// finished run can later be extended with a larger -max-iters.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"matchsim"
	"matchsim/internal/trace"
)

// config carries every CLI knob into run (tests build it directly).
type config struct {
	in      string
	solver  string
	seed    uint64
	verbose bool
	// MaTCH / distributed knobs.
	samples  int
	rho      float64
	zeta     float64
	maxIters int
	agentsN  int
	// Large-instance knobs: the multilevel pipeline.
	multilevel   bool
	minCoarse    int
	coarsenRatio float64
	refinePasses int
	// Island-model knobs (match solver): islands > 1 splits the run into
	// an ensemble of CE islands exchanging elites and blending P rows.
	islands        int
	islandTopology string
	migrateEvery   int
	migrants       int
	blendAlpha     float64
	// GA knobs.
	pop  int
	gens int
	// Baseline knobs.
	budget   int
	restarts int
	// Validation / observability.
	simulate  int
	traceFile string
	// checkpoint names a resumable snapshot file (MaTCH only): loaded at
	// start when present, written on interrupt and on completion.
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
	flag.StringVar(&cfg.solver, "solver", "match", "match | ga | distributed | random | greedy | local | anneal")
	flag.Uint64Var(&cfg.seed, "seed", 1, "solver seed")
	flag.BoolVar(&cfg.verbose, "v", false, "print per-iteration progress")
	flag.IntVar(&cfg.samples, "samples", 0, "CE sample size N (default 2n^2)")
	flag.Float64Var(&cfg.rho, "rho", 0, "CE focus parameter (default 0.05)")
	flag.Float64Var(&cfg.zeta, "zeta", 0, "CE smoothing factor (default 0.3)")
	flag.IntVar(&cfg.maxIters, "max-iters", 0, "CE iteration cap (default 1000)")
	flag.IntVar(&cfg.agentsN, "agents", 0, "distributed agent count (default GOMAXPROCS)")
	flag.BoolVar(&cfg.multilevel, "multilevel", false, "solve through the multilevel coarsen/solve/refine pipeline (large instances)")
	flag.IntVar(&cfg.minCoarse, "min-coarse", 0, "multilevel: coarsest instance size (default 128)")
	flag.Float64Var(&cfg.coarsenRatio, "coarsen-ratio", 0, "multilevel: abort coarsening when a step keeps more than this vertex fraction (default 0.95)")
	flag.IntVar(&cfg.refinePasses, "refine-passes", 0, "multilevel: refinement passes per level (default 8)")
	flag.IntVar(&cfg.islands, "islands", 0, "island-model ensemble size I (match solver; 0/1 = single population)")
	flag.StringVar(&cfg.islandTopology, "island-topology", "", "island exchange topology: ring | all (default ring)")
	flag.IntVar(&cfg.migrateEvery, "migrate-every", 0, "islands: exchange interval in CE iterations (default 10)")
	flag.IntVar(&cfg.migrants, "migrants", 0, "islands: elite migrants sent per exchange (default 4; negative disables migration)")
	flag.Float64Var(&cfg.blendAlpha, "blend-alpha", 0, "islands: peer weight of the P-matrix row blend, in [0,1) (0 disables blending)")
	flag.IntVar(&cfg.pop, "pop", 0, "GA population size (default 500)")
	flag.IntVar(&cfg.gens, "gens", 0, "GA generations (default 1000)")
	flag.IntVar(&cfg.budget, "budget", 10000, "random-search samples")
	flag.IntVar(&cfg.restarts, "restarts", 5, "local-search restarts")
	flag.IntVar(&cfg.simulate, "simulate", 0, "after mapping, execute this many supersteps on the discrete-event simulator")
	flag.StringVar(&cfg.traceFile, "trace", "", "write a JSONL run trace to this file")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "MaTCH checkpoint file: resume from it if present, save on interrupt/finish")
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

	if cfg.checkpoint != "" && cfg.solver != "match" {
		return fmt.Errorf("-checkpoint applies only to the match solver (got %q)", cfg.solver)
	}
	if cfg.islands > 1 && cfg.checkpoint != "" {
		return fmt.Errorf("-checkpoint cannot be combined with -islands (island ensembles are not resumable)")
	}
	if cfg.islands > 1 && cfg.solver != "match" {
		return fmt.Errorf("-islands applies only to the match solver (got %q)", cfg.solver)
	}

	var tw *trace.Writer
	if cfg.traceFile != "" {
		f, err := os.Create(cfg.traceFile)
		if err != nil {
			return err
		}
		tw = trace.NewWriter(f)
		if err := tw.Start(cfg.solver, problem.NumTasks(), cfg.seed); err != nil {
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

	var sol *matchsim.Solution
	switch cfg.solver {
	case "match":
		sol, err = runMatch(problem, cfg, progress)
	case "ga":
		sol, err = matchsim.SolveGA(problem, matchsim.GAOptions{
			PopulationSize: cfg.pop, Generations: cfg.gens, Seed: cfg.seed, OnGeneration: progress,
		})
	case "distributed":
		sol, err = matchsim.SolveDistributed(problem, matchsim.DistributedOptions{
			NumAgents: cfg.agentsN, SampleSize: cfg.samples, Rho: cfg.rho, Zeta: cfg.zeta,
			MaxIterations: cfg.maxIters, Seed: cfg.seed,
		})
	case "random":
		sol, err = matchsim.SolveRandom(problem, cfg.budget, cfg.seed)
	case "greedy":
		sol, err = matchsim.SolveGreedy(problem)
	case "local":
		sol, err = matchsim.SolveLocalSearch(problem, cfg.restarts, cfg.seed)
	case "anneal":
		sol, err = matchsim.SolveAnnealing(problem, matchsim.AnnealingOptions{Seed: cfg.seed})
	default:
		return fmt.Errorf("unknown solver %q", cfg.solver)
	}
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

// runMatch runs the MaTCH solver with optional checkpointing: the run
// resumes from cfg.checkpoint when the file exists, stops cleanly on
// SIGINT/SIGTERM, and saves its state back on interrupt and on finish.
func runMatch(problem *matchsim.Problem, cfg config, progress func(matchsim.IterationTrace)) (*matchsim.Solution, error) {
	opts := matchsim.MaTCHOptions{
		SampleSize: cfg.samples, Rho: cfg.rho, Zeta: cfg.zeta,
		MaxIterations: cfg.maxIters, Seed: cfg.seed, OnIteration: progress,
	}
	if cfg.multilevel {
		opts.Multilevel = &matchsim.MultilevelOptions{
			MinCoarse:    cfg.minCoarse,
			CoarsenRatio: cfg.coarsenRatio,
			RefinePasses: cfg.refinePasses,
		}
	}
	if cfg.islands > 1 {
		opts.Islands = &matchsim.IslandOptions{
			Count:        cfg.islands,
			Topology:     cfg.islandTopology,
			MigrateEvery: cfg.migrateEvery,
			MigrantCount: cfg.migrants,
			BlendAlpha:   cfg.blendAlpha,
		}
	}
	if cfg.checkpoint == "" {
		return matchsim.SolveMaTCH(problem, opts)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Context = ctx

	var sol *matchsim.Solution
	var err error
	if data, readErr := os.ReadFile(cfg.checkpoint); readErr == nil {
		ckpt, decErr := matchsim.DecodeCheckpoint(data)
		if decErr != nil {
			return nil, fmt.Errorf("loading checkpoint %s: %w", cfg.checkpoint, decErr)
		}
		fmt.Fprintf(os.Stderr, "match: resuming from %s (%d iterations banked)\n", cfg.checkpoint, ckpt.Iterations)
		sol, err = matchsim.ResumeMaTCH(problem, ckpt, opts)
	} else if os.IsNotExist(readErr) {
		sol, err = matchsim.SolveMaTCH(problem, opts)
	} else {
		return nil, readErr
	}
	if err != nil {
		return nil, err
	}

	if ckpt := sol.Checkpoint(); ckpt != nil {
		data, encErr := ckpt.Encode()
		if encErr != nil {
			return nil, encErr
		}
		if writeErr := os.WriteFile(cfg.checkpoint, data, 0o644); writeErr != nil {
			return nil, fmt.Errorf("saving checkpoint: %w", writeErr)
		}
		if sol.StopReason == matchsim.StopCancelled {
			fmt.Fprintf(os.Stderr, "match: interrupted after %d iterations; state saved to %s (re-run to resume)\n",
				sol.Iterations, cfg.checkpoint)
		}
	}
	return sol, nil
}
