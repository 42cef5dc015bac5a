package matchsim

import (
	"context"
	"time"

	"matchsim/internal/ce"
	"matchsim/internal/core"
	"matchsim/internal/ga"
	"matchsim/internal/heuristics"
	"matchsim/internal/island"
)

// Solution is the common result type of every solver.
type Solution struct {
	// Mapping assigns each task to a resource: Mapping[task] = resource.
	Mapping []int
	// Exec is the application execution time of the mapping (the paper's
	// ET, in abstract cost units).
	Exec float64
	// MappingTime is the solver's wall-clock time (the paper's MT).
	MappingTime time.Duration
	// Iterations counts CE iterations or GA generations (0 for one-shot
	// heuristics).
	Iterations int
	// Evaluations counts cost-function evaluations.
	Evaluations int64
	// Solver names the algorithm that produced the solution.
	Solver string
	// StopReason records why the run ended: "completed" for solvers that
	// ran to their natural termination, "cancelled" when the options'
	// Context cut the run short, or the CE-specific reasons
	// ("distribution-converged", "gamma-stall", "max-iterations").
	StopReason string
	// Levels holds per-level telemetry of a multilevel MaTCH run, ordered
	// fine-to-coarse; nil for single-level runs and other solvers.
	Levels []LevelStats

	// coreRes retains the CE engine state of a SolveMaTCH/ResumeMaTCH run
	// so Checkpoint can extract a resumable snapshot.
	coreRes *core.Result
}

// StopCancelled is the Solution.StopReason of a run cut short by its
// options' Context.
const StopCancelled = string(ce.StopCancelled)

// Checkpoint is a resumable snapshot of a MaTCH (CE) run: the stochastic
// matrix, the eq. 12 stability bookkeeping, the CE loop's iteration index
// and gamma-stall window, and the incumbent mapping. It serialises with
// Encode and restores with DecodeCheckpoint + ResumeMaTCH.
type Checkpoint = core.Checkpoint

// CheckpointVersion is the checkpoint format ResumeMaTCH accepts.
const CheckpointVersion = core.CheckpointVersion

// DecodeCheckpoint parses and validates a checkpoint produced by
// (*Checkpoint).Encode.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	return core.DecodeCheckpoint(data)
}

// VerifyCheckpoint checks that c fits p and that its incumbent's score is
// the one p computes, bit for bit.
func (p *Problem) VerifyCheckpoint(c *Checkpoint) error { return c.Verify(p.eval) }

// Checkpoint extracts a resumable snapshot from a MaTCH solution —
// including one returned early by a cancelled Context. It returns nil for
// solutions produced by other solvers (GA, baselines, many-to-one), which
// carry no CE state.
func (s *Solution) Checkpoint() *Checkpoint {
	if s.coreRes == nil {
		return nil
	}
	return core.CheckpointFrom(s.coreRes)
}

// IterationTrace is per-iteration telemetry passed to option callbacks.
// The solver-internals block is populated by the CE solvers only; the GA
// and baselines report just the score summary.
type IterationTrace struct {
	Iteration int
	// Gamma is the CE elite threshold gamma_k (0 for the GA).
	Gamma float64
	// Best, Mean and Worst summarise the iteration's sample scores.
	Best, Mean, Worst float64
	// BestSoFar is the running optimum.
	BestSoFar float64
	// EliteCount is the size of the iteration's elite set.
	EliteCount int
	// Draws is the number of samples drawn (every one scored exactly).
	Draws int
	// Deprecated: Pruned, Rescored and SkippedEdges counted the work of
	// the gamma-pruned scorer, which no longer exists; they are always 0
	// and remain only so existing readers keep compiling.
	Pruned, Rescored int
	// RejectTries and FallbackDraws are GenPerm sampler counters: masked
	// rejection-sampling misses and draws resolved through the compact
	// fallback.
	RejectTries, FallbackDraws uint64
	// Deprecated: always 0; see Pruned.
	SkippedEdges uint64
	// SampleNs, SelectNs and UpdateNs are the iteration's phase timings:
	// the sample/score barrier, elite selection, and the distribution
	// update.
	SampleNs, SelectNs, UpdateNs int64
	// StealUnits and IdleNs describe the sampling pool's load balance:
	// work units claimed beyond an even share, and summed worker idle
	// time at the iteration barrier.
	StealUnits int
	IdleNs     int64
	// Deprecated: RebuiltRows and SkippedRows counted the sampling-table
	// row rebuilds of the sparse-row update, which no longer exists; they
	// are always 0 and remain only so existing readers keep compiling.
	RebuiltRows, SkippedRows uint64
	// Island labels which island of an island-model run produced this
	// iteration (0 outside island runs); MigrantsIn/MigrantsOut count the
	// elite mappings received/published in the exchange that followed the
	// iteration, and BlendRounds the P-row blending applications.
	Island, MigrantsIn, MigrantsOut, BlendRounds int
}

// MultilevelOptions tunes the multilevel MaTCH pipeline: coarsen the TIG
// and the platform in lockstep by heavy-edge / cheapest-link matching,
// solve the coarse instance with CE, then project the solution back up
// the ladder with 2-swap refinement at every level. Because the CE
// sample budget N = 2n^2 is paid at the coarse n, instances with tens of
// thousands of tasks become solvable in seconds. Zero values take the
// defaults documented per field.
type MultilevelOptions = core.MultilevelOptions

// LevelStats is per-level telemetry of a multilevel run, ordered
// fine-to-coarse (index 0 is the original instance).
type LevelStats = core.LevelStats

// IslandTransport moves exchange packets between cooperating islands;
// see IslandOptions.Transport. The in-memory default suffices inside one
// process — matchd wires an HTTP-backed implementation for multi-node
// jobs.
type IslandTransport = island.Transport

// IslandOptions runs MaTCH as an island-model ensemble: Count
// independent CE searches over private stochastic matrices (each island
// draws SampleSize/Count mappings per iteration from RNG streams keyed
// (seed, island, iter, unit)), exchanging state every MigrateEvery
// iterations — elite-mapping migration folded in through one extra
// eq. (13) step, and/or convex P-row blending. Results are
// bit-reproducible per (Seed, Topology, Count) regardless of worker
// counts or scheduling. Island runs are not checkpointable and do not
// combine with Multilevel.
type IslandOptions = core.IslandOptions

// MaTCHOptions tunes the MaTCH solver. Zero values take the paper's
// defaults: N = 2n^2 samples per iteration, rho = 0.05, zeta = 0.3,
// stall constant c = 5.
type MaTCHOptions struct {
	// SampleSize is N, the mappings drawn per CE iteration.
	SampleSize int
	// Rho is the focus parameter in (0, 0.5].
	Rho float64
	// Zeta is the smoothing factor of eq. (13) in (0, 1].
	Zeta float64
	// StallC is the eq. (12) stability constant.
	StallC int
	// GammaStallWindow is the generic CE quantile-stall stop (default
	// 25 iterations without gamma improving). Raise it together with
	// StallC and MaxIterations for effectively unbounded runs that end
	// only by convergence or cancellation.
	GammaStallWindow int
	// MaxIterations caps the CE loop (default 1000).
	MaxIterations int
	// Workers parallelises sampling and scoring (default GOMAXPROCS).
	Workers int
	// Seed makes the run deterministic together with Workers.
	Seed uint64
	// WarmStart, when non-nil, biases the initial sampling distribution
	// towards this mapping (must be a permutation of the task set) —
	// e.g. the result of SolveGreedy or a previous run.
	WarmStart []int
	// Polish runs 2-swap local descent on the best mapping after the CE
	// loop ends (hybrid extension; only applies to SolveMaTCH).
	Polish bool
	// Multilevel, when non-nil, routes the solve through the multilevel
	// coarsen/solve/refine pipeline — the large-n configuration. Such
	// runs are not checkpointable and report per-level stats in
	// Solution.Levels.
	Multilevel *MultilevelOptions
	// Islands, when non-nil with Count > 1, runs the island-model
	// ensemble; see IslandOptions. Mutually exclusive with Multilevel.
	Islands *IslandOptions
	// Deprecated: SparseEps selected the sparse-row distribution update,
	// which no longer exists; it is ignored and remains only so existing
	// callers keep compiling.
	SparseEps float64
	// Context, when non-nil, cancels the run: the solver stops within at
	// most one iteration. A run with at least one completed iteration
	// returns its best-so-far Solution with StopReason "cancelled" (and,
	// for SolveMaTCH, a non-nil Checkpoint); earlier cancellation returns
	// the context's error.
	Context context.Context
	// OnIteration, when non-nil, receives telemetry each iteration.
	OnIteration func(IterationTrace)
	// CheckpointEvery > 0, together with OnCheckpoint, exports a resumable
	// Checkpoint every that-many iterations while the solve is running, so
	// a supervisor can rescue the job if the process dies without a clean
	// shutdown. Export never perturbs the search (results stay
	// bit-identical). Only plain single-population runs export; multilevel
	// and island runs ignore these fields.
	CheckpointEvery int
	// OnCheckpoint receives each exported checkpoint (caller owns it). It
	// runs on the solver goroutine between iterations.
	OnCheckpoint func(*Checkpoint)
}

// SolveMaTCH runs the paper's primary contribution on the problem.
// It requires |Vt| = |Vr| (the paper's experimental setting); use
// SolveMaTCHManyToOne for the general case.
func SolveMaTCH(p *Problem, opts MaTCHOptions) (*Solution, error) {
	res, err := core.Solve(p.evaluator(), coreOptions(opts))
	if err != nil {
		return nil, err
	}
	return matchSolution(res), nil
}

// ResumeMaTCH continues a checkpointed MaTCH run on the same problem.
// Under the options of the run that wrote the checkpoint (Workers may
// differ) the Solution is bit-identical to that run left uninterrupted:
// MaxIterations caps the whole chain, and Iterations and Evaluations
// count it. Checkpoints older than CheckpointVersion, and multilevel or
// island options, are rejected.
func ResumeMaTCH(p *Problem, c *Checkpoint, opts MaTCHOptions) (*Solution, error) {
	res, err := core.Resume(p.evaluator(), c, coreOptions(opts))
	if err != nil {
		return nil, err
	}
	return matchSolution(res), nil
}

func matchSolution(res *core.Result) *Solution {
	s := &Solution{
		Mapping:     res.Mapping,
		Exec:        res.Exec,
		MappingTime: res.MappingTime,
		Iterations:  res.Iterations,
		Evaluations: res.Evaluations,
		Solver:      "MaTCH",
		StopReason:  string(res.StopReason),
		coreRes:     res,
	}
	if res.Islands > 0 {
		s.Solver = "MaTCH-islands"
	}
	if len(res.Levels) > 0 {
		s.Solver = "MaTCH-multilevel"
		s.Levels = res.Levels
	}
	return s
}

// SolveMaTCHManyToOne runs the generalised MaTCH that permits any number
// of tasks per resource (|Vt| independent of |Vr|).
func SolveMaTCHManyToOne(p *Problem, opts MaTCHOptions) (*Solution, error) {
	res, err := core.ManyToOne(p.evaluator(), coreOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Solution{
		Mapping:     res.Mapping,
		Exec:        res.Exec,
		MappingTime: res.MappingTime,
		Iterations:  res.Iterations,
		Evaluations: res.Evaluations,
		Solver:      "MaTCH-many-to-one",
		StopReason:  string(res.StopReason),
	}, nil
}

func coreOptions(opts MaTCHOptions) core.Options {
	o := core.Options{
		SampleSize:       opts.SampleSize,
		Rho:              opts.Rho,
		Zeta:             opts.Zeta,
		StallC:           opts.StallC,
		GammaStallWindow: opts.GammaStallWindow,
		MaxIterations:    opts.MaxIterations,
		Workers:          opts.Workers,
		Seed:             opts.Seed,
		WarmStart:        opts.WarmStart,
		Polish:           opts.Polish,
		Context:          opts.Context,
		CheckpointEvery:  opts.CheckpointEvery,
		OnCheckpoint:     opts.OnCheckpoint,
		Multilevel:       opts.Multilevel,
		Islands:          opts.Islands,
		// A Solution exposes no per-iteration history: OnIteration is the
		// only way to read iterations, so the solver keeps none.
		DiscardHistory: true,
	}
	if opts.OnIteration != nil {
		cb := opts.OnIteration
		o.OnIteration = func(st ce.IterStats) {
			cb(IterationTrace{
				Iteration:     st.Iter,
				Gamma:         st.Gamma,
				Best:          st.Best,
				Mean:          st.Mean,
				Worst:         st.Worst,
				BestSoFar:     st.BestSoFar,
				EliteCount:    st.EliteCount,
				Draws:         st.Draws,
				RejectTries:   st.RejectTries,
				FallbackDraws: st.FallbackDraws,
				SampleNs:      st.SampleNs,
				SelectNs:      st.SelectNs,
				UpdateNs:      st.UpdateNs,
				StealUnits:    st.StealUnits,
				IdleNs:        st.IdleNs,
				Island:        st.Island,
				MigrantsIn:    st.MigrantsIn,
				MigrantsOut:   st.MigrantsOut,
				BlendRounds:   st.BlendRounds,
			})
		}
	}
	return o
}

// GAOptions tunes the FastMap-GA baseline. Zero values take the paper's
// experimental configuration: population 500, 1000 generations, crossover
// probability 0.85, mutation probability 0.07, elitism on.
type GAOptions struct {
	PopulationSize int
	Generations    int
	CrossoverProb  float64
	MutationProb   float64
	// Workers parallelises fitness evaluation (default GOMAXPROCS).
	Workers int
	Seed    uint64
	// Context, when non-nil, cancels the run at generation granularity
	// (same contract as MaTCHOptions.Context).
	Context context.Context
	// OnGeneration, when non-nil, receives telemetry each generation.
	OnGeneration func(IterationTrace)
}

// SolveGA runs the FastMap-GA baseline (Section 5.1 of the paper).
func SolveGA(p *Problem, opts GAOptions) (*Solution, error) {
	o := ga.Options{
		PopulationSize: opts.PopulationSize,
		Generations:    opts.Generations,
		CrossoverProb:  opts.CrossoverProb,
		MutationProb:   opts.MutationProb,
		Workers:        opts.Workers,
		Seed:           opts.Seed,
		Context:        opts.Context,
	}
	if opts.OnGeneration != nil {
		cb := opts.OnGeneration
		o.OnGeneration = func(g ga.GenStats) {
			cb(IterationTrace{
				Iteration: g.Gen,
				Best:      g.BestExec,
				Mean:      g.MeanExec,
				Worst:     g.WorstExec,
				BestSoFar: g.BestSoFar,
			})
		}
	}
	res, err := ga.Solve(p.evaluator(), o)
	if err != nil {
		return nil, err
	}
	stop := "completed"
	if res.Cancelled {
		stop = StopCancelled
	}
	return &Solution{
		Mapping:     res.Mapping,
		Exec:        res.Exec,
		MappingTime: res.MappingTime,
		Iterations:  res.Generations,
		Evaluations: res.Evaluations,
		Solver:      "FastMap-GA",
		StopReason:  stop,
	}, nil
}

// SolveRandom draws `samples` uniform random mappings and keeps the best.
func SolveRandom(p *Problem, samples int, seed uint64) (*Solution, error) {
	return SolveRandomContext(context.Background(), p, samples, seed)
}

// SolveRandomContext is SolveRandom with cancellation: ctx aborts the
// search between draws.
func SolveRandomContext(ctx context.Context, p *Problem, samples int, seed uint64) (*Solution, error) {
	res, err := heuristics.RandomSearch(ctx, p.evaluator(), samples, seed)
	if err != nil {
		return nil, err
	}
	return baselineSolution(res, "RandomSearch"), nil
}

// SolveGreedy builds a mapping constructively, heaviest task first.
func SolveGreedy(p *Problem) (*Solution, error) {
	res, err := heuristics.Greedy(p.evaluator())
	if err != nil {
		return nil, err
	}
	return baselineSolution(res, "Greedy"), nil
}

// SolveLocalSearch runs steepest-descent 2-swap hill climbing with the
// given number of random restarts.
func SolveLocalSearch(p *Problem, restarts int, seed uint64) (*Solution, error) {
	return SolveLocalSearchContext(context.Background(), p, restarts, seed)
}

// SolveLocalSearchContext is SolveLocalSearch with cancellation: ctx
// aborts the search between descent steps.
func SolveLocalSearchContext(ctx context.Context, p *Problem, restarts int, seed uint64) (*Solution, error) {
	res, err := heuristics.LocalSearch(ctx, p.evaluator(), restarts, seed)
	if err != nil {
		return nil, err
	}
	return baselineSolution(res, "LocalSearch"), nil
}

// AnnealingOptions tunes SolveAnnealing; zero values derive sensible
// defaults from the instance.
type AnnealingOptions struct {
	InitialTemp float64
	CoolingRate float64
	Steps       int
	Seed        uint64
	// Context, when non-nil, cancels the schedule between moves.
	Context context.Context
}

// SolveAnnealing runs Metropolis simulated annealing over 2-swap moves.
func SolveAnnealing(p *Problem, opts AnnealingOptions) (*Solution, error) {
	res, err := heuristics.SimulatedAnnealing(p.evaluator(), heuristics.AnnealOptions{
		InitialTemp: opts.InitialTemp,
		CoolingRate: opts.CoolingRate,
		Steps:       opts.Steps,
		Seed:        opts.Seed,
		Context:     opts.Context,
	})
	if err != nil {
		return nil, err
	}
	return baselineSolution(res, "SimulatedAnnealing"), nil
}

func baselineSolution(res *heuristics.Result, name string) *Solution {
	return &Solution{
		Mapping:     res.Mapping,
		Exec:        res.Exec,
		MappingTime: res.MappingTime,
		Evaluations: res.Evaluations,
		Solver:      name,
		StopReason:  "completed",
	}
}
