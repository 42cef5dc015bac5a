// Package core implements MaTCH — Mapping Tasks using the Cross-Entropy
// Heuristic — the paper's primary contribution (Section 4, Figures 4-5).
//
// MaTCH instantiates the generic CE loop (package ce) for the task-mapping
// problem:
//
//   - The sampling distribution is an n x n row-stochastic matrix P, with
//     p_ij the probability of mapping task i to resource j, initialised
//     uniform (P_0 = 1/n everywhere).
//   - Samples are bijective mappings drawn by GenPerm (Fig. 4): tasks are
//     visited in a random order and each draws a resource from its row
//     restricted to the still-unassigned columns. The many-to-one
//     generalisation (ManyToOne) keeps everything else and swaps only this
//     draw rule: each task draws from its own row of the |Vt| x |Vr|
//     matrix (eq. 8).
//   - Performance is the application execution time Exec of eqs. (1)-(2),
//     evaluated by cost.Evaluator; MaTCH minimises it.
//   - The update (eq. 11) sets q_ij to the fraction of elite samples that
//     mapped i to j, then smooths P <- zeta*Q + (1-zeta)*P (eq. 13).
//   - The run stops when each row's maximal element has been stable for c
//     consecutive iterations (eq. 12) — tracked by argmax column, the
//     numerically robust reading of the criterion — or on the generic
//     gamma-stall / iteration-cap conditions.
//
// Sampling and scoring run on the ce worker pool: one Sample call per
// draw runs the alias-table sampler and scores the draw with
// cost.Evaluator.ExecInto. The per-goroutine scratch (sampler and load
// buffer) lives in a sync.Pool so the hot loop is allocation-free after
// warm-up.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"matchsim/internal/ce"
	"matchsim/internal/cost"
	"matchsim/internal/stochmat"
	"matchsim/internal/xrand"
)

// Options tunes one MaTCH run. Zero values take the paper's defaults.
type Options struct {
	// SampleSize is N, the mappings drawn per iteration. Default
	// 2*n^2 — the paper's choice, "because there are |Vr|^2 elements in
	// the matrix and to evaluate each of them we need a sample size of
	// that order".
	SampleSize int
	// Rho is the focus parameter; elite = best floor(Rho*N) samples.
	// The paper chooses 0.01 <= rho <= 0.1; default 0.05.
	Rho float64
	// Zeta is the smoothing factor of eq. (13); default 0.3, the paper's
	// experimental setting.
	Zeta float64
	// StallC is the paper's constant c of eq. (12): the run stops when
	// every row's maximal element has been stable for StallC consecutive
	// iterations. Default 5.
	StallC int
	// MaxIterations caps the CE loop. Default 1000.
	MaxIterations int
	// Workers is the sampling/scoring parallelism. Default GOMAXPROCS;
	// 1 reproduces the paper's sequential execution.
	Workers int
	// Seed determines the run together with Workers.
	Seed uint64
	// SnapshotEvery > 0 records a copy of the stochastic matrix every
	// that-many iterations (plus the final matrix) for Fig. 3 style
	// evolution plots. 0 disables snapshots.
	SnapshotEvery int
	// GammaStallWindow is the generic CE stop of Fig. 2 (quantile
	// unchanged). Default 25: in MaTCH the eq. 12 criterion is the
	// intended stop, so the generic one is kept loose.
	GammaStallWindow int
	// WarmStart, when non-nil, biases the initial stochastic matrix
	// towards the given mapping instead of starting uniform: row i gets
	// warmStartBias extra probability mass on column WarmStart[i]. Use
	// it to seed MaTCH with a greedy or previous solution — an extension
	// beyond the paper's uniform P_0.
	WarmStart cost.Mapping
	// Polish, when true, runs steepest-descent 2-swap local search on the
	// best mapping after the CE loop terminates — a hybrid extension
	// beyond the paper that removes the small residual gaps the eq. 12
	// stop can leave. The extra cost is O(n^2 * deg) per descent step.
	Polish bool
	// Context, when non-nil, cancels the run: the CE loop stops within at
	// most one iteration of cancellation. If at least one iteration
	// completed, Solve returns the best-so-far Result with StopReason
	// ce.StopCancelled (checkpointable via CheckpointFrom); otherwise it
	// returns the context's error. Polish is skipped on cancellation.
	Context context.Context
	// OnIteration, when non-nil, receives telemetry each iteration.
	OnIteration func(ce.IterStats)
	// DiscardHistory leaves Result.History empty (see
	// ce.Config.DiscardHistory), for callers that read iterations through
	// OnIteration only.
	DiscardHistory bool
	// CheckpointEvery > 0, together with OnCheckpoint, exports a resumable
	// Checkpoint every that-many iterations while the run is in flight —
	// the state a supervisor needs to rescue a job whose process dies
	// without a clean shutdown. Export is pure observation on the CE
	// coordinator goroutine (cloned matrix and incumbent, no RNG use), so
	// the search trajectory is bit-identical with it on or off. Only the
	// plain single-population path exports: multilevel and island runs are
	// not resumable and ignore these fields.
	CheckpointEvery int
	// OnCheckpoint receives each exported checkpoint. The callback owns
	// the value (all state is cloned) and runs on the solver goroutine
	// between iterations, so it should return quickly.
	OnCheckpoint func(*Checkpoint)
	// Multilevel, when non-nil, solves through the multilevel pipeline —
	// coarsen the TIG and platform by heavy-edge matching, run CE at the
	// coarse size, then project and refine level by level — instead of
	// running CE at full size. See MultilevelOptions.
	Multilevel *MultilevelOptions
	// Islands, when non-nil with Count > 1, runs the island-model
	// ensemble: Count cooperating CE searches exchanging elites and/or
	// blending P rows every few iterations. See IslandOptions. Mutually
	// exclusive with Multilevel. Count <= 1 is ignored — the run takes
	// the plain single-island path, bit-identical to Islands == nil.
	Islands *IslandOptions
}

func (o Options) withDefaults(n int) Options {
	if o.SampleSize == 0 {
		o.SampleSize = 2 * n * n
	}
	if o.Rho == 0 {
		o.Rho = 0.05
	}
	if o.Zeta == 0 {
		o.Zeta = 0.3
	}
	if o.StallC == 0 {
		o.StallC = 5
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 1000
	}
	if o.GammaStallWindow == 0 {
		o.GammaStallWindow = 25
	}
	return o
}

// ceConfig is the CE loop configuration o describes; o must already carry
// defaults.
func (o Options) ceConfig() ce.Config {
	return ce.Config{
		SampleSize:     o.SampleSize,
		Rho:            o.Rho,
		Zeta:           o.Zeta,
		StallWindow:    o.GammaStallWindow,
		MaxIterations:  o.MaxIterations,
		Workers:        o.Workers,
		Seed:           o.Seed,
		Context:        o.Context,
		OnIteration:    o.OnIteration,
		DiscardHistory: o.DiscardHistory,
	}
}

// warmStartBias is the probability mass a warm start moves onto each
// row's seeded column. The remaining mass stays uniform so the CE search
// can still leave the seed.
const warmStartBias = 0.5

// Snapshot is one recorded state of the stochastic matrix.
type Snapshot struct {
	Iter   int
	Matrix *stochmat.Matrix
}

// Result is the outcome of one MaTCH run.
type Result struct {
	// Mapping is the best mapping found across all iterations.
	Mapping cost.Mapping
	// Exec is its application execution time (eq. 2) — the paper's ET.
	Exec float64
	// Iterations and Evaluations account for the search effort.
	Iterations  int
	Evaluations int64
	// MappingTime is the wall-clock time of the solver — the paper's MT.
	MappingTime time.Duration
	// StopReason records which stopping criterion fired.
	StopReason ce.StopReason
	// History holds per-iteration telemetry.
	History []ce.IterStats
	// Snapshots holds matrix evolution snapshots when requested.
	Snapshots []Snapshot
	// FinalMatrix is the stochastic matrix at termination. Nil for
	// multilevel runs, whose CE matrix lives at the coarse size.
	FinalMatrix *stochmat.Matrix
	// Levels holds per-level telemetry of a multilevel run (nil for
	// single-level runs), ordered fine-to-coarse.
	Levels []LevelStats
	// Islands is the island count of an island-model run (0 for plain
	// runs). History then interleaves all local islands' iterations,
	// ordered by (Iter, Island).
	Islands int

	// Terminal CE loop and eq. 12 state, carried for CheckpointFrom.
	loop            ce.State
	finalArgmax     []int
	finalStableRuns int
}

// problem implements ce.Problem for the mapping COP.
type problem struct {
	eval *cost.Evaluator
	n, r int // tasks (rows of p) and resources (columns of p)
	p    *stochmat.Matrix

	// bijective selects the draw rule: GenPerm permutations (Fig. 4) when
	// set, one independent draw per task from its own row (eq. 8, the
	// many-to-one generalisation) otherwise. Only bijective runs resume.
	bijective bool

	// alias caches the per-row alias tables of p for the sampler.
	// It is rebuilt after every mutation of p (all of which happen on a
	// single goroutine between sampling phases) and read concurrently by
	// the sampling workers.
	alias *stochmat.AliasTable

	counts []float64 // Update scratch: elite assignment frequencies

	scratch sync.Pool // *drawScratch, one per sampling goroutine

	// Sampling telemetry, accumulated by the workers and drained once per
	// iteration by ce.Run (TakeSampleStats). Workers add only when a draw
	// actually produced events, so on converged matrices — where rejection
	// sampling almost never misses — the hot path pays no atomic traffic.
	statRejectTries   atomic.Uint64
	statFallbackDraws atomic.Uint64

	// eq. 12 stopping state.
	stallC     int
	prevArgmax []int
	stableRuns int

	// snapshot state.
	snapshotEvery int
	iter          int
	snapshots     []Snapshot
}

// drawScratch is the per-goroutine state of one draw: the GenPerm sampler
// (bijective runs only) and the load buffer ExecInto scores into.
type drawScratch struct {
	sampler *stochmat.Sampler
	loads   []float64
}

func newProblem(eval *cost.Evaluator, opts Options, bijective bool) *problem {
	n, r := eval.NumTasks(), eval.NumResources()
	pr := &problem{
		eval:          eval,
		n:             n,
		r:             r,
		p:             stochmat.NewUniform(n, r),
		bijective:     bijective,
		stallC:        opts.StallC,
		snapshotEvery: opts.SnapshotEvery,
		prevArgmax:    make([]int, n),
		counts:        make([]float64, n*r),
	}
	pr.alias = stochmat.NewAliasTable(pr.p)
	for i := range pr.prevArgmax {
		pr.prevArgmax[i] = -1
	}
	pr.scratch.New = func() any {
		ds := &drawScratch{loads: make([]float64, r)}
		if bijective {
			ds.sampler = stochmat.NewSampler(n)
		}
		return ds
	}
	if opts.SnapshotEvery > 0 {
		pr.snapshots = append(pr.snapshots, Snapshot{Iter: 0, Matrix: pr.p.Clone()})
	}
	return pr
}

// applyWarmStart re-initialises P_0 with bias mass on the warm mapping's
// columns: p_ij = b + (1-b)/r for j = warm[i], (1-b)/r otherwise, with
// b = warmStartBias. A bijective run needs a permutation.
func (pr *problem) applyWarmStart(warm cost.Mapping) error {
	if len(warm) != pr.n {
		return fmt.Errorf("core: warm start length %d for %d tasks", len(warm), pr.n)
	}
	if err := warm.Validate(pr.r); err != nil {
		return err
	}
	if pr.bijective && !warm.IsPermutation() {
		return fmt.Errorf("core: warm start %v is not a permutation", warm)
	}
	row := make([]float64, pr.r)
	uniform := (1 - warmStartBias) / float64(pr.r)
	for i := 0; i < pr.n; i++ {
		for j := range row {
			row[j] = uniform
		}
		row[warm[i]] += warmStartBias
		if err := pr.p.SetRow(i, row); err != nil {
			return err
		}
	}
	if pr.snapshotEvery > 0 {
		// Replace the initial snapshot with the biased matrix.
		pr.snapshots[0] = Snapshot{Iter: 0, Matrix: pr.p.Clone()}
	}
	pr.alias.Rebuild(pr.p)
	return nil
}

// NewSolution implements ce.Problem.
func (pr *problem) NewSolution() []int { return make([]int, pr.n) }

// Copy implements ce.Problem.
func (pr *problem) Copy(dst, src []int) { copy(dst, src) }

// Sample implements ce.Problem: one draw from the current matrix through
// the alias table, scored by the application execution time (eqs. 1-2).
// A bijective run draws a GenPerm permutation. Otherwise each task's
// resource is drawn independently from its row (eq. 8): one O(1) alias
// draw per task, with no column masking.
func (pr *problem) Sample(rng *xrand.RNG, dst []int) (float64, error) {
	ds := pr.scratch.Get().(*drawScratch)
	var err error
	if pr.bijective {
		err = ds.sampler.SamplePermutation(pr.p, pr.alias, rng, dst)
		pr.drainSamplerStats(ds.sampler)
	} else {
		for task := range dst {
			dst[task] = pr.alias.Sample(task, rng)
		}
	}
	var score float64
	if err == nil {
		score = pr.eval.ExecInto(dst, ds.loads)
	}
	pr.scratch.Put(ds)
	return score, err
}

// drainSamplerStats moves a sampler's local draw counters into the shared
// atomics. Instrumentation only — never touches the RNG or the draw.
func (pr *problem) drainSamplerStats(s *stochmat.Sampler) {
	st := s.TakeStats()
	if st.RejectTries > 0 {
		pr.statRejectTries.Add(st.RejectTries)
	}
	if st.FallbackDraws > 0 {
		pr.statFallbackDraws.Add(st.FallbackDraws)
	}
}

// TakeSampleStats implements ce.SampleStatsProvider: drain and reset the
// per-iteration sampling counters. Called from the CE loop's
// single-threaded select phase, after the iteration barrier.
func (pr *problem) TakeSampleStats() ce.SampleStats {
	return ce.SampleStats{
		RejectTries:   pr.statRejectTries.Swap(0),
		FallbackDraws: pr.statFallbackDraws.Swap(0),
	}
}

// Update implements ce.Problem: eq. (11) re-estimation + eq. (13)
// smoothing, plus the eq. (12) stability bookkeeping and Fig. 3
// snapshotting.
func (pr *problem) Update(elite [][]int, zeta float64) error {
	if len(elite) == 0 {
		return fmt.Errorf("core: empty elite set")
	}
	pr.iter++
	// q_ij = (# elite with X_i = j) / |elite|. The counts buffer is
	// reused across iterations; at n = 256 a per-iteration allocation
	// would be 512 KiB of garbage per update.
	if err := pr.p.SmoothElite(elite, pr.counts, zeta); err != nil {
		return fmt.Errorf("core: update: %w", err)
	}
	pr.alias.Rebuild(pr.p)

	// eq. 12: track stability of each row's maximal element.
	stable := true
	for i := 0; i < pr.n; i++ {
		col, _ := pr.p.MaxRow(i)
		if col != pr.prevArgmax[i] {
			stable = false
			pr.prevArgmax[i] = col
		}
	}
	if stable {
		pr.stableRuns++
	} else {
		pr.stableRuns = 0
	}

	if pr.snapshotEvery > 0 && pr.iter%pr.snapshotEvery == 0 {
		pr.snapshots = append(pr.snapshots, Snapshot{Iter: pr.iter, Matrix: pr.p.Clone()})
	}
	return nil
}

// Converged implements ce.Problem: eq. (12) with c = stallC.
func (pr *problem) Converged() bool { return pr.stableRuns >= pr.stallC }

// Solve runs MaTCH on the mapping problem described by eval.
func Solve(eval *cost.Evaluator, opts Options) (*Result, error) {
	n := eval.NumTasks()
	if n < 1 {
		return nil, fmt.Errorf("core: empty task set")
	}
	if eval.NumResources() != n {
		return nil, fmt.Errorf("core: MaTCH requires |Vt| = |Vr| (got %d tasks, %d resources); see ManyToOne for the general case",
			n, eval.NumResources())
	}
	if opts.Islands != nil && opts.Islands.Count > 1 {
		if opts.Multilevel != nil {
			return nil, fmt.Errorf("core: islands cannot be combined with the multilevel pipeline")
		}
		return solveIslands(eval, opts)
	}
	if opts.Multilevel != nil {
		return solveMultilevel(eval, opts)
	}
	return solveFromProblem(eval, opts.withDefaults(n), true, nil)
}

// solveFromProblem builds the problem with the given draw rule, applies
// opts.WarmStart, and runs the CE loop — from the checkpoint from when it
// is non-nil. opts must already carry defaults.
func solveFromProblem(eval *cost.Evaluator, opts Options, bijective bool, from *Checkpoint) (*Result, error) {
	pr := newProblem(eval, opts, bijective)
	if opts.WarmStart != nil {
		if err := pr.applyWarmStart(opts.WarmStart); err != nil {
			return nil, err
		}
	}
	var start ce.State
	if from != nil {
		start = pr.restore(from)
	}

	// Periodic checkpoint export, after the iteration's Update, so the
	// matrix and eq. 12 state are the post-iteration ones a resume wants.
	var onState ce.StateFunc
	if opts.CheckpointEvery > 0 && opts.OnCheckpoint != nil {
		onState = func(st ce.State) {
			if st.Iterations%opts.CheckpointEvery == 0 {
				opts.OnCheckpoint(newCheckpoint(pr.p, pr.prevArgmax, pr.stableRuns, st))
			}
		}
	}

	began := time.Now()
	ceRes, err := ce.RunFrom(pr, opts.ceConfig(), start, onState)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(began)

	if opts.SnapshotEvery > 0 {
		// Always include the terminal matrix.
		last := pr.snapshots[len(pr.snapshots)-1]
		if last.Iter != pr.iter {
			pr.snapshots = append(pr.snapshots, Snapshot{Iter: pr.iter, Matrix: pr.p.Clone()})
		}
	}

	res := &Result{
		Mapping:     cost.Mapping(ceRes.Best),
		Exec:        ceRes.BestScore,
		Iterations:  ceRes.Iterations,
		Evaluations: ceRes.Evaluations,
		MappingTime: elapsed,
		StopReason:  ceRes.StopReason,
		History:     ceRes.History,
		Snapshots:   pr.snapshots,
		FinalMatrix: pr.p,
	}
	if bijective {
		if !res.Mapping.IsPermutation() {
			return nil, fmt.Errorf("core: internal error — best mapping is not a permutation: %v", res.Mapping)
		}
		res.loop, res.finalArgmax, res.finalStableRuns = ceRes.State, pr.prevArgmax, pr.stableRuns
	}
	if opts.Polish && res.StopReason != ce.StopCancelled {
		if err := polish(eval, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// polish applies steepest-descent 2-swap local search to res.Mapping,
// updating Exec, Evaluations and MappingTime in place.
func polish(eval *cost.Evaluator, res *Result) error {
	start := time.Now()
	st, err := cost.NewState(eval, res.Mapping)
	if err != nil {
		return err
	}
	exec, probes, err := st.Descend(nil)
	if err != nil {
		return err
	}
	res.Mapping = st.Mapping()
	res.Exec = exec
	res.Evaluations += probes
	res.MappingTime += time.Since(start)
	return nil
}
