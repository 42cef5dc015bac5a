// Package ce implements the generic Cross-Entropy method for combinatorial
// optimisation — the algorithmic skeleton of the paper's Figure 2 that
// MaTCH instantiates for the mapping problem.
//
// The CE method iterates two steps:
//
//  1. Generate N random solutions from the current parameterised
//     distribution f(.; v_k).
//  2. Score them, keep the elite (the best rho-fraction, thresholded by
//     the sample quantile gamma_k), and re-estimate the distribution
//     parameters from the elite, smoothing the update with factor zeta
//     (P_{k+1} = zeta*Q + (1-zeta)*P_k).
//
// The loop stops when the quantile sequence gamma_k stalls for a window of
// iterations (Fig. 2 step 4), when the problem reports its distribution
// has degenerated (MaTCH's eq. 12 row-maximum criterion), or at an
// iteration cap.
//
// A note on the elite direction: the paper's Figure 5 orders scores
// descending and thresholds at index floor(rho*N), which for minimisation
// would select the *worst* samples. Following the CE tutorial the paper
// cites ([8], de Boer et al.) and the visible intent of eq. (11)
// (I{S(X) <= gamma}), this implementation takes the elite to be the best
// floor(rho*N) samples: gamma_k is the rho-quantile of scores in the
// improving direction. EXPERIMENTS.md records the discrepancy.
//
// Sampling and scoring run on a persistent work-stealing pool (see
// samplePool): Workers long-lived goroutines claim small work units from
// an atomic cursor, and every unit's RNG stream is keyed to (seed,
// iteration, unit index), so results are deterministic for a fixed seed
// regardless of the worker count or the stealing schedule, and the hot
// loop does not allocate.
package ce

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"
)
import "matchsim/internal/xrand"

// Problem is one combinatorial optimisation problem expressed in CE form.
// The type parameter S is the solution representation (e.g. []int for
// mappings, []bool for cuts). Sample is called concurrently from multiple
// workers and must not mutate shared problem state; Update is called from
// a single goroutine between iterations.
type Problem[S any] interface {
	// NewSolution allocates one blank solution buffer. The framework
	// allocates N of them once and reuses them every iteration.
	NewSolution() S
	// Sample overwrites dst with one draw from the current distribution,
	// using the provided per-worker RNG, and returns the draw's
	// performance S(x) — one call per draw, the whole CE hot path.
	Sample(rng *xrand.RNG, dst S) (score float64, err error)
	// Update re-estimates the sampling distribution from the elite
	// solutions, applying smoothing factor zeta per eq. (13).
	Update(elite []S, zeta float64) error
	// Converged reports whether the sampling distribution has degenerated
	// (problem-specific; return false to rely on the gamma stall alone).
	Converged() bool
	// Copy copies src into dst (both allocated by NewSolution); the
	// framework uses it to keep the best-so-far solution.
	Copy(dst, src S)
}

// SampleStats aggregates per-iteration sampling telemetry a Problem may
// expose: rejection-sampling behaviour — the acceptance diagnostics De
// Boer et al.'s CE tutorial watches alongside the gamma trajectory.
type SampleStats struct {
	// RejectTries counts fast-path draws rejected because they landed on
	// an already-assigned column.
	RejectTries uint64
	// FallbackDraws counts task assignments that exhausted the rejection
	// budget and resolved through the exact compact draw.
	FallbackDraws uint64
}

// SampleStatsProvider is an optional Problem extension. When implemented,
// Run calls TakeSampleStats once per iteration — after the sampling
// barrier, from the coordinator goroutine — and folds the returned
// counters into that iteration's IterStats. Implementations accumulate
// across concurrent Sample calls (atomics are the usual choice) and reset
// on Take.
type SampleStatsProvider interface {
	TakeSampleStats() SampleStats
}

// Config tunes one CE run. Zero-valued fields take the documented
// defaults via (*Config).withDefaults.
type Config struct {
	// SampleSize is N, the draws per iteration (MaTCH uses 2*n^2).
	SampleSize int
	// Rho is the focus parameter: the elite is the best floor(Rho*N)
	// samples. The paper recommends 0.01 <= rho <= 0.1; default 0.05.
	Rho float64
	// Zeta is the smoothing factor of eq. (13); default 0.3 (the paper's
	// experimental setting). Zeta = 1 disables smoothing.
	Zeta float64
	// DynamicSmoothing, when true, replaces the constant Zeta with the
	// iteration-dependent schedule zeta_k = Zeta * (1 - (1 - 1/k)^q)
	// recommended by Rubinstein for avoiding premature convergence: early
	// iterations smooth aggressively, later ones let the distribution
	// settle. q is DynamicSmoothingQ.
	DynamicSmoothing bool
	// DynamicSmoothingQ is the schedule exponent (typical 5..10);
	// default 7.
	DynamicSmoothingQ float64
	// StallWindow stops the run when gamma_k is unchanged for this many
	// consecutive iterations; default 5 (the paper's c).
	StallWindow int
	// MaxIterations caps the loop regardless of convergence, counting the
	// iterations of the run a RunFrom start state continues; default 1000.
	MaxIterations int
	// Workers sets the sampling/scoring parallelism; default GOMAXPROCS.
	// Workers = 1 gives a fully sequential run. The worker count does not
	// affect results: RNG streams are keyed to work units, not workers.
	Workers int
	// Seed makes the run deterministic (for any Workers value).
	Seed uint64
	// Minimize selects the optimisation direction; MaTCH minimises.
	Minimize bool
	// Context, when non-nil, cancels the run: workers poll it while
	// sampling and the loop checks it at iteration boundaries, so a
	// cancelled run stops within (at most) one iteration. If at least one
	// iteration completed the best-so-far result is returned with
	// StopCancelled; a run cancelled before its first iteration finishes
	// returns the context's error instead.
	Context context.Context
	// OnIteration, when non-nil, receives telemetry after each iteration.
	OnIteration func(IterStats)
	// DiscardHistory leaves Result.History empty, for a caller that reads
	// iterations through OnIteration only: the slice otherwise grows by
	// one IterStats per iteration for as long as the run lasts.
	DiscardHistory bool

	// Island labels this run's IterStats.Island — the index of this run
	// within an island-model ensemble (see RunIslands). Purely a label;
	// the exchange hook itself rides on IslandRun (Config is not generic
	// over the solution type).
	Island int
}

// ExchangeFunc is the island-exchange hook (see IslandRun). It runs on
// the coordinator goroutine between iterations — the same goroutine that
// calls Update — so it may safely mutate the problem's sampling
// distribution; that is its purpose: publish the local elite, block for
// peer state, and fold it in (migrant injection, P-row blending). elite
// holds the iteration's elite solutions best-first with their scores;
// both are reused buffers, so anything shared with peers must be copied.
// The returned ExchangeResult reports what was folded in; migrants in
// In/InScores better than the incumbent become the new best-so-far. An
// error aborts the run unless ctx is already cancelled, in which case
// the run finalises as cancelled with the incumbent result.
type ExchangeFunc[S any] func(ctx context.Context, iter int, elite []S, scores []float64) (ExchangeResult[S], error)

// ExchangeResult is what an ExchangeFunc folded into the local search.
type ExchangeResult[S any] struct {
	// In holds the immigrant solutions injected this round, with their
	// scores in InScores (len(InScores) == len(In)); the framework only
	// reads them to maintain best-so-far, ownership stays with the hook.
	In       []S
	InScores []float64
	// Out counts the elite solutions published to peers this round.
	Out int
	// BlendRounds counts P-blending applications this round (0 or 1).
	BlendRounds int
}

func (c Config) withDefaults() Config {
	if c.SampleSize == 0 {
		c.SampleSize = 1000
	}
	if c.Rho == 0 {
		c.Rho = 0.05
	}
	if c.Zeta == 0 {
		c.Zeta = 0.3
	}
	if c.StallWindow == 0 {
		c.StallWindow = 5
	}
	if c.DynamicSmoothingQ == 0 {
		c.DynamicSmoothingQ = 7
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 1000
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.SampleSize < 1:
		return fmt.Errorf("ce: sample size %d < 1", c.SampleSize)
	case c.Rho <= 0 || c.Rho > 0.5:
		return fmt.Errorf("ce: focus parameter rho=%v outside (0, 0.5]", c.Rho)
	case c.Zeta <= 0 || c.Zeta > 1:
		return fmt.Errorf("ce: smoothing factor zeta=%v outside (0, 1]", c.Zeta)
	case c.StallWindow < 1:
		return fmt.Errorf("ce: stall window %d < 1", c.StallWindow)
	case c.MaxIterations < 1:
		return fmt.Errorf("ce: iteration cap %d < 1", c.MaxIterations)
	case c.Workers < 1:
		return fmt.Errorf("ce: worker count %d < 1", c.Workers)
	}
	return nil
}

// IterStats is per-iteration telemetry. Every draw is scored exactly, so
// Best, Worst and Mean summarise all Draws scores of the iteration.
type IterStats struct {
	Iter       int
	Gamma      float64 // elite threshold gamma_k
	Best       float64 // best score this iteration
	Worst      float64 // worst score this iteration
	Mean       float64 // mean score this iteration
	BestSoFar  float64
	EliteCount int
	// Draws is the number of samples drawn this iteration (Config.SampleSize).
	Draws int

	// Sampling counters from the problem's SampleStatsProvider (zero when
	// the problem does not implement it).
	RejectTries   uint64
	FallbackDraws uint64

	// Phase timings: the sample/score barrier, selection (quantile
	// extraction and aggregation), and the distribution update (eq. 13
	// smoothing plus lookup-table rebuilds).
	SampleNs int64
	SelectNs int64
	UpdateNs int64

	// Worker-pool behaviour during the sampling barrier: work units
	// claimed beyond an even share (stolen from slower workers) and total
	// worker idle time at the barrier.
	StealUnits int
	IdleNs     int64

	// Island-model fields (zero outside island runs). Island labels which
	// island produced this iteration; the counters record the exchange
	// that followed it. All four are part of the deterministic search
	// trajectory, so Search() keeps them.
	Island      int
	MigrantsIn  int
	MigrantsOut int
	BlendRounds int
}

// Search returns the stats with the wall-clock-dependent runtime fields
// (phase timings, steal/idle accounting) zeroed, leaving only the search
// trajectory — which is deterministic per seed, and identical across
// worker counts. Determinism tests compare this projection.
func (s IterStats) Search() IterStats {
	s.SampleNs, s.SelectNs, s.UpdateNs = 0, 0, 0
	s.StealUnits, s.IdleNs = 0, 0
	return s
}

// StopReason explains why a run ended.
type StopReason string

const (
	// StopGammaStall: gamma_k unchanged for StallWindow iterations (Fig. 2).
	StopGammaStall StopReason = "gamma-stall"
	// StopConverged: the problem reported a degenerate distribution (eq. 12).
	StopConverged StopReason = "distribution-converged"
	// StopMaxIterations: the iteration cap fired first.
	StopMaxIterations StopReason = "max-iterations"
	// StopCancelled: the run's Context was cancelled mid-search.
	StopCancelled StopReason = "cancelled"
)

// State is what iteration k+1 depends on besides the problem's sampling
// distribution: the iteration index (it keys the RNG streams and the
// dynamic-smoothing schedule), the Fig. 2 stall window and the incumbent.
// The zero value is a fresh run.
type State[S any] struct {
	// Iterations counts the completed iterations; the next is Iterations+1.
	Iterations int
	// Gamma is gamma_k of iteration Iterations, and GammaStallRuns the
	// number of consecutive iterations before it that repeated it.
	Gamma          float64
	GammaStallRuns int
	// Best and BestScore are the incumbent (unused when Iterations == 0).
	Best      S
	BestScore float64
}

// StateFunc observes the loop state after every iteration, on the
// coordinator goroutine right after OnIteration. st.Best is the reused
// best-so-far buffer: copy what you keep, mutate nothing, use no RNG.
type StateFunc[S any] func(st State[S])

// Result carries the outcome of one CE run.
type Result[S any] struct {
	// State is the loop state at exit — also on StopCancelled — so
	// RunFrom(p, cfg, res.State, ...) continues the run exactly.
	State[S]
	// Evaluations counts the draws of every iteration, including those of
	// the run a start state continues.
	Evaluations int64
	StopReason  StopReason
	// History holds this call's per-iteration telemetry.
	History []IterStats
}

// ErrNoProgress reports a run whose sampler failed on every draw.
var ErrNoProgress = errors.New("ce: sampler failed to produce any valid solution")

// Run executes the CE loop on p under cfg and returns the best solution
// found across all iterations (not merely the final distribution's mode).
func Run[S any](p Problem[S], cfg Config) (Result[S], error) {
	return run(p, cfg, State[S]{}, 0, nil, nil)
}

// RunFrom continues the CE loop from start, an earlier run's State, with
// p's distribution restored to where that run left it. Under the same
// Config the result is bit-identical to the uninterrupted run, and
// cfg.MaxIterations caps the whole chain. onState may be nil.
func RunFrom[S any](p Problem[S], cfg Config, start State[S], onState StateFunc[S]) (Result[S], error) {
	return run(p, cfg, start, 0, nil, onState)
}

// run is the CE loop shared by Run, RunFrom and RunIslands; exchange,
// when non-nil, fires after the Update step of every exchangeEvery-th
// iteration.
func run[S any](p Problem[S], cfg Config, start State[S], exchangeEvery int, exchange ExchangeFunc[S], onState StateFunc[S]) (Result[S], error) {
	cfg = cfg.withDefaults()
	var zero Result[S]
	if err := cfg.validate(); err != nil {
		return zero, err
	}
	if exchange != nil && exchangeEvery < 1 {
		return zero, fmt.Errorf("ce: exchange hook with interval %d < 1", exchangeEvery)
	}

	n := cfg.SampleSize
	solutions := make([]S, n)
	for i := range solutions {
		solutions[i] = p.NewSolution()
	}
	scores := make([]float64, n)
	order := make([]int, n)
	elite := make([]S, 0, n)
	var eliteScores []float64
	if exchange != nil {
		eliteScores = make([]float64, 0, n)
	}

	eliteCount := int(math.Floor(cfg.Rho * float64(n)))
	if eliteCount < 1 {
		eliteCount = 1
	}

	res := Result[S]{State: start}
	res.Best = p.NewSolution()
	res.Evaluations = int64(start.Iterations) * int64(n)
	switch {
	case start.Iterations > 0:
		p.Copy(res.Best, start.Best)
	case cfg.Minimize:
		res.BestScore = math.Inf(1)
	default:
		res.BestScore = math.Inf(-1)
	}

	better := func(a, b float64) bool {
		if cfg.Minimize {
			return a < b
		}
		return a > b
	}

	statsProvider, _ := any(p).(SampleStatsProvider)

	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	// cancelled finalises a cut-short run: keep the incumbent when at
	// least one full iteration backs it, otherwise surface the error.
	cancelled := func() (Result[S], error) {
		if res.Iterations == 0 {
			return zero, ctx.Err()
		}
		res.StopReason = StopCancelled
		return res, nil
	}

	pool := newSamplePool(p, cfg.Workers, cfg.Seed, solutions, scores, done)
	defer pool.close()

	for iter := start.Iterations + 1; iter <= cfg.MaxIterations; iter++ {
		if ctx.Err() != nil {
			return cancelled()
		}
		sampleStart := time.Now()
		pool.runIteration(iter)
		selectStart := time.Now()
		if ctx.Err() != nil {
			// The iteration's sample set may be torn; discard it and fall
			// back on the incumbent from completed iterations.
			return cancelled()
		}
		if err := pool.firstErr(); err != nil {
			return zero, fmt.Errorf("ce: sampling failed at iteration %d: %w", iter, err)
		}
		res.Evaluations += int64(n)

		// Extract the elite by partial selection: only the best eliteCount
		// samples ever need ranking, so a full sort of all N scores is
		// wasted work. Worst and mean come from one streaming pass.
		for i := range order {
			order[i] = i
		}
		SelectElite(order, scores, eliteCount, cfg.Minimize)

		worst := scores[order[0]]
		total := 0.0
		for _, s := range scores {
			if better(worst, s) {
				worst = s
			}
			total += s
		}

		gamma := scores[order[eliteCount-1]]
		stats := IterStats{
			Iter:       iter,
			Island:     cfg.Island,
			Gamma:      gamma,
			Best:       scores[order[0]],
			Worst:      worst,
			EliteCount: eliteCount,
			Draws:      n,
			Mean:       total / float64(n),
			SampleNs:   selectStart.Sub(sampleStart).Nanoseconds(),
		}
		stats.StealUnits, stats.IdleNs = pool.lastIterStats()
		if statsProvider != nil {
			ss := statsProvider.TakeSampleStats()
			stats.RejectTries = ss.RejectTries
			stats.FallbackDraws = ss.FallbackDraws
		}

		if better(scores[order[0]], res.BestScore) {
			res.BestScore = scores[order[0]]
			p.Copy(res.Best, solutions[order[0]])
		}
		stats.BestSoFar = res.BestScore

		// Elite set: every sample at least as good as gamma, capped at the
		// quantile count (eq. 11 counts indicator hits S(X) <= gamma).
		elite = elite[:0]
		for _, idx := range order[:eliteCount] {
			elite = append(elite, solutions[idx])
		}
		zeta := cfg.Zeta
		if cfg.DynamicSmoothing {
			zeta = cfg.Zeta * (1 - math.Pow(1-1/float64(iter), cfg.DynamicSmoothingQ))
			if zeta <= 0 {
				zeta = cfg.Zeta // iter == 1 gives full Zeta; guard tiny tails
			}
		}
		updateStart := time.Now()
		stats.SelectNs = updateStart.Sub(selectStart).Nanoseconds()
		if err := p.Update(elite, zeta); err != nil {
			return zero, fmt.Errorf("ce: parameter update failed at iteration %d: %w", iter, err)
		}
		stats.UpdateNs = time.Since(updateStart).Nanoseconds()

		// Island exchange: after the local Update (peers receive this
		// iteration's elite and post-update P) and before the stop checks
		// (a migrant can break a stall). Runs on the coordinator goroutine
		// between sampling barriers, so the hook may mutate the problem.
		if exchange != nil && iter%exchangeEvery == 0 {
			eliteScores = eliteScores[:0]
			for _, idx := range order[:eliteCount] {
				eliteScores = append(eliteScores, scores[idx])
			}
			ex, err := exchange(ctx, iter, elite, eliteScores)
			if err != nil {
				if ctx.Err() != nil {
					// The exchange aborted because the run was cancelled;
					// this iteration's exchange is torn, keep the incumbent.
					return cancelled()
				}
				return zero, fmt.Errorf("ce: island exchange failed at iteration %d: %w", iter, err)
			}
			stats.MigrantsIn = len(ex.In)
			stats.MigrantsOut = ex.Out
			stats.BlendRounds = ex.BlendRounds
			for i, m := range ex.In {
				if better(ex.InScores[i], res.BestScore) {
					res.BestScore = ex.InScores[i]
					p.Copy(res.Best, m)
				}
			}
			stats.BestSoFar = res.BestScore
		}

		if res.Iterations > 0 && gamma == res.Gamma {
			res.GammaStallRuns++
		} else {
			res.GammaStallRuns = 0
		}
		res.Gamma = gamma
		res.Iterations = iter
		if !cfg.DiscardHistory {
			res.History = append(res.History, stats)
		}

		if cfg.OnIteration != nil {
			cfg.OnIteration(stats)
		}
		if onState != nil {
			onState(res.State)
		}

		if p.Converged() {
			res.StopReason = StopConverged
			return res, nil
		}
		if res.GammaStallRuns >= cfg.StallWindow {
			res.StopReason = StopGammaStall
			return res, nil
		}
	}
	res.StopReason = StopMaxIterations
	return res, nil
}
