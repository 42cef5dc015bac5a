// Package heuristics provides the non-CE, non-GA baseline mappers used by
// the ablation benches: random search, a greedy load-balancing
// construction, 2-swap hill climbing, and simulated annealing.
//
// The paper compares MaTCH only against FastMap-GA (its Section 5 notes
// the lack of readily available heuristics for the TIG mapping problem,
// and cites Braun et al.'s study of eleven heuristics for the independent-
// task variant). These baselines put MaTCH's improvement factors in a
// wider context and double as correctness cross-checks: every solver here
// must agree with the others on trivially optimal instances.
//
// All solvers work on bijective mappings (|Vt| = |Vr|), use the
// incremental cost.State evaluator for O(deg) move scoring, and are
// deterministic per seed.
package heuristics

import (
	"context"
	"fmt"
	"math"
	"time"

	"matchsim/internal/cost"
	"matchsim/internal/xrand"
)

// Result is the common outcome type for all baseline solvers.
type Result struct {
	Mapping     cost.Mapping
	Exec        float64
	Evaluations int64
	MappingTime time.Duration
}

func finish(start time.Time, m cost.Mapping, exec float64, evals int64) (*Result, error) {
	if !m.IsPermutation() {
		return nil, fmt.Errorf("heuristics: internal error — result %v is not a permutation", m)
	}
	return &Result{
		Mapping:     m.Clone(),
		Exec:        exec,
		Evaluations: evals,
		MappingTime: time.Since(start),
	}, nil
}

func checkSquare(eval *cost.Evaluator) error {
	if eval.NumTasks() < 1 {
		return fmt.Errorf("heuristics: empty task set")
	}
	if eval.NumTasks() != eval.NumResources() {
		return fmt.Errorf("heuristics: bijective solvers require |Vt| = |Vr| (got %d tasks, %d resources)",
			eval.NumTasks(), eval.NumResources())
	}
	return nil
}

// RandomSearch draws `samples` uniform random permutations and keeps the
// best — the weakest sensible baseline and the floor every other solver
// must beat. ctx cancels the search between draws.
func RandomSearch(ctx context.Context, eval *cost.Evaluator, samples int, seed uint64) (*Result, error) {
	if err := checkSquare(eval); err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, fmt.Errorf("heuristics: sample budget %d < 1", samples)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	n := eval.NumTasks()
	rng := xrand.New(seed)
	perm := make([]int, n)
	scratch := make([]float64, n)
	best := make(cost.Mapping, n)
	bestExec := math.Inf(1)
	for i := 0; i < samples; i++ {
		if i&255 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rng.PermInto(perm)
		if exec := eval.ExecInto(cost.Mapping(perm), scratch); exec < bestExec {
			bestExec = exec
			copy(best, perm)
		}
	}
	return finish(start, best, bestExec, int64(samples))
}

// Greedy builds a mapping constructively: tasks in decreasing
// computational weight each take the resource that minimises the partial
// makespan given the assignments so far (compute plus communication to
// already-placed neighbours). This adapts the min-min philosophy of the
// independent-task literature to TIGs.
//
// A candidate's partial makespan is the largest of its own new load, its
// placed neighbours' new loads and every other resource's current load.
// Loads only grow, so the candidate's own new load is at least its
// current one, and the last term may be taken over every resource: the
// current largest load, which Greedy keeps as it commits, so the search
// is O(n^2 + n*|Et|) rather than O(n^3).
func Greedy(eval *cost.Evaluator) (*Result, error) {
	if err := checkSquare(eval); err != nil {
		return nil, err
	}
	start := time.Now()
	n := eval.NumTasks()
	tig := eval.TIG()
	platform := eval.Platform()

	// Order tasks by decreasing weight (heaviest first), ties by index.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort: n is small, keeps it stable
		for j := i; j > 0 && tig.Weights[order[j]] > tig.Weights[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	mapping := make(cost.Mapping, n)
	for i := range mapping {
		mapping[i] = -1
	}
	loads := make([]float64, n)
	taken := make([]bool, n)
	maxLoad := 0.0
	var evals int64
	for _, task := range order {
		bestRes, bestPeak := -1, math.Inf(1)
		for res := 0; res < n; res++ {
			if taken[res] {
				continue
			}
			evals++
			// Load increase on res plus on placed neighbours' resources.
			addSelf := eval.ComputeTime(task, res)
			peak := 0.0
			for _, nb := range tig.Neighbors(task) {
				b := mapping[nb.To]
				if b < 0 || b == res {
					continue
				}
				c := float64(nb.Weight * platform.LinkCost(res, b))
				addSelf += c
				if l := loads[b] + c; l > peak {
					peak = l
				}
			}
			if l := loads[res] + addSelf; l > peak {
				peak = l
			}
			// Global partial makespan: untouched resources keep their load.
			if maxLoad > peak {
				peak = maxLoad
			}
			if peak < bestPeak {
				bestPeak, bestRes = peak, res
			}
		}
		// Commit.
		mapping[task] = bestRes
		taken[bestRes] = true
		loads[bestRes] += eval.ComputeTime(task, bestRes)
		for _, nb := range tig.Neighbors(task) {
			b := mapping[nb.To]
			if b < 0 || b == bestRes {
				continue
			}
			c := float64(nb.Weight * platform.LinkCost(bestRes, b))
			loads[bestRes] += c
			loads[b] += c
			maxLoad = max(maxLoad, loads[b])
		}
		maxLoad = max(maxLoad, loads[bestRes])
	}
	return finish(start, mapping, eval.Exec(mapping), evals)
}

// LocalSearch runs steepest-descent 2-swap hill climbing from a random
// start: repeatedly apply the best improving swap until none exists.
// Restarts times from fresh random permutations; keeps the global best.
// ctx cancels the search between descent steps.
func LocalSearch(ctx context.Context, eval *cost.Evaluator, restarts int, seed uint64) (*Result, error) {
	if err := checkSquare(eval); err != nil {
		return nil, err
	}
	if restarts < 1 {
		return nil, fmt.Errorf("heuristics: restart budget %d < 1", restarts)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	n := eval.NumTasks()
	rng := xrand.New(seed)
	best := make(cost.Mapping, n)
	bestExec := math.Inf(1)
	var evals int64

	for r := 0; r < restarts; r++ {
		st, err := cost.NewState(eval, cost.Mapping(rng.Perm(n)))
		if err != nil {
			return nil, err
		}
		current, probes, err := st.Descend(ctx)
		evals += probes
		if err != nil {
			return nil, err
		}
		if current < bestExec {
			bestExec = current
			copy(best, st.Mapping())
		}
	}
	return finish(start, best, bestExec, evals)
}

// AnnealOptions tunes SimulatedAnnealing. Zero values take defaults
// derived from the instance.
type AnnealOptions struct {
	// InitialTemp sets T_0; default: 20% of the random-start makespan.
	InitialTemp float64
	// CoolingRate is the geometric factor per step; default 0.9995.
	CoolingRate float64
	// Steps is the move budget; default 200 * n^2.
	Steps int
	// Seed fixes the run.
	Seed uint64
	// Context, when non-nil, cancels the annealing schedule between moves.
	Context context.Context
}

// SimulatedAnnealing runs classic Metropolis annealing over 2-swap moves.
func SimulatedAnnealing(eval *cost.Evaluator, opts AnnealOptions) (*Result, error) {
	if err := checkSquare(eval); err != nil {
		return nil, err
	}
	start := time.Now()
	n := eval.NumTasks()
	rng := xrand.New(opts.Seed)
	st, err := cost.NewState(eval, cost.Mapping(rng.Perm(n)))
	if err != nil {
		return nil, err
	}
	current := st.Exec()
	if opts.InitialTemp == 0 {
		opts.InitialTemp = 0.2 * current
	}
	if opts.CoolingRate == 0 {
		opts.CoolingRate = 0.9995
	}
	if opts.Steps == 0 {
		opts.Steps = 200 * n * n
	}
	if opts.InitialTemp <= 0 || opts.CoolingRate <= 0 || opts.CoolingRate >= 1 || opts.Steps < 1 {
		return nil, fmt.Errorf("heuristics: invalid annealing options %+v", opts)
	}

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	best := st.Mapping().Clone()
	bestExec := current
	temp := opts.InitialTemp
	var evals int64
	for step := 0; step < opts.Steps; step++ {
		if step&1023 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		evals++
		candidate := st.ExecAfterSwap(i, j)
		delta := candidate - current
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			st.Swap(i, j)
			current = candidate
			if current < bestExec {
				bestExec = current
				copy(best, st.Mapping())
			}
		}
		temp *= opts.CoolingRate
	}
	return finish(start, best, bestExec, evals)
}
