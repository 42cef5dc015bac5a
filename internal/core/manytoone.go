package core

import (
	"fmt"
	"sync"
	"time"

	"matchsim/internal/ce"
	"matchsim/internal/cost"
	"matchsim/internal/stochmat"
	"matchsim/internal/xrand"
)

// ManyToOne runs the generalised MaTCH for |Vt| != |Vr| — the extension
// the paper sketches as "a few simple modifications of the algorithm(s)".
// Without the bijection constraint there is no column masking: each task's
// resource is drawn independently from its own row of the (|Vt| x |Vr|)
// stochastic matrix, exactly the naive generation scheme of Section 4
// (eq. 8). Everything else — elite selection, eq. (11) update, eq. (13)
// smoothing, eq. (12) stop — is unchanged.
//
// This mode also covers clustering workflows where many tasks share a
// resource, as in the FastMap scheme MaTCH descends from.
func ManyToOne(eval *cost.Evaluator, opts Options) (*Result, error) {
	tasks, resources := eval.NumTasks(), eval.NumResources()
	if tasks < 1 || resources < 1 {
		return nil, fmt.Errorf("core: empty problem (%d tasks, %d resources)", tasks, resources)
	}
	if opts.SampleSize == 0 {
		// Keep the paper's scaling rule using the matrix size.
		opts.SampleSize = 2 * tasks * resources
	}
	opts = opts.withDefaults(tasks)

	pr := newManyToOneProblem(eval, opts.StallC, opts.SnapshotEvery)
	if opts.WarmStart != nil {
		if err := pr.applyWarmStart(opts.WarmStart, opts.WarmStartBias); err != nil {
			return nil, err
		}
	}
	cfg := ce.Config{
		SampleSize:     opts.SampleSize,
		Rho:            opts.Rho,
		Zeta:           opts.Zeta,
		StallWindow:    opts.GammaStallWindow,
		MaxIterations:  opts.MaxIterations,
		Workers:        opts.Workers,
		Seed:           opts.Seed,
		Context:        opts.Context,
		OnIteration:    opts.OnIteration,
		DiscardHistory: opts.DiscardHistory,
	}

	start := time.Now()
	ceRes, err := ce.Run(pr, cfg)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	if opts.SnapshotEvery > 0 {
		last := pr.snapshots[len(pr.snapshots)-1]
		if last.Iter != pr.iter {
			pr.snapshots = append(pr.snapshots, Snapshot{Iter: pr.iter, Matrix: pr.p.Clone()})
		}
	}

	return &Result{
		Mapping:     cost.Mapping(ceRes.Best),
		Exec:        ceRes.BestScore,
		Iterations:  ceRes.Iterations,
		Evaluations: ceRes.Evaluations,
		MappingTime: elapsed,
		StopReason:  ceRes.StopReason,
		History:     ceRes.History,
		Snapshots:   pr.snapshots,
		FinalMatrix: pr.p,
	}, nil
}

// manyToOneProblem implements ce.Problem with independent row
// sampling (no permutation constraint).
type manyToOneProblem struct {
	eval      *cost.Evaluator
	tasks     int
	resources int
	p         *stochmat.Matrix
	alias     *stochmat.AliasTable // O(1) row draws, rebuilt with p
	counts    []float64            // Update scratch: elite assignment frequencies
	scratch   sync.Pool            // *[]float64 load buffers for ExecInto

	stallC     int
	prevArgmax []int
	stableRuns int

	snapshotEvery int
	iter          int
	snapshots     []Snapshot
}

func newManyToOneProblem(eval *cost.Evaluator, stallC, snapshotEvery int) *manyToOneProblem {
	tasks, resources := eval.NumTasks(), eval.NumResources()
	pr := &manyToOneProblem{
		eval:          eval,
		tasks:         tasks,
		resources:     resources,
		p:             stochmat.NewUniform(tasks, resources),
		stallC:        stallC,
		snapshotEvery: snapshotEvery,
		prevArgmax:    make([]int, tasks),
		counts:        make([]float64, tasks*resources),
	}
	pr.alias = stochmat.NewAliasTable(pr.p)
	for i := range pr.prevArgmax {
		pr.prevArgmax[i] = -1
	}
	pr.scratch.New = func() any {
		buf := make([]float64, resources)
		return &buf
	}
	if snapshotEvery > 0 {
		pr.snapshots = append(pr.snapshots, Snapshot{Iter: 0, Matrix: pr.p.Clone()})
	}
	return pr
}

// applyWarmStart biases P_0 towards an arbitrary (not necessarily
// bijective) valid mapping.
func (pr *manyToOneProblem) applyWarmStart(warm cost.Mapping, bias float64) error {
	if len(warm) != pr.tasks {
		return fmt.Errorf("core: warm start length %d for %d tasks", len(warm), pr.tasks)
	}
	if err := warm.Validate(pr.resources); err != nil {
		return err
	}
	if bias <= 0 || bias >= 1 {
		return fmt.Errorf("core: warm start bias %v outside (0, 1)", bias)
	}
	row := make([]float64, pr.resources)
	uniform := (1 - bias) / float64(pr.resources)
	for i := 0; i < pr.tasks; i++ {
		for j := range row {
			row[j] = uniform
		}
		row[warm[i]] += bias
		if err := pr.p.SetRow(i, row); err != nil {
			return err
		}
	}
	if pr.snapshotEvery > 0 {
		pr.snapshots[0] = Snapshot{Iter: 0, Matrix: pr.p.Clone()}
	}
	pr.alias.Rebuild(pr.p)
	return nil
}

func (pr *manyToOneProblem) NewSolution() []int { return make([]int, pr.tasks) }

func (pr *manyToOneProblem) Copy(dst, src []int) { copy(dst, src) }

// Sample implements ce.Problem: each task's resource is drawn
// independently from its row — the unconstrained generation of eq. (8) —
// as one O(1) alias-table draw per task (one 64-bit variate each, split
// by a 64x64->128-bit multiply into the slot index and the accept test;
// no search, no clamping: zero-weight columns carry no slot mass, and a
// degenerate zero-mass row degrades to a uniform draw by the table's
// construction). The draw is scored by the application execution time.
func (pr *manyToOneProblem) Sample(rng *xrand.RNG, dst []int) (float64, error) {
	for task := 0; task < pr.tasks; task++ {
		dst[task] = pr.alias.Sample(task, rng)
	}
	buf := pr.scratch.Get().(*[]float64)
	score := pr.eval.ExecInto(dst, *buf)
	pr.scratch.Put(buf)
	return score, nil
}

func (pr *manyToOneProblem) Update(elite [][]int, zeta float64) error {
	if len(elite) == 0 {
		return fmt.Errorf("core: empty elite set")
	}
	pr.iter++
	if err := pr.p.SmoothElite(elite, pr.counts, zeta); err != nil {
		return fmt.Errorf("core: many-to-one update: %w", err)
	}
	pr.alias.Rebuild(pr.p)
	stable := true
	for i := 0; i < pr.tasks; i++ {
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

func (pr *manyToOneProblem) Converged() bool { return pr.stableRuns >= pr.stallC }
