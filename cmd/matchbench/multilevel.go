package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"matchsim/internal/core"
	"matchsim/internal/cost"
	"matchsim/internal/gen"
)

// The documented large-n configuration every multilevel arm uses:
// coarsen down to 64 vertices (the paper
// TIG stays ~75% dense under heavy-edge contraction, so the coarse CE
// solve costs O(m*n^2) and n=128 coarse solves are ~8x slower than
// n=64 ones for no measurable quality gain after refinement), and a
// 200-iteration cap on the coarse solve.
const (
	mlMinCoarse  = 64
	mlCoarseIter = 200
)

// mlOptions is the standard multilevel arm configuration.
func mlOptions(seed uint64) core.Options {
	return core.Options{
		Seed:          seed,
		MaxIterations: mlCoarseIter,
		Multilevel:    &core.MultilevelOptions{MinCoarse: mlMinCoarse},
	}
}

// runMultilevel measures the multilevel coarsen/solve/refine pipeline
// against single-level CE:
//
//   - n=256 (paper instance): single-level at a fixed 200-iteration
//     budget — the reference quality bar — and multilevel on the same
//     instance. The acceptance criterion is multilevel ET within 10% of
//     single-level.
//   - n=1024 (sparse hierarchical instance): multilevel, plus a
//     single-level arm granted the multilevel wall clock as a context
//     budget (it stops after the first iteration past the deadline, so
//     its ns/op records how little a 2n^2-sample iteration fits in it).
//   - n=4096 and n=10240: multilevel only. A single-level arm is not run:
//     its per-iteration sample budget 2n^2 draws of n ints would need
//     hundreds of gigabytes at these sizes (the honest result is
//     "infeasible", which is logged, not timed).
//
// -quick shrinks the protocol to the two *-quick records (n=256 and
// n=1024 at reduced iteration budgets) for the CI regression guard; the
// full run also emits them so the committed BENCH_multilevel.json carries
// baselines for exactly the records CI re-measures.
func runMultilevel(seed uint64, quick, jsonOut, quiet bool, compare string) error {
	progress := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}

	quickRecs, err := multilevelQuickRecords(seed, progress)
	if err != nil {
		return err
	}
	if compare != "" {
		// Regression-guard mode mirrors the kernel guard: measure the
		// cheap records, check them against the committed artefact, stop.
		return compareKernel(quickRecs, compare, quiet)
	}
	recs := quickRecs
	if !quick {
		full, err := multilevelFullRecords(seed, progress)
		if err != nil {
			return err
		}
		recs = append(recs, full...)
	}

	fmt.Printf("%-24s %6s %16s %12s  %s\n", "benchmark", "n", "ns/op", "exec", "solver")
	for _, r := range recs {
		exec := "-"
		if r.ET > 0 {
			exec = fmt.Sprintf("%.0f", r.ET)
		}
		fmt.Printf("%-24s %6d %16d %12s  %s\n", r.Name, r.Size, r.NsPerOp, exec, r.Solver)
	}

	if jsonOut {
		return writeBenchJSON("multilevel", recs)
	}
	return nil
}

// multilevelQuickRecords are the CI-guard measurements: seconds, not
// minutes, using reduced iteration caps. Min-of-reps like the kernel
// micros so the committed baseline and the CI re-measurement share an
// estimator.
func multilevelQuickRecords(seed uint64, progress func(string, ...any)) ([]benchRecord, error) {
	const reps = 2
	var recs []benchRecord

	inst256, err := gen.PaperInstance(seed, 256, gen.DefaultPaperConfig())
	if err != nil {
		return nil, err
	}
	eval256, err := cost.NewEvaluator(inst256.TIG, inst256.Platform)
	if err != nil {
		return nil, err
	}
	quickOpts := mlOptions(7)
	quickOpts.MaxIterations = 60
	rec, _, err := timeMultilevel("multilevel-quick-256", eval256, quickOpts, reps, progress)
	if err != nil {
		return nil, err
	}
	recs = append(recs, rec)

	eval1k, err := largeEval(seed, 1024)
	if err != nil {
		return nil, err
	}
	rec, _, err = timeMultilevel("multilevel-quick-1024", eval1k, quickOpts, reps, progress)
	if err != nil {
		return nil, err
	}
	recs = append(recs, rec)
	return recs, nil
}

// multilevelFullRecords is the full sweep: the n=256 quality comparison
// and the large-n scaling arms.
func multilevelFullRecords(seed uint64, progress func(string, ...any)) ([]benchRecord, error) {
	var recs []benchRecord

	// n=256: single-level CE is the quality reference, capped at the same
	// 200-iteration budget the multilevel coarse solve gets (its natural
	// eq. 12 / stall stop is tens of CPU-minutes away at this size; 200
	// iterations at n=256 is ~20 minutes on one core and is where the
	// gamma curve has long flattened).
	inst256, err := gen.PaperInstance(seed, 256, gen.DefaultPaperConfig())
	if err != nil {
		return nil, err
	}
	eval256, err := cost.NewEvaluator(inst256.TIG, inst256.Platform)
	if err != nil {
		return nil, err
	}
	progress("multilevel: single-level n=256 reference (%d iterations)...\n", mlCoarseIter)
	start := time.Now()
	single, err := core.Solve(eval256, core.Options{Seed: 7, MaxIterations: mlCoarseIter})
	if err != nil {
		return nil, err
	}
	singleNs := time.Since(start).Nanoseconds()
	progress("multilevel: single-256 %12d ns  exec=%g (%d iters)\n", singleNs, single.Exec, single.Iterations)
	recs = append(recs, benchRecord{
		Name: "single-256", Size: 256, Solver: "MaTCH", ET: single.Exec, NsPerOp: singleNs,
	})

	mlRec, mlRes, err := timeMultilevel("multilevel-256", eval256, mlOptions(7), 1, progress)
	if err != nil {
		return nil, err
	}
	recs = append(recs, mlRec)
	if gap := mlRes.Exec/single.Exec - 1; math.Abs(gap) > 0.10 {
		progress("multilevel: WARNING n=256 quality gap %.1f%% exceeds 10%%\n", gap*100)
	}

	// Large instances: multilevel at each size; the n=1024 single-level
	// arm gets the multilevel wall clock as its budget.
	for _, n := range []int{1024, 4096, 10240} {
		eval, err := largeEval(seed, n)
		if err != nil {
			return nil, err
		}
		rec, res, err := timeMultilevel(fmt.Sprintf("multilevel-%d", n), eval, mlOptions(7), 1, progress)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)

		switch {
		case n == 1024:
			budget := time.Duration(rec.NsPerOp)
			progress("multilevel: single-level n=1024 with %v budget...\n", budget)
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			start := time.Now()
			sres, serr := core.Solve(eval, core.Options{Seed: 7, Context: ctx})
			elapsed := time.Since(start).Nanoseconds()
			cancel()
			srec := benchRecord{Name: "single-budget-1024", Size: n, Solver: "MaTCH", NsPerOp: elapsed}
			if serr != nil {
				// Cancelled before completing a single iteration: no
				// solution inside the budget. ET stays 0 (rendered "-").
				progress("multilevel: single-budget-1024 produced no mapping in budget (%v)\n", serr)
			} else {
				srec.ET = sres.Exec
				progress("multilevel: single-budget-1024 %12d ns  exec=%g (%d iters, %s)\n",
					elapsed, sres.Exec, sres.Iterations, sres.StopReason)
			}
			recs = append(recs, srec)
		default:
			// 2n^2 draws of n int64s per iteration: ~0.5 TB at n=4096,
			// ~8.6 TB at n=10240. Not an arm, a fact.
			progress("multilevel: single-level n=%d skipped (2n^2 sample budget = %d draws, infeasible)\n",
				n, 2*n*n)
		}
		_ = res
	}
	return recs, nil
}

// timeMultilevel runs one multilevel solve `reps` times keeping the
// fastest (min-of-reps, the repo's standard wall-clock estimator) and
// returns its record plus the last result.
func timeMultilevel(name string, eval *cost.Evaluator, opts core.Options, reps int,
	progress func(string, ...any)) (benchRecord, *core.Result, error) {
	var minNs int64
	var res *core.Result
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		r, err := core.Solve(eval, opts)
		if err != nil {
			return benchRecord{}, nil, fmt.Errorf("%s: %w", name, err)
		}
		ns := time.Since(start).Nanoseconds()
		if rep == 0 || ns < minNs {
			minNs = ns
		}
		res = r
		progress("multilevel: %-22s rep=%d %12d ns  exec=%g (levels=%d)\n",
			name, rep, ns, r.Exec, len(r.Levels))
	}
	return benchRecord{
		Name:    name,
		Size:    eval.NumTasks(),
		Solver:  "MaTCH-multilevel",
		ET:      res.Exec,
		NsPerOp: minNs,
	}, res, nil
}

// largeEval builds the evaluator of a sparse hierarchical instance
// (gen.LargeInstance) of n tasks.
func largeEval(seed uint64, n int) (*cost.Evaluator, error) {
	inst, err := gen.LargeInstance(seed, n, gen.LargeConfig{})
	if err != nil {
		return nil, err
	}
	return cost.NewEvaluator(inst.TIG, inst.Platform)
}
