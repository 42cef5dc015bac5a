package exp

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"matchsim/internal/core"
	"matchsim/internal/cost"
	"matchsim/internal/ga"
	"matchsim/internal/gen"
	"matchsim/internal/heuristics"
	"matchsim/internal/xrand"
)

// AblationConfig shares the common knobs of the ablation studies.
type AblationConfig struct {
	// Size is the instance size; default 20.
	Size int
	// Repeats averages each cell; default 3.
	Repeats int
	// Seed derives everything.
	Seed uint64
	// MaxIterations bounds each MaTCH run; default the solver's default.
	MaxIterations int
}

func (c AblationConfig) withDefaults() AblationConfig {
	if c.Size == 0 {
		c.Size = 20
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	return c
}

func (c AblationConfig) evaluator() (*cost.Evaluator, *xrand.RNG, error) {
	master := xrand.New(c.Seed)
	inst, err := gen.PaperInstance(master.Uint64(), c.Size, gen.DefaultPaperConfig())
	if err != nil {
		return nil, nil, err
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		return nil, nil, err
	}
	return eval, master, nil
}

// AblateRho sweeps the focus parameter rho across the paper's recommended
// range and beyond, reporting mean ET, iterations and MT per setting.
// Design question answered: how sharp should the elite quantile be?
func AblateRho(cfg AblationConfig, rhos []float64) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(rhos) == 0 {
		rhos = []float64{0.01, 0.02, 0.05, 0.1, 0.2}
	}
	eval, master, err := cfg.evaluator()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: focus parameter rho (n=%d, %d repeats)", cfg.Size, cfg.Repeats),
		Header: []string{"rho", "mean ET", "mean iters", "mean MT (ms)"},
	}
	for _, rho := range rhos {
		var et, iters, mt float64
		for r := 0; r < cfg.Repeats; r++ {
			res, err := core.Solve(eval, core.Options{
				Rho: rho, Seed: master.Uint64(), MaxIterations: cfg.MaxIterations,
			})
			if err != nil {
				return nil, err
			}
			et += res.Exec
			iters += float64(res.Iterations)
			mt += float64(res.MappingTime.Milliseconds())
		}
		inv := 1 / float64(cfg.Repeats)
		t.AddRow(fmt.Sprintf("%.2f", rho), fmt.Sprintf("%.0f", et*inv),
			fmt.Sprintf("%.1f", iters*inv), fmt.Sprintf("%.1f", mt*inv))
	}
	return t, nil
}

// AblateZeta sweeps the smoothing factor of eq. (13). Design question:
// the paper claims smoothing (zeta = 0.3) prevents premature convergence
// — how does solution quality move with zeta?
func AblateZeta(cfg AblationConfig, zetas []float64) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(zetas) == 0 {
		zetas = []float64{0.1, 0.3, 0.5, 0.7, 1.0}
	}
	eval, master, err := cfg.evaluator()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: smoothing factor zeta (n=%d, %d repeats; zeta=1 disables smoothing)", cfg.Size, cfg.Repeats),
		Header: []string{"zeta", "mean ET", "mean iters", "mean MT (ms)"},
	}
	for _, zeta := range zetas {
		var et, iters, mt float64
		for r := 0; r < cfg.Repeats; r++ {
			res, err := core.Solve(eval, core.Options{
				Zeta: zeta, Seed: master.Uint64(), MaxIterations: cfg.MaxIterations,
			})
			if err != nil {
				return nil, err
			}
			et += res.Exec
			iters += float64(res.Iterations)
			mt += float64(res.MappingTime.Milliseconds())
		}
		inv := 1 / float64(cfg.Repeats)
		t.AddRow(fmt.Sprintf("%.1f", zeta), fmt.Sprintf("%.0f", et*inv),
			fmt.Sprintf("%.1f", iters*inv), fmt.Sprintf("%.1f", mt*inv))
	}
	return t, nil
}

// AblateSampleSize sweeps N as multiples of n^2, probing the paper's
// N = 2n^2 rule.
func AblateSampleSize(cfg AblationConfig, multipliers []float64) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(multipliers) == 0 {
		multipliers = []float64{0.5, 1, 2, 4}
	}
	eval, master, err := cfg.evaluator()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: sample size N = k*n^2 (n=%d, %d repeats; paper uses k=2)", cfg.Size, cfg.Repeats),
		Header: []string{"k", "N", "mean ET", "mean evals", "mean MT (ms)"},
	}
	for _, k := range multipliers {
		n := int(k * float64(cfg.Size*cfg.Size))
		if n < 10 {
			n = 10
		}
		var et, evals, mt float64
		for r := 0; r < cfg.Repeats; r++ {
			res, err := core.Solve(eval, core.Options{
				SampleSize: n, Seed: master.Uint64(), MaxIterations: cfg.MaxIterations,
			})
			if err != nil {
				return nil, err
			}
			et += res.Exec
			evals += float64(res.Evaluations)
			mt += float64(res.MappingTime.Milliseconds())
		}
		inv := 1 / float64(cfg.Repeats)
		t.AddRow(fmt.Sprintf("%.1f", k), fmt.Sprintf("%d", n), fmt.Sprintf("%.0f", et*inv),
			fmt.Sprintf("%.0f", evals*inv), fmt.Sprintf("%.1f", mt*inv))
	}
	return t, nil
}

// AblateWorkers measures the parallel sampling/scoring speedup of the
// MaTCH worker pool — the engineering ablation for the "inherently slow"
// CE execution the paper's conclusion laments.
func AblateWorkers(cfg AblationConfig, workerCounts []int) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	eval, master, err := cfg.evaluator()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: worker-pool speedup (n=%d, %d repeats)", cfg.Size, cfg.Repeats),
		Header: []string{"workers", "mean ET", "mean MT (ms)", "speedup vs 1"},
	}
	var base float64
	for _, w := range workerCounts {
		var et, mt float64
		for r := 0; r < cfg.Repeats; r++ {
			res, err := core.Solve(eval, core.Options{
				Workers: w, Seed: master.Uint64(), MaxIterations: cfg.MaxIterations,
			})
			if err != nil {
				return nil, err
			}
			et += res.Exec
			mt += float64(res.MappingTime.Milliseconds())
		}
		inv := 1 / float64(cfg.Repeats)
		et *= inv
		mt *= inv
		if base == 0 {
			base = mt
		}
		speedup := 0.0
		if mt > 0 {
			speedup = base / mt
		}
		t.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%.0f", et),
			fmt.Sprintf("%.1f", mt), fmt.Sprintf("%.2f", speedup))
	}
	return t, nil
}

// rowSeeds returns the stream of a baseline row's per-repeat seeds. It
// depends only on (seed, name), so adding, removing or reordering rows
// leaves every other row's inputs unchanged.
func rowSeeds(seed uint64, name string) *xrand.RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	return xrand.New(xrand.SeedKeyed(seed, h.Sum64()))
}

// CompareBaselines races every solver in the repository on one instance:
// MaTCH, FastMap-GA, random search, greedy, 2-swap local search and
// simulated annealing. Each row's seeds come from (cfg.Seed, row name).
func CompareBaselines(cfg AblationConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	eval, _, err := cfg.evaluator()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Baseline comparison (n=%d, %d repeats)", cfg.Size, cfg.Repeats),
		Header: []string{"solver", "mean ET", "mean MT (ms)", "mean evals"},
	}
	type outcome struct {
		exec  float64
		mt    time.Duration
		evals int64
	}
	run := func(name string, f func(seed uint64) (outcome, error)) error {
		var et, mt, evals float64
		seeds := rowSeeds(cfg.Seed, name)
		for r := 0; r < cfg.Repeats; r++ {
			out, err := f(seeds.Uint64())
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			et += out.exec
			mt += float64(out.mt.Milliseconds())
			evals += float64(out.evals)
		}
		inv := 1 / float64(cfg.Repeats)
		t.AddRow(name, fmt.Sprintf("%.0f", et*inv), fmt.Sprintf("%.1f", mt*inv), fmt.Sprintf("%.0f", evals*inv))
		return nil
	}

	if err := run("MaTCH", func(seed uint64) (outcome, error) {
		res, err := core.Solve(eval, core.Options{Seed: seed, MaxIterations: cfg.MaxIterations})
		if err != nil {
			return outcome{}, err
		}
		return outcome{res.Exec, res.MappingTime, res.Evaluations}, nil
	}); err != nil {
		return nil, err
	}
	if err := run("FastMap-GA 500/1000", func(seed uint64) (outcome, error) {
		res, err := ga.Solve(eval, ga.Options{Seed: seed})
		if err != nil {
			return outcome{}, err
		}
		return outcome{res.Exec, res.MappingTime, res.Evaluations}, nil
	}); err != nil {
		return nil, err
	}
	budget := 2 * cfg.Size * cfg.Size * 50 // comparable evaluation volume
	if err := run("RandomSearch", func(seed uint64) (outcome, error) {
		res, err := heuristics.RandomSearch(context.Background(), eval, budget, seed)
		if err != nil {
			return outcome{}, err
		}
		return outcome{res.Exec, res.MappingTime, res.Evaluations}, nil
	}); err != nil {
		return nil, err
	}
	if err := run("Greedy", func(seed uint64) (outcome, error) {
		res, err := heuristics.Greedy(eval)
		if err != nil {
			return outcome{}, err
		}
		return outcome{res.Exec, res.MappingTime, res.Evaluations}, nil
	}); err != nil {
		return nil, err
	}
	if err := run("LocalSearch x5", func(seed uint64) (outcome, error) {
		res, err := heuristics.LocalSearch(context.Background(), eval, 5, seed)
		if err != nil {
			return outcome{}, err
		}
		return outcome{res.Exec, res.MappingTime, res.Evaluations}, nil
	}); err != nil {
		return nil, err
	}
	if err := run("SimulatedAnnealing", func(seed uint64) (outcome, error) {
		res, err := heuristics.SimulatedAnnealing(eval, heuristics.AnnealOptions{Seed: seed})
		if err != nil {
			return outcome{}, err
		}
		return outcome{res.Exec, res.MappingTime, res.Evaluations}, nil
	}); err != nil {
		return nil, err
	}
	return t, nil
}
