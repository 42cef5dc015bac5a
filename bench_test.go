// Benchmarks regenerating the paper's tables and figures, one benchmark
// family per artefact, plus ablation benches for the design choices
// DESIGN.md calls out.
//
// Each benchmark iteration performs one complete (budget-reduced) run of
// the experiment it names, so `go test -bench=. -benchmem` doubles as a
// smoke-regeneration of the whole evaluation section; the full-budget
// protocol lives in cmd/matchbench. BenchmarkTable1/ET_* report the
// measured execution times through b.ReportMetric so the who-wins shape
// is visible directly in benchmark output.
package matchsim

import (
	"bytes"
	"fmt"
	"testing"

	"matchsim/internal/core"
	"matchsim/internal/cost"
	"matchsim/internal/exp"
	"matchsim/internal/ga"
	"matchsim/internal/gen"
	"matchsim/internal/graph"
	"matchsim/internal/heuristics"
	"matchsim/internal/stochmat"
	"matchsim/internal/xrand"
)

// benchEval builds the shared evaluator for one size.
func benchEval(b *testing.B, seed uint64, n int) *cost.Evaluator {
	b.Helper()
	inst, err := gen.PaperInstance(seed, n, gen.DefaultPaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		b.Fatal(err)
	}
	return eval
}

// --- Table 1 (ET comparison) and Table 2 (MT comparison) -----------------
//
// One sub-benchmark per size per solver. The benchmark time of the MaTCH
// and GA variants at the same size IS Table 2's MT data; the reported
// "ET" metric is Table 1's quality data.

func BenchmarkTable1_MaTCH(b *testing.B) {
	// The paper's sizes plus n=64, the size the hot-path kernel
	// benchmarks in EXPERIMENTS.md are keyed to.
	for _, n := range append(gen.PaperSizes(), 64) {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			eval := benchEval(b, 2005, n)
			var lastET float64
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(eval, core.Options{
					Seed: uint64(i), MaxIterations: 120,
				})
				if err != nil {
					b.Fatal(err)
				}
				lastET = res.Exec
			}
			b.ReportMetric(lastET, "ET-units")
		})
	}
}

func BenchmarkTable1_FastMapGA(b *testing.B) {
	for _, n := range gen.PaperSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			eval := benchEval(b, 2005, n)
			var lastET float64
			for i := 0; i < b.N; i++ {
				res, err := ga.Solve(eval, ga.Options{
					PopulationSize: 200, Generations: 200, Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				lastET = res.Exec
			}
			b.ReportMetric(lastET, "ET-units")
		})
	}
}

// BenchmarkTable2_MappingTime measures pure solver wall-clock (the MT of
// Table 2) at the paper's largest size for both algorithms.
func BenchmarkTable2_MappingTime(b *testing.B) {
	eval := benchEval(b, 2005, 50)
	b.Run("MaTCH/n=50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(eval, core.Options{Seed: uint64(i), MaxIterations: 40}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FastMapGA/n=50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ga.Solve(eval, ga.Options{PopulationSize: 500, Generations: 100, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Table 3 (ANOVA study) ------------------------------------------------

func BenchmarkTable3_ANOVA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunANOVA(exp.ANOVAConfig{
			Size: 10, Runs: 6, Seed: uint64(2005 + i),
			GASmallPop: ga.Options{PopulationSize: 50, Generations: 300},
			GALargePop: ga.Options{PopulationSize: 150, Generations: 100},
			MaTCH:      core.Options{MaxIterations: 60},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.ANOVA.F, "F-stat")
		}
	}
}

// --- Figure 3 (stochastic matrix evolution) -------------------------------

func BenchmarkFig3_MatrixEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig3(exp.Fig3Config{
			Size: 10, Seed: uint64(2005 + i), SnapshotEvery: 5,
			MaTCH: core.Options{MaxIterations: 120},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			final := res.Entropies[len(res.Entropies)-1]
			b.ReportMetric(final, "final-entropy-nats")
		}
	}
}

// --- Figures 7, 8, 9 (the sweep the bar charts are drawn from) ------------

func benchSweep(b *testing.B, seed uint64) *exp.SweepResult {
	b.Helper()
	res, err := exp.RunSweep(exp.SweepConfig{
		Sizes:   []int{10, 20, 30},
		Repeats: 1,
		Seed:    seed,
		GA:      ga.Options{PopulationSize: 100, Generations: 100},
		MaTCH:   core.Options{MaxIterations: 50},
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkFig7_ExecutionTimeSweep(b *testing.B) {
	var last *exp.SweepResult
	for i := 0; i < b.N; i++ {
		last = benchSweep(b, uint64(2005+i))
	}
	// The headline shape metric: ET ratio at the largest size.
	b.ReportMetric(last.ETRatio(len(last.Sizes)-1), "ET-ratio-largest-n")
}

func BenchmarkFig8_MappingTimeSweep(b *testing.B) {
	var last *exp.SweepResult
	for i := 0; i < b.N; i++ {
		last = benchSweep(b, uint64(3005+i))
	}
	b.ReportMetric(last.MTRatio(len(last.Sizes)-1), "MT-ratio-largest-n")
}

func BenchmarkFig9_TurnaroundSweep(b *testing.B) {
	var last *exp.SweepResult
	for i := 0; i < b.N; i++ {
		last = benchSweep(b, uint64(4005+i))
	}
	idx := len(last.Sizes) - 1
	gaATN := exp.ATN(last.GA[idx], exp.ATNUnitsPerSecond)
	mATN := exp.ATN(last.MaTCH[idx], exp.ATNUnitsPerSecond)
	b.ReportMetric(gaATN/mATN, "ATN-ratio-largest-n")
}

// --- Kernel micro-benchmarks (the GenPerm sampler) -------------------------

// BenchmarkGenPerm isolates one GenPerm permutation draw by the production
// alias-table sampler. Two matrix regimes bracket a CE run: uniform
// (iteration 0, worst case for rejection late in a draw) and
// near-degenerate (the pre-stop regime where almost every first try hits).
func BenchmarkGenPerm(b *testing.B) {
	const n = 64
	matrices := map[string]*stochmat.Matrix{
		"uniform": stochmat.NewUniform(n, n),
		"peaked":  benchPeakedMatrix(b, n),
	}
	for name, m := range matrices {
		at := stochmat.NewAliasTable(m)
		s := stochmat.NewSampler(n)
		dst := make([]int, n)
		b.Run(name, func(b *testing.B) {
			rng := xrand.New(1)
			for i := 0; i < b.N; i++ {
				if err := s.SamplePermutation(m, at, rng, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchPeakedMatrix(b *testing.B, n int) *stochmat.Matrix {
	b.Helper()
	m := stochmat.NewUniform(n, n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = 1e-3
		}
		row[(i*13+5)%n] = 1
		if err := m.SetRow(i, row); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// --- Instance decode --------------------------------------------------------

// benchProblem keeps BenchmarkReadProblem's result live.
var benchProblem *Problem

// BenchmarkReadProblem decodes the fixed-seed n=1024 gen.LargeInstance
// document (about 0.31 MB, most of it the TIG's edges; the platform is
// 1024 cluster labels and a 16 x 16 cost table) into a Problem: the
// set-up every solve of a multilevel-sized submission pays before its
// first iteration.
func BenchmarkReadProblem(b *testing.B) {
	inst, err := gen.LargeInstance(2005, 1024, gen.LargeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	var doc bytes.Buffer
	if err := graph.WriteInstance(&doc, inst); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ReadProblem(bytes.NewReader(doc.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		benchProblem = p
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ------------

// BenchmarkAblation_Rho probes the focus parameter: smaller rho = sharper
// elite = faster convergence but higher premature-convergence risk.
func BenchmarkAblation_Rho(b *testing.B) {
	eval := benchEval(b, 2005, 20)
	for _, rho := range []float64{0.01, 0.05, 0.1} {
		b.Run(fmt.Sprintf("rho=%.2f", rho), func(b *testing.B) {
			var lastET float64
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(eval, core.Options{Rho: rho, Seed: uint64(i), MaxIterations: 80})
				if err != nil {
					b.Fatal(err)
				}
				lastET = res.Exec
			}
			b.ReportMetric(lastET, "ET-units")
		})
	}
}

// BenchmarkAblation_Zeta probes eq. (13) smoothing; zeta=1 disables it.
func BenchmarkAblation_Zeta(b *testing.B) {
	eval := benchEval(b, 2005, 20)
	for _, zeta := range []float64{0.3, 0.7, 1.0} {
		b.Run(fmt.Sprintf("zeta=%.1f", zeta), func(b *testing.B) {
			var lastET float64
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(eval, core.Options{Zeta: zeta, Seed: uint64(i), MaxIterations: 80})
				if err != nil {
					b.Fatal(err)
				}
				lastET = res.Exec
			}
			b.ReportMetric(lastET, "ET-units")
		})
	}
}

// BenchmarkAblation_SampleSize probes the paper's N = 2n^2 rule.
func BenchmarkAblation_SampleSize(b *testing.B) {
	eval := benchEval(b, 2005, 20)
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("N=%dn2", k), func(b *testing.B) {
			var lastET float64
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(eval, core.Options{
					SampleSize: k * 20 * 20, Seed: uint64(i), MaxIterations: 80,
				})
				if err != nil {
					b.Fatal(err)
				}
				lastET = res.Exec
			}
			b.ReportMetric(lastET, "ET-units")
		})
	}
}

// BenchmarkAblation_Workers measures the worker-pool speedup of the CE
// sampling/scoring fan-out.
func BenchmarkAblation_Workers(b *testing.B) {
	eval := benchEval(b, 2005, 30)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(eval, core.Options{
					Workers: w, Seed: 7, MaxIterations: 20,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Baselines races all solvers on one instance at a
// comparable budget.
func BenchmarkAblation_Baselines(b *testing.B) {
	p, err := GeneratePaper(2005, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("MaTCH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveMaTCH(p, MaTCHOptions{Seed: uint64(i), MaxIterations: 60}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Distributed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveDistributed(p, DistributedOptions{Seed: uint64(i), MaxIterations: 60}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveGA(p, GAOptions{PopulationSize: 100, Generations: 100, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveRandom(p, 10000, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LocalSearch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveLocalSearch(p, 3, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Annealing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveAnnealing(p, AnnealingOptions{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_GenPermVsNaive quantifies why GenPerm exists: naive
// independent-row sampling plus rejection of non-permutations wastes
// essentially all draws even at small n.
func BenchmarkAblation_GenPermVsNaive(b *testing.B) {
	// See internal/stochmat BenchmarkSamplePermutation50 for the GenPerm
	// cost; here we measure the end-to-end effect: ManyToOne (free-form
	// rows, no masking) vs Solve (GenPerm) on the same square instance.
	eval := benchEval(b, 2005, 15)
	b.Run("GenPerm", func(b *testing.B) {
		var lastET float64
		for i := 0; i < b.N; i++ {
			res, err := core.Solve(eval, core.Options{Seed: uint64(i), MaxIterations: 60})
			if err != nil {
				b.Fatal(err)
			}
			lastET = res.Exec
		}
		b.ReportMetric(lastET, "ET-units")
	})
	b.Run("NaiveRows", func(b *testing.B) {
		var lastET float64
		for i := 0; i < b.N; i++ {
			res, err := core.ManyToOne(eval, core.Options{Seed: uint64(i), MaxIterations: 60})
			if err != nil {
				b.Fatal(err)
			}
			lastET = res.Exec
		}
		b.ReportMetric(lastET, "ET-units")
	})
}

// BenchmarkAblation_Selection compares the paper's roulette GA selection
// against tournament selection at equal budget.
func BenchmarkAblation_Selection(b *testing.B) {
	eval := benchEval(b, 2005, 20)
	for _, arm := range []struct {
		name   string
		scheme ga.SelectionScheme
	}{
		{"roulette", ga.SelectRoulette},
		{"tournament", ga.SelectTournament},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var lastET float64
			for i := 0; i < b.N; i++ {
				res, err := ga.Solve(eval, ga.Options{
					PopulationSize: 100, Generations: 100,
					Selection: arm.scheme, Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				lastET = res.Exec
			}
			b.ReportMetric(lastET, "ET-units")
		})
	}
}

// BenchmarkAblation_WarmStart compares uniform vs greedy-seeded P_0 at a
// tight iteration budget.
func BenchmarkAblation_WarmStart(b *testing.B) {
	eval := benchEval(b, 2005, 20)
	greedy, err := heuristics.Greedy(eval)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		warm cost.Mapping
	}{
		{"uniform", nil},
		{"greedy-seeded", greedy.Mapping},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var lastET float64
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(eval, core.Options{
					Seed: uint64(i), MaxIterations: 10, GammaStallWindow: 11,
					WarmStart: arm.warm,
				})
				if err != nil {
					b.Fatal(err)
				}
				lastET = res.Exec
			}
			b.ReportMetric(lastET, "ET-units")
		})
	}
}

// BenchmarkAblation_Polish measures the hybrid CE + 2-swap descent.
func BenchmarkAblation_Polish(b *testing.B) {
	eval := benchEval(b, 2005, 20)
	for _, polish := range []bool{false, true} {
		name := "plain"
		if polish {
			name = "polished"
		}
		b.Run(name, func(b *testing.B) {
			var lastET float64
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(eval, core.Options{
					Seed: uint64(i), MaxIterations: 30, GammaStallWindow: 31, Polish: polish,
				})
				if err != nil {
					b.Fatal(err)
				}
				lastET = res.Exec
			}
			b.ReportMetric(lastET, "ET-units")
		})
	}
}
