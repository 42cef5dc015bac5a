// Command matchbench regenerates every table and figure of the paper's
// experimental study (Section 5) plus the ablation studies documented in
// DESIGN.md.
//
// Usage:
//
//	matchbench -exp table1        # Table 1 (and the shared sweep for Table 2)
//	matchbench -exp table3        # ANOVA study
//	matchbench -exp fig3          # stochastic matrix evolution
//	matchbench -exp fig7          # ET bar chart (same sweep as Table 1)
//	matchbench -exp all           # everything
//	matchbench -exp table1 -quick # reduced budgets for smoke runs
//	matchbench -exp table1 -csv   # machine-readable output
//	matchbench -exp table1 -json  # also write BENCH_table1.json
//	matchbench -exp kernel -json  # hot-path micro-benchmarks -> BENCH_kernel.json
//	matchbench -exp multilevel -json  # multilevel vs single-level CE -> BENCH_multilevel.json
//	matchbench -exp island -json  # island-model time-to-target -> BENCH_island.json
//	matchbench -exp kernel -compare BENCH_kernel.json  # CI regression guard
//	matchbench -exp trace-overhead  # traced vs untraced solve; exit 1 above -max-overhead
//
// Experiments: table1, table2, table3 (with post-hoc Welch tests; -size
// overrides the instance size), fig3, fig7, fig8, fig9, convergence,
// scaling, simcheck, overset, kernel (sample-and-score micro-benchmarks
// plus an end-to-end Solve; -baseline annotates a speedup against a
// reference ns/op; -compare regression-checks the micros against a
// committed baseline), multilevel (coarsen/solve/refine pipeline
// vs single-level CE at n = 256..10240; -compare regression-checks the
// quick records against a committed BENCH_multilevel.json), island
// (island-model ensembles at I = 1/2/4/8: wall time to reach the
// single-island 200-iteration ET, plus a migration-interval sweep),
// ablation-rho, ablation-zeta,
// ablation-samples, ablation-workers, ablation-selection,
// ablation-warmstart, baselines, all.
//
// -cpuprofile/-memprofile write pprof profiles covering the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"matchsim/internal/core"
	"matchsim/internal/exp"
	"matchsim/internal/ga"
)

func main() {
	var (
		expName     = flag.String("exp", "all", "experiment to run")
		seed        = flag.Uint64("seed", 2005, "master seed")
		size        = flag.Int("size", 0, "instance size override for table3 (paper: 10)")
		quick       = flag.Bool("quick", false, "reduced budgets (seconds instead of minutes)")
		csv         = flag.Bool("csv", false, "emit CSV instead of formatted tables")
		jsonOut     = flag.Bool("json", false, "also write BENCH_<name>.json artefacts (table1, kernel, multilevel, island)")
		baseline    = flag.Int64("baseline", 0, "reference ns/op for kernel speedup annotations (e.g. a pre-optimisation end-to-end run)")
		quiet       = flag.Bool("q", false, "suppress progress output")
		compare     = flag.String("compare", "", "BENCH_kernel.json baseline to regression-check the kernel micro-benchmarks against (exit 1 on >25% ns/op regression; silently skipped when the file is missing)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile at exit to this file")
		maxOverhead = flag.Float64("max-overhead", 0.02, "trace-overhead: fail above this fractional wall-clock overhead (0 disables the check)")
	)
	flag.Parse()

	if *expName == "trace-overhead" {
		if err := runTraceOverhead(*seed, *quick, *jsonOut, *quiet, *maxOverhead); err != nil {
			fmt.Fprintf(os.Stderr, "matchbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "matchbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "matchbench: %v\n", err)
			os.Exit(1)
		}
	}

	err := run(*expName, *seed, *size, *quick, *csv, *jsonOut, *baseline, *quiet, *compare)

	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr == nil {
			runtime.GC() // materialise only live heap in the profile
			ferr = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "matchbench: memprofile: %v\n", ferr)
		}
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "matchbench: %v\n", err)
		os.Exit(1)
	}
}

// sweepConfig builds the Table 1/2 configuration. The paper's full
// protocol (sizes 10..50, 5 repeats, GA 500x1000) takes minutes; -quick
// shrinks it to a smoke test.
func sweepConfig(seed uint64, quick, quiet bool) exp.SweepConfig {
	cfg := exp.SweepConfig{Seed: seed}
	if quick {
		cfg.Sizes = []int{10, 20, 30}
		cfg.Repeats = 2
		cfg.GA = ga.Options{PopulationSize: 100, Generations: 150}
		cfg.MaTCH = core.Options{MaxIterations: 60}
	}
	if !quiet {
		cfg.Progress = os.Stderr
	}
	return cfg
}

func run(expName string, seed uint64, size int, quick, csv, jsonOut bool, baseline int64, quiet bool, compare string) error {
	show := func(t *exp.Table) {
		if csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}

	if expName == "kernel" {
		return runKernel(seed, quick, jsonOut, baseline, quiet, compare)
	}
	if expName == "multilevel" {
		return runMultilevel(seed, quick, jsonOut, quiet, compare)
	}
	if expName == "island" {
		return runIsland(seed, quick, jsonOut, quiet)
	}

	needsSweep := map[string]bool{"table1": true, "table2": true, "fig7": true, "fig8": true, "fig9": true, "all": true}
	var sweep *exp.SweepResult
	if needsSweep[expName] {
		var err error
		sweep, err = exp.RunSweep(sweepConfig(seed, quick, quiet))
		if err != nil {
			return err
		}
	}

	match := func(names ...string) bool {
		if expName == "all" {
			return true
		}
		for _, n := range names {
			if expName == n {
				return true
			}
		}
		return false
	}

	ran := false
	if match("table1") {
		show(exp.RenderTable1(sweep))
		if jsonOut {
			var recs []benchRecord
			for i, n := range sweep.Sizes {
				recs = append(recs,
					benchRecord{Name: "table1", Size: n, Solver: "MaTCH",
						ET: sweep.MaTCH[i].ET, NsPerOp: sweep.MaTCH[i].MT.Nanoseconds()},
					benchRecord{Name: "table1", Size: n, Solver: "FastMapGA",
						ET: sweep.GA[i].ET, NsPerOp: sweep.GA[i].MT.Nanoseconds()})
			}
			if err := writeBenchJSON("table1", recs); err != nil {
				return err
			}
		}
		ran = true
	}
	if match("table2") {
		show(exp.RenderTable2(sweep))
		ran = true
	}
	if match("fig7") {
		fmt.Println(exp.RenderFig7(sweep))
		ran = true
	}
	if match("fig8") {
		fmt.Println(exp.RenderFig8(sweep))
		ran = true
	}
	if match("fig9") {
		fmt.Println(exp.RenderFig9(sweep))
		ran = true
	}
	if match("table3") {
		cfg := exp.ANOVAConfig{Seed: seed, Size: size}
		if quick {
			cfg.Runs = 8
			cfg.GASmallPop = ga.Options{PopulationSize: 50, Generations: 400}
			cfg.GALargePop = ga.Options{PopulationSize: 200, Generations: 100}
			cfg.MaTCH = core.Options{MaxIterations: 80}
		}
		if !quiet {
			cfg.Progress = os.Stderr
		}
		res, err := exp.RunANOVA(cfg)
		if err != nil {
			return err
		}
		desc, an := exp.RenderTable3(res)
		show(desc)
		show(an)
		show(exp.RenderPostHoc(res))
		ran = true
	}
	if match("convergence") {
		cfg := exp.Fig3Config{Seed: seed}
		if quick {
			cfg.MaTCH = core.Options{MaxIterations: 60}
		}
		res, err := exp.RunFig3(cfg)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderConvergence("MaTCH convergence trace (n=10)", res.Run.History))
		if csv {
			fmt.Print(exp.HistoryCSV(res.Run.History))
		}
		ran = true
	}
	if match("fig3") {
		cfg := exp.Fig3Config{Seed: seed}
		if quick {
			cfg.MaTCH = core.Options{MaxIterations: 80}
		}
		res, err := exp.RunFig3(cfg)
		if err != nil {
			return err
		}
		fmt.Println(exp.RenderFig3(res))
		ran = true
	}

	abl := exp.AblationConfig{Seed: seed}
	if quick {
		abl.Size = 12
		abl.Repeats = 2
		abl.MaxIterations = 50
	}
	if match("ablation-rho") {
		t, err := exp.AblateRho(abl, nil)
		if err != nil {
			return err
		}
		show(t)
		ran = true
	}
	if match("ablation-zeta") {
		t, err := exp.AblateZeta(abl, nil)
		if err != nil {
			return err
		}
		show(t)
		ran = true
	}
	if match("ablation-samples") {
		t, err := exp.AblateSampleSize(abl, nil)
		if err != nil {
			return err
		}
		show(t)
		ran = true
	}
	if match("ablation-workers") {
		t, err := exp.AblateWorkers(abl, nil)
		if err != nil {
			return err
		}
		show(t)
		ran = true
	}
	if match("ablation-selection") {
		t, err := exp.AblateSelection(abl)
		if err != nil {
			return err
		}
		show(t)
		ran = true
	}
	if match("ablation-warmstart") {
		t, err := exp.AblateWarmStart(abl)
		if err != nil {
			return err
		}
		show(t)
		ran = true
	}
	if match("overset") {
		sizes := []int{10, 20, 30}
		repeats := 3
		if quick {
			sizes = []int{8, 12}
			repeats = 1
		}
		res, err := exp.OversetSweep(seed, sizes, repeats)
		if err != nil {
			return err
		}
		show(exp.RenderOversetSweep(res))
		ran = true
	}
	if match("simcheck") {
		sizes := []int{10, 20, 30}
		if quick {
			sizes = []int{8, 12}
		}
		res, err := exp.RunSimCheck(seed, sizes)
		if err != nil {
			return err
		}
		show(exp.RenderSimCheck(res))
		ran = true
	}
	if match("scaling") {
		sizes := []int{10, 20, 30, 40}
		repeats := 3
		if quick {
			sizes = []int{8, 12, 16}
			repeats = 1
		}
		res, err := exp.RunScaling(seed, sizes, repeats)
		if err != nil {
			return err
		}
		show(exp.RenderScaling(res))
		ran = true
	}
	if match("baselines") {
		t, err := exp.CompareBaselines(abl)
		if err != nil {
			return err
		}
		show(t)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want one of table1 table2 table3 fig3 fig7 fig8 fig9 kernel multilevel island trace-overhead %s baselines overset simcheck scaling convergence all)",
			expName, strings.Join([]string{"ablation-rho", "ablation-zeta", "ablation-samples", "ablation-workers", "ablation-selection", "ablation-warmstart"}, " "))
	}
	return nil
}
