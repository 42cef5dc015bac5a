package main

import (
	"fmt"
	"os"
	"time"

	"matchsim/internal/core"
	"matchsim/internal/cost"
	"matchsim/internal/gen"
)

// scaleCase is one row of the scale experiment: a paper instance of n
// tasks solved for a fixed iteration budget (stall stops disabled so every
// arm does identical work), repeated reps times keeping the fastest run —
// min-of-reps is the standard estimator for wall clock on a noisy box.
type scaleCase struct {
	n     int
	iters int
	reps  int
}

// prePRBaselineNs records the fused Solve wall clock at commit ce54eb4 —
// the state of the hot loop before the persistent-pool/alias/pruning
// scaling pass — measured on the same single-core reference machine with
// the exact scaleCase budgets below (instance seed 2005, solver seed 7).
// They are constants rather than re-measured because the old code no
// longer exists in the tree; treat them as ±10% (the box's timer noise).
var prePRBaselineNs = map[int]int64{
	64:  3_348_509_509,
	128: 23_602_904_726,
	256: 110_724_348_555,
}

// runScale measures end-to-end Solve wall clock at large n and — with
// -json — writes BENCH_scale.json including the recorded
// pre-optimisation baselines and the speedup against them.
func runScale(seed uint64, quick, jsonOut, quiet bool) error {
	cases := []scaleCase{{64, 40, 3}, {128, 25, 3}, {256, 8, 1}}
	if quick {
		cases = []scaleCase{{16, 20, 1}, {32, 10, 1}}
	}

	// Untimed warmup: the first solve in a fresh process pays page-fault
	// and frequency-ramp costs that would otherwise land entirely on the
	// first measured case.
	if warm, err := gen.PaperInstance(seed, 32, gen.DefaultPaperConfig()); err == nil {
		if we, err := cost.NewEvaluator(warm.TIG, warm.Platform); err == nil {
			_, _ = core.Solve(we, core.Options{Seed: 7, MaxIterations: 10,
				StallC: 1 << 30, GammaStallWindow: 1 << 30})
		}
	}

	var recs []benchRecord
	for _, c := range cases {
		inst, err := gen.PaperInstance(seed, c.n, gen.DefaultPaperConfig())
		if err != nil {
			return err
		}
		eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
		if err != nil {
			return err
		}

		var minNs int64
		var exec float64
		for rep := 0; rep < c.reps; rep++ {
			start := time.Now()
			res, err := core.Solve(eval, core.Options{
				Seed:             7,
				MaxIterations:    c.iters,
				StallC:           1 << 30,
				GammaStallWindow: 1 << 30,
			})
			if err != nil {
				return err
			}
			ns := time.Since(start).Nanoseconds()
			if rep == 0 || ns < minNs {
				minNs = ns
			}
			exec = res.Exec
			if !quiet {
				fmt.Fprintf(os.Stderr, "scale n=%-4d rep=%d %12d ns  exec=%g\n", c.n, rep, ns, res.Exec)
			}
		}

		rec := benchRecord{Name: "solve", Size: c.n, Solver: "MaTCH", ET: exec, NsPerOp: minNs}
		if base, ok := prePRBaselineNs[c.n]; ok && seed == 2005 {
			rec.SpeedupVsBaseline = float64(base) / float64(minNs)
		}
		recs = append(recs, rec)
		if base, ok := prePRBaselineNs[c.n]; ok && seed == 2005 {
			recs = append(recs, benchRecord{
				Name: "solve-prepr-fused", Size: c.n, Solver: "MaTCH", NsPerOp: base,
			})
		}
	}

	fmt.Printf("%-18s %6s %14s %10s %10s\n", "benchmark", "n", "ns/op", "exec", "speedup")
	for _, r := range recs {
		speedup := ""
		if r.SpeedupVsBaseline > 0 {
			speedup = fmt.Sprintf("%.2fx", r.SpeedupVsBaseline)
		}
		fmt.Printf("%-18s %6d %14d %10g %10s\n", r.Name, r.Size, r.NsPerOp, r.ET, speedup)
	}

	if jsonOut {
		return writeBenchJSON("scale", recs)
	}
	return nil
}
