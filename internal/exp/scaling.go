package exp

import (
	"fmt"
	"time"

	"matchsim/internal/core"
	"matchsim/internal/cost"
	"matchsim/internal/ga"
	"matchsim/internal/gen"
	"matchsim/internal/stats"
	"matchsim/internal/xrand"
)

// ScalingResult quantifies Table 2's growth claim: how mapping time
// scales with problem size for each solver, as a fitted power law
// MT ~ c * n^k.
type ScalingResult struct {
	Sizes []int
	// MatchMT and GAMT are the minimum mapping times over the repeats
	// at each size: a load spike only ever lengthens a run, so the
	// minimum is the run least disturbed by other work on the machine.
	MatchMT, GAMT []time.Duration
	// Match/GA exponents and fit quality from log-log regression.
	MatchExponent, MatchR2 float64
	GAExponent, GAR2       float64
}

// RunScaling measures solver wall-clock over a size sweep and fits the
// growth exponents. The CE method's per-iteration cost is
// N * O(n + |Et|) with N = 2n^2, so MaTCH's exponent should land well
// above the GA's (whose population is size-independent; only the
// per-evaluation cost grows).
func RunScaling(seed uint64, sizes []int, repeats int) (*ScalingResult, error) {
	if len(sizes) == 0 {
		sizes = []int{10, 20, 30, 40}
	}
	if repeats == 0 {
		repeats = 3
	}
	master := xrand.New(seed)
	res := &ScalingResult{Sizes: sizes}
	for _, n := range sizes {
		inst, err := gen.PaperInstance(master.Uint64(), n, gen.DefaultPaperConfig())
		if err != nil {
			return nil, err
		}
		eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
		if err != nil {
			return nil, err
		}
		var mMT, gMT time.Duration
		for rep := 0; rep < repeats; rep++ {
			runSeed := master.Uint64()
			mRes, err := core.Solve(eval, core.Options{Seed: runSeed, MaxIterations: 40, GammaStallWindow: 41})
			if err != nil {
				return nil, err
			}
			if rep == 0 || mRes.MappingTime < mMT {
				mMT = mRes.MappingTime
			}
			gRes, err := ga.Solve(eval, ga.Options{PopulationSize: 200, Generations: 200, Seed: runSeed})
			if err != nil {
				return nil, err
			}
			if rep == 0 || gRes.MappingTime < gMT {
				gMT = gRes.MappingTime
			}
		}
		res.MatchMT = append(res.MatchMT, mMT)
		res.GAMT = append(res.GAMT, gMT)
	}

	xs := make([]float64, len(sizes))
	my := make([]float64, len(sizes))
	gy := make([]float64, len(sizes))
	for i, n := range sizes {
		xs[i] = float64(n)
		my[i] = res.MatchMT[i].Seconds()
		gy[i] = res.GAMT[i].Seconds()
	}
	var err error
	res.MatchExponent, _, res.MatchR2, err = stats.PowerLawFit(xs, my)
	if err != nil {
		return nil, fmt.Errorf("exp: MaTCH scaling fit: %w", err)
	}
	res.GAExponent, _, res.GAR2, err = stats.PowerLawFit(xs, gy)
	if err != nil {
		return nil, fmt.Errorf("exp: GA scaling fit: %w", err)
	}
	return res, nil
}

// RenderScaling formats the scaling study.
func RenderScaling(r *ScalingResult) *Table {
	t := &Table{
		Title:  "Scaling: mapping-time growth MT ~ c * n^k (fixed 40 CE iterations vs 200x200 GA)",
		Header: []string{"n"},
	}
	mRow := []string{"MT_MaTCH (ms)"}
	gRow := []string{"MT_GA (ms)"}
	for i, n := range r.Sizes {
		t.Header = append(t.Header, fmt.Sprintf("%d", n))
		mRow = append(mRow, fmt.Sprintf("%.1f", float64(r.MatchMT[i].Microseconds())/1000))
		gRow = append(gRow, fmt.Sprintf("%.1f", float64(r.GAMT[i].Microseconds())/1000))
	}
	t.Header = append(t.Header, "exponent k", "R^2")
	mRow = append(mRow, fmt.Sprintf("%.2f", r.MatchExponent), fmt.Sprintf("%.3f", r.MatchR2))
	gRow = append(gRow, fmt.Sprintf("%.2f", r.GAExponent), fmt.Sprintf("%.3f", r.GAR2))
	t.AddRow(mRow...)
	t.AddRow(gRow...)
	return t
}
