package verify

import (
	"fmt"
	"math"

	"matchsim/internal/ce"
	"matchsim/internal/stats"
	"matchsim/internal/stochmat"
	"matchsim/internal/xrand"
)

// CheckPermutation reports whether m is a valid permutation of [0, len(m)):
// every resource used exactly once. This is the sampler postcondition —
// GenPerm (Fig. 4) must emit permutations whatever the matrix looks like.
func CheckPermutation(m []int) error {
	n := len(m)
	seen := make([]bool, n)
	for t, s := range m {
		if s < 0 || s >= n {
			return fmt.Errorf("verify: mapping[%d] = %d outside [0,%d)", t, s, n)
		}
		if seen[s] {
			return fmt.Errorf("verify: resource %d assigned twice", s)
		}
		seen[s] = true
	}
	return nil
}

// CheckRowStochastic reports whether every row of p is a probability
// distribution: entries finite, non-negative, rows summing to 1 within
// tol. The CE update (stochmat's SmoothElite) must preserve this after
// every iteration.
func CheckRowStochastic(p *stochmat.Matrix, tol float64) error {
	if p == nil {
		return fmt.Errorf("verify: nil matrix")
	}
	if err := p.Validate(tol); err != nil {
		return fmt.Errorf("verify: matrix not row-stochastic: %w", err)
	}
	return nil
}

// CheckAliasRow draws `draws` samples from row `row` of an alias table
// built over m and runs a chi-square goodness-of-fit test against the
// matrix row itself. It returns an error when the test rejects at
// significance alpha (small alpha = lenient). Cells with expected count
// below 5 are pooled into their neighbour so the chi-square approximation
// holds on spiky rows.
func CheckAliasRow(m *stochmat.Matrix, row, draws int, rng *xrand.RNG, alpha float64) error {
	at := stochmat.NewAliasTable(m)
	cols := m.Cols()
	counts := make([]int, cols)
	for i := 0; i < draws; i++ {
		c := at.Sample(row, rng)
		if c < 0 || c >= cols {
			return fmt.Errorf("verify: alias sample %d outside [0,%d)", c, cols)
		}
		counts[c]++
	}
	// Pool cells left-to-right until each pooled cell's expectation >= 5.
	var (
		chi2   float64
		cells  int
		accExp float64
		accObs float64
	)
	rowP := m.Row(row)
	for c := 0; c < cols; c++ {
		accExp += rowP[c] * float64(draws)
		accObs += float64(counts[c])
		if accExp >= 5 || c == cols-1 {
			if accExp > 0 {
				d := accObs - accExp
				chi2 += d * d / accExp
				cells++
			} else if accObs > 0 {
				return fmt.Errorf("verify: alias row %d emitted %v draws for zero-probability cells", row, accObs)
			}
			accExp, accObs = 0, 0
		}
	}
	if cells < 2 {
		return nil // degenerate row: a single support point, nothing to test
	}
	p := stats.ChiSquareSurvival(chi2, cells-1)
	if p < alpha {
		return fmt.Errorf("verify: alias row %d fails chi-square: chi2=%.4g df=%d p=%.4g < alpha=%.4g",
			row, chi2, cells-1, p, alpha)
	}
	return nil
}

// CheckEliteSelection verifies a CE iteration's elite against all of its
// scores: elite lists min(k, len(scores)) distinct sample indices, best
// first by ascending score with ascending-index tie-breaks, and no sample
// left out ranks before the last of them — i.e. elite selection never
// lets a sample below gamma escape the elite set. ce.Elite, which keeps
// the elite while the workers draw, must leave exactly such a list.
func CheckEliteSelection(elite []int, scores []float64, k int) error {
	n := len(scores)
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	if len(elite) != k {
		return fmt.Errorf("verify: elite holds %d samples, want %d", len(elite), k)
	}
	better := func(a, b int) bool {
		sa, sb := scores[a], scores[b]
		if sa != sb {
			return sa < sb
		}
		return a < b
	}
	in := make([]bool, n)
	for i, idx := range elite {
		if idx < 0 || idx >= n {
			return fmt.Errorf("verify: elite[%d] = %d outside [0,%d)", i, idx, n)
		}
		if in[idx] {
			return fmt.Errorf("verify: sample %d in the elite twice", idx)
		}
		in[idx] = true
		if i > 0 && better(idx, elite[i-1]) {
			return fmt.Errorf("verify: elite unsorted at %d: sample %d (%.6g) after %d (%.6g)",
				i, idx, scores[idx], elite[i-1], scores[elite[i-1]])
		}
	}
	if k == 0 {
		return nil
	}
	gammaIdx := elite[k-1]
	for idx := range scores {
		if !in[idx] && better(idx, gammaIdx) {
			return fmt.Errorf("verify: non-elite sample %d (%.6g) beats gamma sample %d (%.6g)",
				idx, scores[idx], gammaIdx, scores[gammaIdx])
		}
	}
	return nil
}

// CheckHistory verifies the per-iteration search invariants of a CE run's
// trajectory: every summary statistic is finite (every draw is scored
// exactly), Best_k <= Gamma_k <= Worst_k (elite selection puts gamma at
// the rho-quantile, never past the extremes) and Best_k <= Mean_k <=
// Worst_k, BestSoFar_k is non-increasing and never above Best_k, the
// elite is non-empty and within the draw count. Raw gamma_k itself may
// rise between iterations (the sample set is redrawn each time — see the
// note in internal/ce/ce.go), so the monotone quantity under elite
// selection is the incumbent BestSoFar.
func CheckHistory(history []ce.IterStats) error {
	prevBestSoFar := math.NaN()
	for i, it := range history {
		for name, v := range map[string]float64{
			"gamma": it.Gamma, "best": it.Best, "worst": it.Worst, "mean": it.Mean,
			"best_so_far": it.BestSoFar,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("verify: iteration %d has non-finite %s (%v)", i, name, v)
			}
		}
		if it.Draws <= 0 {
			return fmt.Errorf("verify: iteration %d drew %d samples", i, it.Draws)
		}
		if it.EliteCount < 1 || it.EliteCount > it.Draws {
			return fmt.Errorf("verify: iteration %d elite count %d outside [1,%d]", i, it.EliteCount, it.Draws)
		}
		if it.Best > it.Gamma {
			return fmt.Errorf("verify: iteration %d best %.6g worse than gamma %.6g", i, it.Best, it.Gamma)
		}
		if it.Gamma > it.Worst {
			return fmt.Errorf("verify: iteration %d gamma %.6g worse than worst %.6g", i, it.Gamma, it.Worst)
		}
		if it.Best > it.Mean || it.Mean > it.Worst {
			return fmt.Errorf("verify: iteration %d mean %.6g outside [best %.6g, worst %.6g]",
				i, it.Mean, it.Best, it.Worst)
		}
		if it.BestSoFar > it.Best {
			return fmt.Errorf("verify: iteration %d best-so-far %.6g worse than iteration best %.6g",
				i, it.BestSoFar, it.Best)
		}
		if i > 0 && it.BestSoFar > prevBestSoFar {
			return fmt.Errorf("verify: best-so-far regressed at iteration %d: %.6g after %.6g",
				i, it.BestSoFar, prevBestSoFar)
		}
		prevBestSoFar = it.BestSoFar
	}
	return nil
}
