package verify

import (
	"fmt"

	"matchsim/internal/stochmat"
	"matchsim/internal/xrand"
)

// RefSamplePermutation draws one GenPerm permutation (paper Fig. 4)
// literally: visit the tasks in a uniformly random order; for each task
// copy its row with the already-assigned columns zeroed, and draw a column
// by a linear roulette walk over that masked copy; if no mass is left on
// the unassigned columns, pick one of them uniformly. O(n^2) per draw and
// no lookup tables — the reference the production alias sampler
// (stochmat.Sampler.SamplePermutation) must match in distribution. It
// consumes the RNG differently, so the two agree in law, not draw by draw.
func RefSamplePermutation(m *stochmat.Matrix, rng *xrand.RNG) ([]int, error) {
	n := m.Rows()
	if m.Cols() != n {
		return nil, fmt.Errorf("verify: GenPerm on non-square %dx%d matrix", n, m.Cols())
	}
	order := make([]int, n)
	rng.PermInto(order)
	masked := make([]bool, n)
	weights := make([]float64, n)
	dst := make([]int, n)
	for assigned, task := range order {
		total := 0.0
		for j, p := range m.Row(task) {
			weights[j] = 0
			if !masked[j] {
				weights[j] = p
				total += p
			}
		}
		choice := -1
		if total > 1e-300 {
			choice = rng.CategoricalTotal(weights, total)
		} else {
			k := rng.Intn(n - assigned)
			for j := range masked {
				if masked[j] {
					continue
				}
				if k == 0 {
					choice = j
					break
				}
				k--
			}
		}
		dst[task] = choice
		masked[choice] = true
	}
	return dst, nil
}
