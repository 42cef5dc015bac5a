package verify

import (
	"fmt"

	"matchsim/internal/graph"
)

// RefLoads computes the per-resource loads Exec_s(M) of eqs. (1)
// literally: for each task t mapped to s, charge W^t * w_s to s; for each
// TIG edge (i, j) whose endpoints land on distinct resources a and b,
// charge C^{i,j} * c_{a,b} to *both* a and b. No adjacency structures, no
// edge packing, no reuse across calls — this is the reference the
// optimised kernels are measured against.
func RefLoads(tig *graph.TIG, platform *graph.ResourceGraph, m []int) ([]float64, error) {
	n := tig.NumTasks()
	r := platform.NumResources()
	if len(m) != n {
		return nil, fmt.Errorf("verify: mapping length %d != %d tasks", len(m), n)
	}
	for t, s := range m {
		if s < 0 || s >= r {
			return nil, fmt.Errorf("verify: task %d mapped to resource %d outside [0,%d)", t, s, r)
		}
	}
	loads := make([]float64, r)
	for t := 0; t < n; t++ {
		loads[m[t]] += float64(tig.Weights[t] * platform.Costs[m[t]])
	}
	for _, e := range tig.Edges() {
		a, b := m[e.U], m[e.V]
		if a == b {
			continue // co-located tasks communicate for free (c_{s,s} = 0)
		}
		comm := float64(e.Weight * platform.LinkCost(a, b))
		loads[a] += comm
		loads[b] += comm
	}
	return loads, nil
}

// RefExec returns Exec(M) = max_s Exec_s(M) of eq. (2).
func RefExec(tig *graph.TIG, platform *graph.ResourceGraph, m []int) (float64, error) {
	loads, err := RefLoads(tig, platform, m)
	if err != nil {
		return 0, err
	}
	max := 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max, nil
}

// RefExecAfterSwap returns Exec of m with the assignments of tasks t1 and
// t2 exchanged, by copying the mapping and fully rescoring — the oracle
// for cost.State.ExecAfterSwap's delta probe. m is not modified.
func RefExecAfterSwap(tig *graph.TIG, platform *graph.ResourceGraph, m []int, t1, t2 int) (float64, error) {
	if t1 < 0 || t1 >= len(m) || t2 < 0 || t2 >= len(m) {
		return 0, fmt.Errorf("verify: swap tasks (%d, %d) outside [0,%d)", t1, t2, len(m))
	}
	swapped := make([]int, len(m))
	copy(swapped, m)
	swapped[t1], swapped[t2] = swapped[t2], swapped[t1]
	return RefExec(tig, platform, swapped)
}
