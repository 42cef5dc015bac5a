package ce

import (
	"fmt"
	"sync"
	"sync/atomic"

	"matchsim/internal/stochmat"
	"matchsim/internal/xrand"
)

// PermutationProblem is the CE parameterisation MaTCH is built on,
// exposed generically: solutions are permutations of [0, n), drawn by
// GenPerm from an n x n row-stochastic matrix, with the eq. (11)/(13)
// elite-frequency update. Any score function over permutations plugs in —
// the travelling-salesman tour length below, assignment problems, or the
// mapping makespan (which internal/core wires in with its own stopping
// telemetry).
type PermutationProblem struct {
	n        int
	p        *stochmat.Matrix
	alias    *stochmat.AliasTable // O(1) row draws for the GenPerm sampler
	counts   []float64            // Update scratch: elite assignment frequencies
	score    func([]int) float64
	samplers sync.Pool

	// Sampling telemetry drained once per iteration via TakeSampleStats;
	// only nonzero counters are flushed so converged matrices pay nothing.
	statRejectTries   atomic.Uint64
	statFallbackDraws atomic.Uint64

	// DegenerateThresh: converged when every row's maximum exceeds it.
	DegenerateThresh float64
}

// NewPermutationProblem builds an n-element permutation problem scored
// by score, starting from the uniform stochastic matrix.
func NewPermutationProblem(n int, score func([]int) float64) (*PermutationProblem, error) {
	if n < 1 {
		return nil, fmt.Errorf("ce: permutation problem size %d < 1", n)
	}
	if score == nil {
		return nil, fmt.Errorf("ce: nil score function")
	}
	pp := &PermutationProblem{
		n:                n,
		p:                stochmat.NewUniform(n, n),
		score:            score,
		DegenerateThresh: 0.95,
	}
	pp.alias = stochmat.NewAliasTable(pp.p)
	pp.counts = make([]float64, n*n)
	pp.samplers.New = func() any { return stochmat.NewSampler(n) }
	return pp, nil
}

// Matrix exposes the current stochastic matrix (read-only).
func (pp *PermutationProblem) Matrix() *stochmat.Matrix { return pp.p }

// NewSolution implements Problem.
func (pp *PermutationProblem) NewSolution() []int { return make([]int, pp.n) }

// Copy implements Problem.
func (pp *PermutationProblem) Copy(dst, src []int) { copy(dst, src) }

// Sample implements Problem: one GenPerm draw through the alias table
// (rebuilt after every Update), scored by the problem's score function.
func (pp *PermutationProblem) Sample(rng *xrand.RNG, dst []int) (float64, error) {
	s := pp.samplers.Get().(*stochmat.Sampler)
	err := s.SamplePermutation(pp.p, pp.alias, rng, dst)
	if st := s.TakeStats(); st.RejectTries > 0 || st.FallbackDraws > 0 {
		if st.RejectTries > 0 {
			pp.statRejectTries.Add(st.RejectTries)
		}
		if st.FallbackDraws > 0 {
			pp.statFallbackDraws.Add(st.FallbackDraws)
		}
	}
	pp.samplers.Put(s)
	if err != nil {
		return 0, err
	}
	return pp.score(dst), nil
}

// TakeSampleStats implements SampleStatsProvider: drain and reset the
// per-iteration sampling counters.
func (pp *PermutationProblem) TakeSampleStats() SampleStats {
	return SampleStats{
		RejectTries:   pp.statRejectTries.Swap(0),
		FallbackDraws: pp.statFallbackDraws.Swap(0),
	}
}

// Update implements Problem: eq. (11) elite frequencies + eq. (13)
// smoothing.
func (pp *PermutationProblem) Update(elite [][]int, zeta float64) error {
	if len(elite) == 0 {
		return fmt.Errorf("ce: empty elite set")
	}
	if err := pp.p.SmoothElite(elite, pp.counts, zeta); err != nil {
		return err
	}
	pp.alias.Rebuild(pp.p)
	return nil
}

// Converged implements Problem.
func (pp *PermutationProblem) Converged() bool {
	return pp.p.IsDegenerate(pp.DegenerateThresh)
}

// TourLength returns a score function for the (symmetric) travelling-
// salesman problem over an n x n distance matrix in row-major order: the
// length of the closed tour visiting cities in the permutation's order.
func TourLength(n int, dist []float64) (func([]int) float64, error) {
	if len(dist) != n*n {
		return nil, fmt.Errorf("ce: distance matrix has %d entries for n=%d", len(dist), n)
	}
	return func(perm []int) float64 {
		total := 0.0
		for i := 0; i < len(perm); i++ {
			from, to := perm[i], perm[(i+1)%len(perm)]
			total += dist[from*n+to]
		}
		return total
	}, nil
}
