package ce

import (
	"fmt"

	"matchsim/internal/xrand"
)

// BernoulliProblem is the classic CE parameterisation for binary
// combinatorial problems (Rubinstein's max-cut formulation, which the
// paper cites as prior CE work): component i of a solution is drawn as an
// independent Bernoulli(p_i), and the update sets p_i to the (smoothed)
// fraction of elite solutions with bit i set.
//
// It serves two purposes here: it proves the ce framework is genuinely
// problem-agnostic (MaTCH is not special-cased), and it provides a
// well-understood testbed — on max-cut instances with a known optimal cut
// the CE method should recover the planted solution.
type BernoulliProblem struct {
	n     int
	p     []float64
	score func([]bool) float64
	// DegenerateThresh is the per-component probability margin at which
	// the distribution counts as converged (default 0.995).
	DegenerateThresh float64
}

// NewBernoulliProblem builds an n-bit problem scored by score. The
// initial distribution is p_i = 0.5 for all i.
func NewBernoulliProblem(n int, score func([]bool) float64) (*BernoulliProblem, error) {
	if n < 1 {
		return nil, fmt.Errorf("ce: bernoulli problem size %d < 1", n)
	}
	if score == nil {
		return nil, fmt.Errorf("ce: nil score function")
	}
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.5
	}
	return &BernoulliProblem{n: n, p: p, score: score, DegenerateThresh: 0.995}, nil
}

// Probabilities exposes the current parameter vector (read-only).
func (b *BernoulliProblem) Probabilities() []float64 { return b.p }

// NewSolution implements Problem.
func (b *BernoulliProblem) NewSolution() []bool { return make([]bool, b.n) }

// Copy implements Problem.
func (b *BernoulliProblem) Copy(dst, src []bool) { copy(dst, src) }

// Sample implements Problem: independent Bernoulli draws, scored.
func (b *BernoulliProblem) Sample(rng *xrand.RNG, dst []bool) (float64, error) {
	for i := range dst {
		dst[i] = rng.Bool(b.p[i])
	}
	return b.score(dst), nil
}

// Update implements Problem: p_i <- zeta * eliteFrac_i + (1-zeta) * p_i.
func (b *BernoulliProblem) Update(elite [][]bool, zeta float64) error {
	if len(elite) == 0 {
		return fmt.Errorf("ce: empty elite set")
	}
	inv := 1 / float64(len(elite))
	for i := 0; i < b.n; i++ {
		count := 0
		for _, e := range elite {
			if e[i] {
				count++
			}
		}
		q := float64(count) * inv
		b.p[i] = float64(zeta*q) + float64((1-zeta)*b.p[i])
	}
	return nil
}

// Converged implements Problem: every component is within
// DegenerateThresh of 0 or 1.
func (b *BernoulliProblem) Converged() bool {
	for _, v := range b.p {
		if v > 1-b.DegenerateThresh && v < b.DegenerateThresh {
			return false
		}
	}
	return true
}

// Mode returns the most probable solution under the current distribution.
func (b *BernoulliProblem) Mode() []bool {
	out := make([]bool, b.n)
	for i, v := range b.p {
		out[i] = v >= 0.5
	}
	return out
}

// MaxCutScore builds a score function for the (weighted) max-cut problem
// on an n-vertex graph given as an edge list: the value of a cut s is the
// total weight of edges crossing the partition {i : s[i]} vs the rest.
// Rubinstein (2002) used exactly this problem to introduce CE for COPs.
type CutEdge struct {
	U, V   int
	Weight float64
}

// MaxCutScore returns the score function over cut indicator vectors.
func MaxCutScore(edges []CutEdge) func([]bool) float64 {
	return func(s []bool) float64 {
		total := 0.0
		for _, e := range edges {
			if s[e.U] != s[e.V] {
				total += e.Weight
			}
		}
		return total
	}
}
