package ce

import (
	"errors"

	"matchsim/internal/xrand"
)

// vectorProblem is the test-only CE problem the engine tests run on: a
// solution gives each of n positions one of k values, drawn independently
// from the position's row of an n×k row-stochastic matrix. Update sets
// every row to the smoothed elite frequencies (eq. 11 + eq. 13), and the
// run has converged when every row's maximum exceeds degenerate. It is
// MaTCH's many-to-one parameterisation without the platform.
type vectorProblem struct {
	n, k   int
	p      []float64 // n×k, row-major
	counts []float64 // Update scratch
	score  func([]int) float64
	// degenerate is the eq. (12)-style convergence threshold.
	degenerate float64
}

func newVectorProblem(n, k int, score func([]int) float64) *vectorProblem {
	vp := &vectorProblem{
		n: n, k: k,
		p:          make([]float64, n*k),
		counts:     make([]float64, n*k),
		score:      score,
		degenerate: 0.99,
	}
	for i := range vp.p {
		vp.p[i] = 1 / float64(k)
	}
	return vp
}

func (vp *vectorProblem) NewSolution() []int { return make([]int, vp.n) }

func (vp *vectorProblem) Copy(dst, src []int) { copy(dst, src) }

func (vp *vectorProblem) Sample(rng *xrand.RNG, dst []int) (float64, error) {
	for i := range dst {
		row := vp.p[i*vp.k : (i+1)*vp.k]
		u := rng.Float64()
		v := 0
		for ; v < vp.k-1; v++ {
			if u -= row[v]; u < 0 {
				break
			}
		}
		dst[i] = v
	}
	return vp.score(dst), nil
}

func (vp *vectorProblem) Update(elite [][]int, zeta float64) error {
	if len(elite) == 0 {
		return errors.New("empty elite set")
	}
	clear(vp.counts)
	for _, e := range elite {
		for i, v := range e {
			vp.counts[i*vp.k+v]++
		}
	}
	inv := 1 / float64(len(elite))
	for i := range vp.p {
		vp.p[i] = zeta*vp.counts[i]*inv + (1-zeta)*vp.p[i]
	}
	return nil
}

func (vp *vectorProblem) Converged() bool {
	for i := 0; i < vp.n; i++ {
		rowMax := 0.0
		for _, x := range vp.p[i*vp.k : (i+1)*vp.k] {
			rowMax = max(rowMax, x)
		}
		if rowMax <= vp.degenerate {
			return false
		}
	}
	return true
}

// zerosScore counts the positions not set to 1: OneMax as a minimisation,
// whose optimum 0 is the all-ones vector (k = 2).
func zerosScore(s []int) float64 {
	c := 0
	for _, v := range s {
		if v != 1 {
			c++
		}
	}
	return float64(c)
}

// displacementScore sums |s[i] - i|, minimised (at 0) by the identity.
func displacementScore(s []int) float64 {
	total := 0.0
	for i, v := range s {
		d := float64(v - i)
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total
}
