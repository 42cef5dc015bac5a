package ce

import (
	"fmt"
	"math"

	"matchsim/internal/xrand"
)

// GaussianProblem applies the CE method to continuous multiextremal
// optimisation — the other problem family Section 3 of the paper credits
// the CE method with (Rubinstein; Kroese et al.). Each coordinate of a
// solution is drawn from an independent normal N(mu_i, sigma_i^2); the
// update re-fits mu and sigma to the elite sample (maximum-likelihood
// estimates), smoothing both per eq. (13). As iterations proceed sigma
// collapses and the distribution degenerates onto an optimum.
//
// It exists for the same reason BernoulliProblem does: to demonstrate
// (and test) that the ce framework underneath MaTCH is a complete CE
// toolkit, not a single-purpose routine.
type GaussianProblem struct {
	n     int
	mu    []float64
	sigma []float64
	score func([]float64) float64
	// Lo and Hi clamp samples to a box; set by NewGaussianProblem.
	lo, hi float64
	// SigmaFloor stops sigma from collapsing before the mean settles;
	// also the convergence threshold (converged when all sigma below
	// 10x the floor). Default 1e-4.
	SigmaFloor float64
}

// NewGaussianProblem builds an n-dimensional continuous problem over the
// box [lo, hi]^n, scored by score, with the initial distribution centred
// on the box midpoint with sigma spanning the box.
func NewGaussianProblem(n int, lo, hi float64, score func([]float64) float64) (*GaussianProblem, error) {
	if n < 1 {
		return nil, fmt.Errorf("ce: gaussian problem size %d < 1", n)
	}
	if hi <= lo {
		return nil, fmt.Errorf("ce: empty box [%v, %v]", lo, hi)
	}
	if score == nil {
		return nil, fmt.Errorf("ce: nil score function")
	}
	g := &GaussianProblem{
		n:          n,
		mu:         make([]float64, n),
		sigma:      make([]float64, n),
		score:      score,
		lo:         lo,
		hi:         hi,
		SigmaFloor: 1e-4,
	}
	mid := (lo + hi) / 2
	span := (hi - lo) / 2
	for i := 0; i < n; i++ {
		g.mu[i] = mid
		g.sigma[i] = span
	}
	return g, nil
}

// Mean exposes the current mu vector (read-only).
func (g *GaussianProblem) Mean() []float64 { return g.mu }

// NewSolution implements Problem.
func (g *GaussianProblem) NewSolution() []float64 { return make([]float64, g.n) }

// Copy implements Problem.
func (g *GaussianProblem) Copy(dst, src []float64) { copy(dst, src) }

// Sample implements Problem: independent clamped normal draws, scored.
func (g *GaussianProblem) Sample(rng *xrand.RNG, dst []float64) (float64, error) {
	for i := range dst {
		v := g.mu[i] + float64(g.sigma[i]*rng.NormFloat64())
		if v < g.lo {
			v = g.lo
		} else if v > g.hi {
			v = g.hi
		}
		dst[i] = v
	}
	return g.score(dst), nil
}

// Update implements Problem: fit mu, sigma to the elite and smooth.
func (g *GaussianProblem) Update(elite [][]float64, zeta float64) error {
	if len(elite) == 0 {
		return fmt.Errorf("ce: empty elite set")
	}
	inv := 1 / float64(len(elite))
	for i := 0; i < g.n; i++ {
		mean := 0.0
		for _, e := range elite {
			mean += e[i]
		}
		mean = float64(mean * inv)
		variance := 0.0
		for _, e := range elite {
			d := e[i] - mean
			variance += float64(d * d)
		}
		variance *= inv
		sd := math.Sqrt(variance)
		if sd < g.SigmaFloor {
			sd = g.SigmaFloor
		}
		g.mu[i] = float64(zeta*mean) + float64((1-zeta)*g.mu[i])
		g.sigma[i] = float64(zeta*sd) + float64((1-zeta)*g.sigma[i])
	}
	return nil
}

// Converged implements Problem: every sigma near the floor.
func (g *GaussianProblem) Converged() bool {
	for _, s := range g.sigma {
		if s > 10*g.SigmaFloor {
			return false
		}
	}
	return true
}

// Rastrigin is the classic multiextremal benchmark function (global
// minimum 0 at the origin, a lattice of ~10^n local minima elsewhere);
// the standard acid test for continuous CE.
func Rastrigin(x []float64) float64 {
	total := 10 * float64(len(x))
	for _, v := range x {
		total += float64(v*v) - float64(10*math.Cos(2*math.Pi*v))
	}
	return total
}

// Sphere is the convex sanity-check function sum x_i^2.
func Sphere(x []float64) float64 {
	total := 0.0
	for _, v := range x {
		total += float64(v * v)
	}
	return total
}
