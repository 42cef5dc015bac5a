package ce

import (
	"math"
	"testing"

	"matchsim/internal/xrand"
)

// ringTSP builds a TSP instance whose optimal tour is the ring
// 0-1-2-...-n-1: adjacent-on-ring distances 1, all others 10.
func ringTSP(n int) []float64 {
	dist := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
			case (i+1)%n == j || (j+1)%n == i:
				dist[i*n+j] = 1
			default:
				dist[i*n+j] = 10
			}
		}
	}
	return dist
}

func TestPermutationCESolvesLinearAssignment(t *testing.T) {
	// Linear assignment with a planted optimum: cost[i][j] is 0 when
	// j = (i+3) mod n and uniform noise otherwise. Position-dependent
	// costs are exactly what the row-stochastic parameterisation models
	// (it is MaTCH's own problem shape), so CE must recover the planted
	// permutation exactly.
	const n = 12
	rng := xrand.New(9)
	costTable := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == (i+3)%n {
				costTable[i*n+j] = 0
			} else {
				costTable[i*n+j] = 1 + rng.Float64()
			}
		}
	}
	score := func(perm []int) float64 {
		total := 0.0
		for i, j := range perm {
			total += costTable[i*n+j]
		}
		return total
	}
	p, err := NewPermutationProblem(n, score)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run[[]int](p, Config{
		SampleSize: 2000,
		Rho:        0.05,
		Zeta:       0.5,
		Seed:       1,
		Workers:    2,
		Minimize:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore != 0 {
		t.Fatalf("assignment cost %v, want 0 (planted optimum)", res.BestScore)
	}
	for i, j := range res.Best {
		if j != (i+3)%n {
			t.Fatalf("position %d assigned %d, want %d", i, j, (i+3)%n)
		}
	}
}

func TestPermutationCEOnTSPBeatsRandom(t *testing.T) {
	// TSP tours are rotation/reflection invariant, which the position-
	// based matrix cannot express — the classic CE-for-TSP uses a
	// transition-matrix parameterisation instead. The position-based CE
	// must still comfortably beat random tours on a ring instance.
	const n = 10
	score, err := TourLength(n, ringTSP(n))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPermutationProblem(n, score)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run[[]int](p, Config{
		SampleSize: 1000,
		Rho:        0.05,
		Zeta:       0.5,
		Seed:       1,
		Workers:    2,
		Minimize:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Random tours average ~n/ (n-1) unit hops ... estimate empirically.
	rng := xrand.New(3)
	randomMean := 0.0
	const draws = 200
	for i := 0; i < draws; i++ {
		randomMean += score(rng.Perm(n))
	}
	randomMean /= draws
	if res.BestScore >= randomMean*0.6 {
		t.Fatalf("CE tour %v not clearly better than random mean %v", res.BestScore, randomMean)
	}
}

func TestPermutationSamplesAreValid(t *testing.T) {
	p, err := NewPermutationProblem(12, func(perm []int) float64 { return float64(perm[0]) })
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2)
	dst := make([]int, 12)
	for i := 0; i < 200; i++ {
		score, err := p.Sample(rng, dst)
		if err != nil {
			t.Fatal(err)
		}
		if score != float64(dst[0]) {
			t.Fatalf("Sample scored %v, want the score of its own draw %v", score, dst[0])
		}
		seen := make([]bool, 12)
		for _, v := range dst {
			if v < 0 || v >= 12 || seen[v] {
				t.Fatalf("invalid permutation %v", dst)
			}
			seen[v] = true
		}
	}
}

func TestPermutationUpdateConcentratesMatrix(t *testing.T) {
	p, err := NewPermutationProblem(5, func([]int) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	// Feed the same elite permutation repeatedly: the matrix must
	// converge onto it.
	elite := [][]int{{2, 0, 3, 1, 4}, {2, 0, 3, 1, 4}}
	for k := 0; k < 40; k++ {
		if err := p.Update(elite, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Converged() {
		t.Fatal("matrix did not degenerate under constant elite")
	}
	argmax := p.Matrix().ArgmaxAssignment()
	want := []int{2, 0, 3, 1, 4}
	for i := range want {
		if argmax[i] != want[i] {
			t.Fatalf("argmax %v, want %v", argmax, want)
		}
	}
}

func TestPermutationRejections(t *testing.T) {
	if _, err := NewPermutationProblem(0, func([]int) float64 { return 0 }); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewPermutationProblem(3, nil); err == nil {
		t.Fatal("nil score accepted")
	}
	p, err := NewPermutationProblem(3, func([]int) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Update(nil, 0.5); err == nil {
		t.Fatal("empty elite accepted")
	}
	if _, err := TourLength(3, []float64{1, 2}); err == nil {
		t.Fatal("short distance matrix accepted")
	}
}

func TestTourLengthFixture(t *testing.T) {
	// 3 cities in a line at 0, 1, 3: tour 0-1-2-0 = 1 + 2 + 3 = 6.
	dist := []float64{
		0, 1, 3,
		1, 0, 2,
		3, 2, 0,
	}
	score, err := TourLength(3, dist)
	if err != nil {
		t.Fatal(err)
	}
	if got := score([]int{0, 1, 2}); got != 6 {
		t.Fatalf("tour length %v, want 6", got)
	}
	if got := score([]int{1, 0, 2}); math.Abs(got-6) > 1e-12 {
		t.Fatalf("rotated/reflected tour %v, want 6", got)
	}
}
