package stochmat_test

import (
	"math"
	"testing"

	"matchsim/internal/stochmat"
	"matchsim/internal/verify"
	"matchsim/internal/xrand"
)

// testMatrices builds the three regimes the sampler sees over a CE run:
// uniform (iteration 0), random row-stochastic (mid-run), near-degenerate
// (close to the eq. 12 stop).
func testMatrices(t *testing.T, rng *xrand.RNG, n int) map[string]*stochmat.Matrix {
	t.Helper()
	random := stochmat.NewUniform(n, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64() + 1e-3
		}
		if err := random.SetRow(i, row); err != nil {
			t.Fatal(err)
		}
	}
	degen := stochmat.NewUniform(n, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = 1e-4
		}
		row[(i*7+3)%n] = 1
		if err := degen.SetRow(i, row); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*stochmat.Matrix{
		"uniform":         stochmat.NewUniform(n, n),
		"random":          random,
		"near-degenerate": degen,
	}
}

// TestFastSamplerValidAndDeterministic: the alias rejection sampler must
// always emit permutations and be reproducible for a fixed RNG stream.
func TestFastSamplerValidAndDeterministic(t *testing.T) {
	setup := xrand.New(5)
	for _, n := range []int{4, 16, 64} {
		for name, m := range testMatrices(t, setup, n) {
			at := stochmat.NewAliasTable(m)
			rngA, rngB := xrand.New(7), xrand.New(7)
			sa, sb := stochmat.NewSampler(n), stochmat.NewSampler(n)
			da, db := make([]int, n), make([]int, n)
			for draw := 0; draw < 100; draw++ {
				if err := sa.SamplePermutation(m, at, rngA, da); err != nil {
					t.Fatal(err)
				}
				if err := verify.CheckPermutation(da); err != nil {
					t.Fatalf("n=%d %s draw %d: %v", n, name, draw, err)
				}
				if err := sb.SamplePermutation(m, at, rngB, db); err != nil {
					t.Fatal(err)
				}
				for i := range da {
					if da[i] != db[i] {
						t.Fatalf("n=%d %s draw %d: same seed diverged: %v vs %v", n, name, draw, da, db)
					}
				}
			}
		}
	}
}

// TestFastSamplerFrequencies: rejection-with-exact-fallback samples the
// exact GenPerm distribution, so per-(task, col) assignment frequencies
// must agree with the linear reference walk (verify.RefSamplePermutation)
// within sampling noise — on a mid-run matrix and on a crowded one whose
// one-hot rows collide and force the uniform fallback.
func TestFastSamplerFrequencies(t *testing.T) {
	if testing.Short() {
		t.Skip("frequency comparison needs many draws")
	}
	const n, draws = 6, 40000
	crowded, err := stochmat.NewFromRows([][]float64{
		{0, 1, 0, 0, 0, 0},
		{0, 1, 0, 0, 0, 0},
		{0.5, 0, 0.5, 0, 0, 0},
		{1, 1, 1, 1, 1, 1},
		{0, 0, 0, 0, 3, 1},
		{0, 0, 0, 0, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*stochmat.Matrix{
		"random":  testMatrices(t, xrand.New(6), n)["random"],
		"crowded": crowded,
	} {
		count := func(sample func(rng *xrand.RNG) []int, seed uint64) [][]float64 {
			freq := make([][]float64, n)
			for i := range freq {
				freq[i] = make([]float64, n)
			}
			rng := xrand.New(seed)
			for d := 0; d < draws; d++ {
				for task, col := range sample(rng) {
					freq[task][col] += 1.0 / draws
				}
			}
			return freq
		}
		ref := count(func(rng *xrand.RNG) []int {
			dst, err := verify.RefSamplePermutation(m, rng)
			if err != nil {
				t.Fatal(err)
			}
			return dst
		}, 21)
		at := stochmat.NewAliasTable(m)
		s := stochmat.NewSampler(n)
		dst := make([]int, n)
		fast := count(func(rng *xrand.RNG) []int {
			if err := s.SamplePermutation(m, at, rng, dst); err != nil {
				t.Fatal(err)
			}
			return dst
		}, 22)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if diff := math.Abs(ref[i][j] - fast[i][j]); diff > 0.02 {
					t.Fatalf("%s frequency(%d,%d): reference %.4f vs alias %.4f (diff %.4f)",
						name, i, j, ref[i][j], fast[i][j], diff)
				}
			}
		}
	}
}
