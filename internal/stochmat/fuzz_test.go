package stochmat_test

import (
	"testing"

	"matchsim/internal/stochmat"
	"matchsim/internal/verify"
	"matchsim/internal/xrand"
)

// FuzzSamplePermutation asserts the production GenPerm sampler always
// emits valid permutations from arbitrary (fuzzer-driven) stochastic
// matrices, including extreme spiky rows and one-hot rows whose columns
// collide (which force the uniform fallback).
func FuzzSamplePermutation(f *testing.F) {
	f.Add(uint8(5), uint64(1), false)
	f.Add(uint8(1), uint64(2), true)
	f.Add(uint8(30), uint64(3), true)
	f.Fuzz(func(t *testing.T, nRaw uint8, seed uint64, spiky bool) {
		n := 1 + int(nRaw%40)
		rng := xrand.New(seed)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, n)
			if spiky && rng.Bool(0.3) {
				// One-hot row; with n small, several collide.
				rows[i][rng.Intn(n)] = 1
				continue
			}
			for j := range rows[i] {
				switch {
				case spiky && rng.Bool(0.8):
					rows[i][j] = 1e-12
				case spiky:
					rows[i][j] = 1e6 * rng.Float64()
				default:
					rows[i][j] = rng.Float64()
				}
			}
			// Guarantee positive mass.
			rows[i][rng.Intn(n)] += 1
		}
		m, err := stochmat.NewFromRows(rows)
		if err != nil {
			t.Fatalf("constructed rows rejected: %v", err)
		}
		at := stochmat.NewAliasTable(m)
		s := stochmat.NewSampler(n)
		dst := make([]int, n)
		for k := 0; k < 5; k++ {
			if err := s.SamplePermutation(m, at, rng, dst); err != nil {
				t.Fatalf("sampling failed: %v", err)
			}
			if err := verify.CheckPermutation(dst); err != nil {
				t.Fatalf("draw %v: %v", dst, err)
			}
		}
	})
}
