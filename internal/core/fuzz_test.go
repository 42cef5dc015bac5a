package core

import (
	"math"
	"testing"

	"matchsim/internal/cost"
	"matchsim/internal/gen"
)

// FuzzDecodeCheckpoint throws arbitrary bytes at the checkpoint decoder.
// It must never panic; anything it accepts must satisfy the checkpoint
// contract (square row-stochastic matrix, permutation incumbent,
// non-negative counters, finite gamma) and must survive an encode/decode round trip
// unchanged.
func FuzzDecodeCheckpoint(f *testing.F) {
	// A genuine checkpoint from a short real run seeds the corpus.
	inst, err := gen.PaperInstance(3, 8, gen.DefaultPaperConfig())
	if err != nil {
		f.Fatalf("PaperInstance: %v", err)
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		f.Fatalf("NewEvaluator: %v", err)
	}
	res, err := Solve(eval, Options{Seed: 3, Workers: 1, MaxIterations: 5})
	if err != nil {
		f.Fatalf("Solve: %v", err)
	}
	real, err := CheckpointFrom(res).Encode()
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	f.Add(real)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"iterations":-1,"matrix":{"rows":1,"cols":1,"p":[1]},"prev_argmax":[0],"best":[0]}`))
	f.Add([]byte(`{"iterations":2,"matrix":{"rows":2,"cols":2,"p":[0.5,0.5,0.5,0.5]},"prev_argmax":[0,1],"stable_runs":1,"best":[1,0],"best_exec":42}`))
	f.Add([]byte(`{"matrix":{"rows":2,"cols":2,"p":[1,0,0,1]},"prev_argmax":[0,1],"best":[0,0]}`))
	f.Add([]byte(`{"matrix":{"rows":2,"cols":3,"p":[0.5,0.25,0.25,1,0,0]},"prev_argmax":[0,1],"best":[1,0]}`))
	// A version-2 document with the CE loop state, and a legacy one
	// without it (still decodable; Resume rejects it).
	f.Add([]byte(`{"version":2,"iterations":3,"gamma":17.5,"gamma_stall_runs":2,"matrix":{"rows":2,"cols":2,"p":[0.75,0.25,0.25,0.75]},"prev_argmax":[0,1],"stable_runs":1,"best":[0,1],"best_exec":17.5}`))
	f.Add([]byte(`{"iterations":3,"matrix":{"rows":2,"cols":2,"p":[0.75,0.25,0.25,0.75]},"prev_argmax":[0,1],"stable_runs":1,"best":[0,1],"best_exec":17.5}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if c.Matrix.Rows() != c.Matrix.Cols() {
			t.Fatalf("accepted non-square matrix %dx%d", c.Matrix.Rows(), c.Matrix.Cols())
		}
		if err := c.Matrix.Validate(1e-6); err != nil {
			t.Fatalf("accepted non-stochastic matrix: %v", err)
		}
		if !c.Best.IsPermutation() {
			t.Fatalf("accepted non-permutation incumbent %v", c.Best)
		}
		if c.Iterations < 0 || c.StableRuns < 0 || c.GammaStallRuns < 0 {
			t.Fatalf("accepted negative counters: %d/%d/%d", c.Iterations, c.StableRuns, c.GammaStallRuns)
		}
		if math.IsInf(c.Gamma, 0) || math.IsNaN(c.Gamma) {
			t.Fatalf("accepted non-finite gamma %v", c.Gamma)
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
		c2, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if c2.Version != c.Version || c2.Iterations != c.Iterations || c2.StableRuns != c.StableRuns ||
			c2.GammaStallRuns != c.GammaStallRuns ||
			math.Float64bits(c2.Gamma) != math.Float64bits(c.Gamma) ||
			math.Float64bits(c2.BestExec) != math.Float64bits(c.BestExec) {
			t.Fatalf("round trip changed scalars: %+v vs %+v", c2, c)
		}
		for i := range c.Best {
			if c2.Best[i] != c.Best[i] || c2.PrevArgmax[i] != c.PrevArgmax[i] {
				t.Fatalf("round trip changed incumbent/argmax at %d", i)
			}
		}
		n := c.Matrix.Rows()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Float64bits(c.Matrix.At(i, j)) != math.Float64bits(c2.Matrix.At(i, j)) {
					t.Fatalf("round trip changed P[%d][%d]", i, j)
				}
			}
		}
	})
}
