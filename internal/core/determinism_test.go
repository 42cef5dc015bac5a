package core

import (
	"math"
	"runtime"
	"testing"

	"matchsim/internal/ce"
)

// TestSolveDeterministicAcrossWorkerCounts pins the scheduling-independence
// guarantee: RNG streams are keyed by (seed, iteration, unit), not by
// worker, so the same options must give a bit-identical run no matter how
// many workers execute it. Wall-clock timings are the only fields allowed
// to differ.
func TestSolveDeterministicAcrossWorkerCounts(t *testing.T) {
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, seed := range []uint64{1, 9} {
		eval := paperEval(t, 13, 24)
		ref, err := Solve(eval, Options{Seed: seed, Workers: 1, MaxIterations: 60})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts[1:] {
			got, err := Solve(eval, Options{Seed: seed, Workers: w, MaxIterations: 60})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Exec) != math.Float64bits(ref.Exec) {
				t.Fatalf("seed=%d workers=%d: exec %v != reference %v", seed, w, got.Exec, ref.Exec)
			}
			if !equalInts(got.Mapping, ref.Mapping) {
				t.Fatalf("seed=%d workers=%d: mapping diverges:\n%v\n%v", seed, w, got.Mapping, ref.Mapping)
			}
			if got.Iterations != ref.Iterations || got.StopReason != ref.StopReason {
				t.Fatalf("seed=%d workers=%d: trajectory diverges: %d/%s vs %d/%s",
					seed, w, got.Iterations, got.StopReason, ref.Iterations, ref.StopReason)
			}
			if len(got.History) != len(ref.History) {
				t.Fatalf("seed=%d workers=%d: history length %d != %d",
					seed, w, len(got.History), len(ref.History))
			}
			for i := range got.History {
				if !sameIterSearchStats(got.History[i], ref.History[i]) {
					t.Fatalf("seed=%d workers=%d: iteration %d stats diverge:\n%+v\n%+v",
						seed, w, i, got.History[i], ref.History[i])
				}
			}
		}
	}
}

// sameIterSearchStats compares the search-relevant fields of two iteration
// records bit-for-bit, ignoring wall-clock timings and work-stealing
// counters (the only legitimately scheduling-dependent fields).
func sameIterSearchStats(a, b ce.IterStats) bool {
	return a.Iter == b.Iter &&
		math.Float64bits(a.Gamma) == math.Float64bits(b.Gamma) &&
		math.Float64bits(a.Best) == math.Float64bits(b.Best) &&
		math.Float64bits(a.Worst) == math.Float64bits(b.Worst) &&
		math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.BestSoFar) == math.Float64bits(b.BestSoFar) &&
		a.EliteCount == b.EliteCount &&
		a.Draws == b.Draws &&
		a.RejectTries == b.RejectTries &&
		a.FallbackDraws == b.FallbackDraws &&
		a.Island == b.Island &&
		a.MigrantsIn == b.MigrantsIn &&
		a.MigrantsOut == b.MigrantsOut &&
		a.BlendRounds == b.BlendRounds
}
