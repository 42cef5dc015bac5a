package ce

import (
	"testing"
)

func runDisplacement(t *testing.T, sampleSize, workers int) Result {
	t.Helper()
	res, err := Run(newVectorProblem(12, 12, displacementScore), Config{
		SampleSize:    sampleSize,
		Seed:          11,
		Workers:       workers,
		MaxIterations: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunIdenticalAcrossWorkerCounts: the work-stealing pool keys every
// unit's RNG stream to (seed, iteration, unit index), so the run must be
// reproducible not just per (seed, workers) but across *different* worker
// counts — any worker may claim any unit in any order and the samples are
// the same.
func TestRunIdenticalAcrossWorkerCounts(t *testing.T) {
	ref := runDisplacement(t, 300, 1)
	for _, workers := range []int{2, 3, 8} {
		got := runDisplacement(t, 300, workers)
		if got.BestScore != ref.BestScore || got.Iterations != ref.Iterations || got.StopReason != ref.StopReason {
			t.Fatalf("workers=%d: %v/%d/%s vs workers=1 %v/%d/%s",
				workers, got.BestScore, got.Iterations, got.StopReason,
				ref.BestScore, ref.Iterations, ref.StopReason)
		}
		for i := range ref.Best {
			if got.Best[i] != ref.Best[i] {
				t.Fatalf("workers=%d: best mapping diverges at %d: %v vs %v",
					workers, i, got.Best, ref.Best)
			}
		}
		for i := range ref.History {
			if got.History[i].Search() != ref.History[i].Search() {
				t.Fatalf("workers=%d: history diverges at iteration %d: %+v vs %+v",
					workers, i, got.History[i], ref.History[i])
			}
		}
	}
}

// TestRunWorkersExceedUnits stresses the pool with far more workers than
// work units (SampleSize 40 -> 2 units of unitDraws=32 draws, 32 workers):
// most admissions find the cursor exhausted and must still balance the
// iteration barrier, and the result must match a single-worker run.
func TestRunWorkersExceedUnits(t *testing.T) {
	if units := (40 + unitDraws - 1) / unitDraws; units >= 32 {
		t.Fatalf("test premise broken: %d units not < 32 workers", units)
	}
	ref := runDisplacement(t, 40, 1)
	got := runDisplacement(t, 40, 32)
	if got.BestScore != ref.BestScore || got.Iterations != ref.Iterations {
		t.Fatalf("workers=32: %v/%d vs workers=1 %v/%d",
			got.BestScore, got.Iterations, ref.BestScore, ref.Iterations)
	}
	for i := range ref.History {
		if got.History[i].Search() != ref.History[i].Search() {
			t.Fatalf("history diverges at iteration %d", i)
		}
	}
}
