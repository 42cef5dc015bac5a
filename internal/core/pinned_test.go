package core

import "testing"

// TestSolveDeterminismPinned pins complete runs for fixed seeds. Any
// change to the sampling order, RNG consumption, elite selection, score
// accumulation, or smoothing arithmetic shows up here as a changed
// execution time, iteration count, or mapping. Since the work-stealing
// runtime keys RNG streams to (seed, iteration, work unit) rather than to
// workers, every worker count must reproduce the same pinned run — each
// case is checked at two counts.
func TestSolveDeterminismPinned(t *testing.T) {
	cases := []struct {
		seed     uint64
		wantExec float64
		wantIter int
		wantStop string
		wantMap  []int
	}{
		{7, 6432, 49, "distribution-converged",
			[]int{0, 13, 5, 12, 10, 14, 4, 8, 15, 1, 3, 2, 11, 7, 9, 6}},
		{3, 6621, 46, "distribution-converged",
			[]int{2, 15, 3, 11, 9, 6, 10, 14, 5, 0, 4, 13, 1, 7, 12, 8}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			eval := paperEval(t, 42, 16)
			res, err := Solve(eval, Options{Seed: c.seed, Workers: workers, MaxIterations: 80})
			if err != nil {
				t.Fatal(err)
			}
			if res.Exec != c.wantExec {
				t.Errorf("seed=%d workers=%d: exec %v, want %v", c.seed, workers, res.Exec, c.wantExec)
			}
			if res.Iterations != c.wantIter {
				t.Errorf("seed=%d workers=%d: iterations %d, want %d", c.seed, workers, res.Iterations, c.wantIter)
			}
			if string(res.StopReason) != c.wantStop {
				t.Errorf("seed=%d workers=%d: stop %s, want %s", c.seed, workers, res.StopReason, c.wantStop)
			}
			if !equalInts(res.Mapping, c.wantMap) {
				t.Errorf("seed=%d workers=%d: mapping %v, want %v", c.seed, workers, res.Mapping, c.wantMap)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
