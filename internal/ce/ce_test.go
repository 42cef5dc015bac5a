package ce

import (
	"math"
	"testing"
)

func TestRunSolvesOneMax(t *testing.T) {
	p := newVectorProblem(30, 2, zerosScore)
	res, err := Run(p, Config{
		SampleSize: 400,
		Rho:        0.1,
		Zeta:       0.7,
		Seed:       1,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore != 0 {
		t.Fatalf("best score %v, want 0", res.BestScore)
	}
	for i, v := range res.Best {
		if v != 1 {
			t.Fatalf("best solution position %d is %d, want 1", i, v)
		}
	}
	if res.Iterations == 0 || res.Evaluations == 0 {
		t.Fatal("missing run accounting")
	}
	if len(res.History) != res.Iterations {
		t.Fatalf("history length %d != iterations %d", len(res.History), res.Iterations)
	}
}

// TestRunMinimizeDirection: Run minimises. On a score that is lowest (0)
// at the all-zeros vector and highest at the all-twos one, it must reach
// 0, and every iteration's summary must order Best <= Gamma <= Worst.
func TestRunMinimizeDirection(t *testing.T) {
	sum := func(s []int) float64 {
		total := 0
		for _, v := range s {
			total += v
		}
		return float64(total)
	}
	p := newVectorProblem(20, 3, sum)
	res, err := Run(p, Config{
		SampleSize: 300,
		Rho:        0.1,
		Zeta:       0.7,
		Seed:       2,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore != 0 {
		t.Fatalf("minimised score %v, want 0", res.BestScore)
	}
	for _, st := range res.History {
		if !(st.Best <= st.Gamma && st.Gamma <= st.Worst) {
			t.Fatalf("iteration %d: best %v, gamma %v, worst %v out of order", st.Iter, st.Best, st.Gamma, st.Worst)
		}
	}
}

func TestRunDeterministicForFixedSeedAndWorkers(t *testing.T) {
	run := func() Result {
		res, err := Run(newVectorProblem(25, 2, zerosScore), Config{SampleSize: 200, Seed: 7, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.BestScore != b.BestScore || a.Iterations != b.Iterations {
		t.Fatalf("non-deterministic: %v/%d vs %v/%d", a.BestScore, a.Iterations, b.BestScore, b.Iterations)
	}
	for i := range a.History {
		if a.History[i].Search() != b.History[i].Search() {
			t.Fatalf("history diverges at iteration %d", i)
		}
	}
}

func TestRunParallelMatchesOwnSeed(t *testing.T) {
	// Every worker count must solve the problem.
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := Run(newVectorProblem(20, 2, zerosScore), Config{SampleSize: 300, Rho: 0.1, Zeta: 0.7, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.BestScore != 0 {
			t.Fatalf("workers=%d best %v", workers, res.BestScore)
		}
	}
}

func TestRunRecordsMonotoneBestSoFar(t *testing.T) {
	res, err := Run(newVectorProblem(30, 2, zerosScore), Config{SampleSize: 200, Seed: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, st := range res.History {
		if st.BestSoFar > prev {
			t.Fatalf("BestSoFar regressed at iteration %d", st.Iter)
		}
		if st.Best < st.BestSoFar {
			t.Fatalf("iteration best below best-so-far at %d", st.Iter)
		}
		if st.Worst < st.Best {
			t.Fatalf("worst below best at iteration %d", st.Iter)
		}
		prev = st.BestSoFar
	}
}

func TestRunStopsOnMaxIterations(t *testing.T) {
	// A constant score gives CE nothing to learn; with a huge stall
	// window the cap must fire.
	p := newVectorProblem(10, 2, func([]int) float64 { return 1 })
	res, err := Run(p, Config{
		SampleSize:    50,
		MaxIterations: 3,
		StallWindow:   1000,
		Seed:          5,
		Workers:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopMaxIterations || res.Iterations != 3 {
		t.Fatalf("stop=%v iters=%d", res.StopReason, res.Iterations)
	}
}

func TestRunStopsOnGammaStall(t *testing.T) {
	// A constant score repeats gamma every iteration; an unreachable
	// degeneracy threshold keeps the convergence stop from firing first.
	p := newVectorProblem(10, 2, func([]int) float64 { return 1 })
	p.degenerate = 1.1
	res, err := Run(p, Config{
		SampleSize:  50,
		StallWindow: 4,
		Zeta:        0.01,
		Seed:        6,
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopGammaStall {
		t.Fatalf("stop=%v, want gamma stall", res.StopReason)
	}
}

func TestRunStopsOnConvergence(t *testing.T) {
	p := newVectorProblem(15, 2, zerosScore)
	res, err := Run(p, Config{
		SampleSize:  300,
		Rho:         0.1,
		Zeta:        0.9,
		StallWindow: 10000, // force the degeneracy criterion to fire first
		Seed:        8,
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopConverged {
		t.Fatalf("stop=%v, want converged", res.StopReason)
	}
	if !p.Converged() {
		t.Fatal("problem does not report convergence after run")
	}
}

func TestConfigValidation(t *testing.T) {
	p := newVectorProblem(5, 2, zerosScore)
	bad := []Config{
		{SampleSize: -1},
		{Rho: 0.9},
		{Zeta: 1.5},
		{StallWindow: -2},
		{MaxIterations: -1},
		{Workers: -3},
	}
	for i, cfg := range bad {
		if _, err := Run(p, cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestOnIterationCallback(t *testing.T) {
	var calls int
	res, err := Run(newVectorProblem(10, 2, zerosScore), Config{
		SampleSize: 100,
		Seed:       9,
		Workers:    1,
		OnIteration: func(st IterStats) {
			calls++
			if st.Iter != calls {
				t.Fatalf("iteration number %d on call %d", st.Iter, calls)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Iterations {
		t.Fatalf("callback fired %d times for %d iterations", calls, res.Iterations)
	}
}

func BenchmarkCEOneMaxIteration(b *testing.B) {
	p := newVectorProblem(50, 2, zerosScore)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(p, Config{SampleSize: 500, MaxIterations: 1, StallWindow: 100, Seed: uint64(i), Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunFromIsExact: stopping a run after k iterations and continuing it
// with RunFrom from the returned State (on the same problem, whose
// distribution stayed at P_k) reproduces the uninterrupted run bit for
// bit for every k — including the gamma-stall window, which OneMax's
// integer scores trip often.
func TestRunFromIsExact(t *testing.T) {
	for _, workers := range []int{1, 3} {
		cfg := Config{
			SampleSize:  100,
			Rho:         0.1,
			Zeta:        0.5,
			StallWindow: 3,
			Seed:        21,
			Workers:     workers,
		}
		ref, err := Run(newVectorProblem(40, 2, zerosScore), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("workers=%d: %d iterations, %s", workers, ref.Iterations, ref.StopReason)
		for k := 1; k < ref.Iterations; k++ {
			p := newVectorProblem(40, 2, zerosScore)
			short := cfg
			short.MaxIterations = k
			first, err := Run(p, short)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunFrom(p, cfg, first.State, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != ref.Iterations || got.Evaluations != ref.Evaluations ||
				got.StopReason != ref.StopReason || got.GammaStallRuns != ref.GammaStallRuns ||
				math.Float64bits(got.BestScore) != math.Float64bits(ref.BestScore) {
				t.Fatalf("workers=%d k=%d: resumed %+v, want %+v", workers, k, got.State, ref.State)
			}
			for i, st := range got.History {
				if st.Search() != ref.History[k+i].Search() {
					t.Fatalf("workers=%d k=%d: iteration %d diverges", workers, k, st.Iter)
				}
			}
		}
	}
}
