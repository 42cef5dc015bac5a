package core

import (
	"math"
	"testing"
	"testing/quick"

	"matchsim/internal/ce"
	"matchsim/internal/cost"
	"matchsim/internal/gen"
	"matchsim/internal/graph"
	"matchsim/internal/xrand"
)

func paperEval(t testing.TB, seed uint64, n int) *cost.Evaluator {
	t.Helper()
	inst, err := gen.PaperInstance(seed, n, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// bruteForceBest enumerates all n! mappings; only usable for tiny n.
func bruteForceBest(e *cost.Evaluator) float64 {
	n := e.NumTasks()
	perm := make([]int, n)
	best := math.Inf(1)
	var rec func(depth int, used []bool)
	rec = func(depth int, used []bool) {
		if depth == n {
			if exec := e.Exec(perm); exec < best {
				best = exec
			}
			return
		}
		for r := 0; r < n; r++ {
			if used[r] {
				continue
			}
			used[r] = true
			perm[depth] = r
			rec(depth+1, used)
			used[r] = false
		}
	}
	rec(0, make([]bool, n))
	return best
}

func TestSolveFindsOptimumOnTinyInstances(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		e := paperEval(t, seed, 6)
		want := bruteForceBest(e)
		// n=6 makes the default N = 2n^2 = 72 very small; give the CE a
		// realistic sample budget for an exactness test.
		res, err := Solve(e, Options{Seed: seed, Workers: 2, SampleSize: 600, Rho: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Exec-want) > 1e-9 {
			t.Fatalf("seed %d: MaTCH %v vs brute force %v", seed, res.Exec, want)
		}
	}
}

func TestSolveReturnsValidPermutation(t *testing.T) {
	e := paperEval(t, 4, 15)
	res, err := Solve(e, Options{Seed: 9, Workers: 4, MaxIterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.IsPermutation() {
		t.Fatalf("mapping %v not a permutation", res.Mapping)
	}
	if got := e.Exec(res.Mapping); math.Abs(got-res.Exec) > 1e-9 {
		t.Fatalf("reported Exec %v != recomputed %v", res.Exec, got)
	}
	if res.MappingTime <= 0 {
		t.Fatal("missing mapping time")
	}
	if res.Evaluations < int64(res.Iterations) {
		t.Fatal("evaluation accounting inconsistent")
	}
}

func TestSolveDeterministicPerSeedWorkers(t *testing.T) {
	e := paperEval(t, 5, 10)
	run := func() *Result {
		res, err := Solve(e, Options{Seed: 42, Workers: 2, MaxIterations: 40})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Exec != b.Exec || a.Iterations != b.Iterations {
		t.Fatalf("non-deterministic run: %v/%d vs %v/%d", a.Exec, a.Iterations, b.Exec, b.Iterations)
	}
	for i := range a.Mapping {
		if a.Mapping[i] != b.Mapping[i] {
			t.Fatalf("mappings differ at task %d", i)
		}
	}
}

func TestSolveImprovesOverRandom(t *testing.T) {
	e := paperEval(t, 6, 20)
	rng := xrand.New(1)
	randomBest := math.Inf(1)
	for i := 0; i < 100; i++ {
		if exec := e.Exec(cost.Mapping(rng.Perm(20))); exec < randomBest {
			randomBest = exec
		}
	}
	res, err := Solve(e, Options{Seed: 2, Workers: 4, MaxIterations: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec >= randomBest {
		t.Fatalf("MaTCH %v no better than best of 100 random %v", res.Exec, randomBest)
	}
}

func TestSolveConvergesToDegenerateMatrix(t *testing.T) {
	e := paperEval(t, 7, 10)
	res, err := Solve(e, Options{Seed: 3, Workers: 2, MaxIterations: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != ce.StopConverged && res.StopReason != ce.StopGammaStall {
		t.Fatalf("unexpected stop reason %v", res.StopReason)
	}
	if res.FinalMatrix == nil {
		t.Fatal("missing final matrix")
	}
	// The final matrix should be strongly concentrated: each row's max
	// well above uniform 1/n.
	for i := 0; i < 10; i++ {
		if _, p := res.FinalMatrix.MaxRow(i); p < 0.5 {
			t.Fatalf("row %d max probability %v still diffuse", i, p)
		}
	}
}

func TestSolveSnapshots(t *testing.T) {
	e := paperEval(t, 8, 8)
	res, err := Solve(e, Options{Seed: 4, Workers: 1, SnapshotEvery: 3, MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) < 2 {
		t.Fatalf("want >= 2 snapshots, got %d", len(res.Snapshots))
	}
	if res.Snapshots[0].Iter != 0 {
		t.Fatalf("first snapshot at iter %d, want 0", res.Snapshots[0].Iter)
	}
	last := res.Snapshots[len(res.Snapshots)-1]
	if last.Iter != res.Iterations {
		t.Fatalf("last snapshot at %d, run ended at %d", last.Iter, res.Iterations)
	}
	// Entropy must decrease from the uniform start to the converged end.
	if last.Matrix.MeanEntropy() >= res.Snapshots[0].Matrix.MeanEntropy() {
		t.Fatal("matrix entropy did not decrease")
	}
	for _, s := range res.Snapshots {
		if err := s.Matrix.Validate(1e-9); err != nil {
			t.Fatalf("snapshot at iter %d invalid: %v", s.Iter, err)
		}
	}
}

func TestSolveHistoryTelemetry(t *testing.T) {
	e := paperEval(t, 9, 10)
	var cbIters int
	res, err := Solve(e, Options{
		Seed: 5, Workers: 2, MaxIterations: 30,
		OnIteration: func(st ce.IterStats) { cbIters++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if cbIters != res.Iterations || len(res.History) != res.Iterations {
		t.Fatalf("telemetry mismatch: cb=%d hist=%d iters=%d", cbIters, len(res.History), res.Iterations)
	}
	// For minimisation, gamma must sit between best and worst each iter.
	for _, st := range res.History {
		if st.Gamma < st.Best || st.Gamma > st.Worst {
			t.Fatalf("iter %d gamma %v outside [best %v, worst %v]", st.Iter, st.Gamma, st.Best, st.Worst)
		}
	}
}

func TestSolveRejectsMismatchedSizes(t *testing.T) {
	tig := graph.NewTIGWithWeights([]float64{1, 1, 1})
	r := graph.NewResourceGraphWithCosts([]float64{1, 1})
	r.MustAddLink(0, 1, 1)
	e, err := cost.NewEvaluator(tig, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(e, Options{}); err == nil {
		t.Fatal("|Vt| != |Vr| accepted by Solve")
	}
}

func TestSolveSingleTask(t *testing.T) {
	tig := graph.NewTIGWithWeights([]float64{5})
	r := graph.NewResourceGraphWithCosts([]float64{3})
	e, err := cost.NewEvaluator(tig, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(e, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec != 15 || res.Mapping[0] != 0 {
		t.Fatalf("trivial instance: exec=%v mapping=%v", res.Exec, res.Mapping)
	}
}

func TestSolveParallelAgreesInQuality(t *testing.T) {
	e := paperEval(t, 10, 12)
	var execs []float64
	for _, workers := range []int{1, 4} {
		res, err := Solve(e, Options{Seed: 6, Workers: workers, MaxIterations: 200})
		if err != nil {
			t.Fatal(err)
		}
		execs = append(execs, res.Exec)
	}
	// Different worker counts use different RNG stream assignments, so
	// results may differ slightly — but both must be near-optimal;
	// allow 10% spread.
	lo, hi := math.Min(execs[0], execs[1]), math.Max(execs[0], execs[1])
	if hi > 1.1*lo {
		t.Fatalf("parallel quality diverges: %v", execs)
	}
}

func TestSolveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 4 + int(seed%8)
		inst, err := gen.PaperInstance(seed, n, gen.DefaultPaperConfig())
		if err != nil {
			return false
		}
		e, err := cost.NewEvaluator(inst.TIG, inst.Platform)
		if err != nil {
			return false
		}
		res, err := Solve(e, Options{Seed: seed, Workers: 2, MaxIterations: 40})
		if err != nil {
			return false
		}
		return res.Mapping.IsPermutation() &&
			math.Abs(e.Exec(res.Mapping)-res.Exec) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestManyToOneBasic(t *testing.T) {
	// 6 tasks onto 3 resources: heavy communication makes co-location
	// attractive; the solver must return a valid (non-bijective) mapping.
	tig := graph.NewTIGWithWeights([]float64{1, 1, 1, 1, 1, 1})
	tig.MustAddEdge(0, 1, 100)
	tig.MustAddEdge(2, 3, 100)
	tig.MustAddEdge(4, 5, 100)
	r := graph.NewResourceGraphWithCosts([]float64{1, 1, 1})
	r.MustAddLink(0, 1, 10)
	r.MustAddLink(1, 2, 10)
	r.MustAddLink(0, 2, 10)
	e, err := cost.NewEvaluator(tig, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ManyToOne(e, Options{Seed: 1, Workers: 2, MaxIterations: 200, SampleSize: 500, Rho: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(3); err != nil {
		t.Fatal(err)
	}
	// Optimal: each chatting pair co-located on its own resource,
	// exec = 2 compute units.
	if res.Exec != 2 {
		t.Fatalf("many-to-one exec %v, want 2 (pairs co-located)", res.Exec)
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {4, 5}} {
		if res.Mapping[pair[0]] != res.Mapping[pair[1]] {
			t.Fatalf("chatting pair %v split: %v", pair, res.Mapping)
		}
	}
}

func TestManyToOneMatrixShape(t *testing.T) {
	tig := graph.NewTIGWithWeights([]float64{1, 2, 3, 4})
	r := graph.NewResourceGraphWithCosts([]float64{1, 2})
	r.MustAddLink(0, 1, 1)
	e, err := cost.NewEvaluator(tig, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ManyToOne(e, Options{Seed: 2, Workers: 1, MaxIterations: 100, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMatrix.Rows() != 4 || res.FinalMatrix.Cols() != 2 {
		t.Fatalf("matrix shape %dx%d", res.FinalMatrix.Rows(), res.FinalMatrix.Cols())
	}
	if len(res.Snapshots) == 0 {
		t.Fatal("no snapshots recorded")
	}
	// All compute on cheapest resource would be 10*1; balance matters.
	// Just assert validity and cost consistency.
	if math.Abs(e.Exec(res.Mapping)-res.Exec) > 1e-9 {
		t.Fatal("exec inconsistent")
	}
}

func TestManyToOneRejectsEmpty(t *testing.T) {
	tig := graph.NewTIG(0)
	r := graph.NewResourceGraphWithCosts([]float64{1})
	e, err := cost.NewEvaluator(tig, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ManyToOne(e, Options{}); err == nil {
		t.Fatal("empty task set accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(10)
	if o.SampleSize != 200 {
		t.Fatalf("default N = %d, want 2*10^2", o.SampleSize)
	}
	if o.Rho != 0.05 || o.Zeta != 0.3 || o.StallC != 5 {
		t.Fatalf("defaults %+v", o)
	}
	custom := Options{SampleSize: 50, Rho: 0.1}.withDefaults(10)
	if custom.SampleSize != 50 || custom.Rho != 0.1 {
		t.Fatal("explicit options overridden")
	}
}

func TestWarmStartBiasesInitialMatrix(t *testing.T) {
	e := paperEval(t, 20, 8)
	warm := cost.Mapping{3, 1, 0, 2, 7, 6, 5, 4}
	res, err := Solve(e, Options{
		Seed: 1, Workers: 1, MaxIterations: 1, GammaStallWindow: 100,
		WarmStart: warm, SnapshotEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	init := res.Snapshots[0].Matrix
	for i := 0; i < 8; i++ {
		col, p := init.MaxRow(i)
		if col != warm[i] {
			t.Fatalf("row %d argmax %d, want warm column %d", i, col, warm[i])
		}
		if p < warmStartBias {
			t.Fatalf("row %d bias mass %v < %v", i, p, warmStartBias)
		}
	}
	if err := init.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestWarmStartImprovesEarlyQuality(t *testing.T) {
	e := paperEval(t, 21, 15)
	// Obtain a decent mapping first.
	seedRun, err := Solve(e, Options{Seed: 5, Workers: 2, MaxIterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	// A warm-started 3-iteration run must already be at least as good as
	// the seed's neighbourhood allows — concretely, no worse than 5%
	// above the seed.
	warm, err := Solve(e, Options{
		Seed: 6, Workers: 2, MaxIterations: 3, GammaStallWindow: 100,
		WarmStart: seedRun.Mapping,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Exec > 1.05*seedRun.Exec {
		t.Fatalf("warm start lost the seed: %v vs seed %v", warm.Exec, seedRun.Exec)
	}
	// Cold 3-iteration run for contrast: warm must not be worse.
	cold, err := Solve(e, Options{
		Seed: 6, Workers: 2, MaxIterations: 3, GammaStallWindow: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Exec > cold.Exec {
		t.Fatalf("warm start (%v) worse than cold start (%v) at equal budget", warm.Exec, cold.Exec)
	}
}

func TestWarmStartValidation(t *testing.T) {
	e := paperEval(t, 22, 5)
	if _, err := Solve(e, Options{WarmStart: cost.Mapping{0, 1}}); err == nil {
		t.Fatal("short warm start accepted")
	}
	if _, err := Solve(e, Options{WarmStart: cost.Mapping{0, 0, 1, 2, 3}}); err == nil {
		t.Fatal("non-permutation warm start accepted")
	}
}

func TestManyToOneWarmStart(t *testing.T) {
	tig := graph.NewTIGWithWeights([]float64{1, 1, 1, 1})
	tig.MustAddEdge(0, 1, 100)
	tig.MustAddEdge(2, 3, 100)
	r := graph.NewResourceGraphWithCosts([]float64{1, 1})
	r.MustAddLink(0, 1, 10)
	e, err := cost.NewEvaluator(tig, r)
	if err != nil {
		t.Fatal(err)
	}
	// Warm start with the known optimum (pairs co-located).
	warm := cost.Mapping{0, 0, 1, 1}
	res, err := ManyToOne(e, Options{
		Seed: 1, Workers: 1, MaxIterations: 30, WarmStart: warm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec != 2 {
		t.Fatalf("warm-started many-to-one exec %v, want 2", res.Exec)
	}
	// Invalid warm starts are rejected.
	if _, err := ManyToOne(e, Options{WarmStart: cost.Mapping{0, 0, 9, 1}}); err == nil {
		t.Fatal("out-of-range warm start accepted")
	}
	if _, err := ManyToOne(e, Options{WarmStart: cost.Mapping{0}}); err == nil {
		t.Fatal("short warm start accepted")
	}
}

func TestPolishNeverHurtsAndReachesLocalOptimum(t *testing.T) {
	e := paperEval(t, 23, 12)
	plain, err := Solve(e, Options{Seed: 9, Workers: 2, MaxIterations: 15, GammaStallWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	polished, err := Solve(e, Options{Seed: 9, Workers: 2, MaxIterations: 15, GammaStallWindow: 16, Polish: true})
	if err != nil {
		t.Fatal(err)
	}
	if polished.Exec > plain.Exec {
		t.Fatalf("polish made things worse: %v vs %v", polished.Exec, plain.Exec)
	}
	if !polished.Mapping.IsPermutation() {
		t.Fatal("polished mapping not a permutation")
	}
	if math.Abs(e.Exec(polished.Mapping)-polished.Exec) > 1e-9 {
		t.Fatal("polished exec inconsistent")
	}
	// No single swap may improve the polished mapping.
	st, err := cost.NewState(e, polished.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if st.ExecAfterSwap(i, j) < polished.Exec-1e-9 {
				t.Fatalf("swap (%d,%d) improves polished mapping", i, j)
			}
		}
	}
	if polished.Evaluations <= plain.Evaluations {
		t.Fatal("polish did not account its evaluations")
	}
}
