package core

import (
	"os"
	"runtime"
	"testing"
	"time"

	"matchsim/internal/cost"
	"matchsim/internal/gen"
	"matchsim/internal/memcheck"
)

// TestMultilevelSolveSmall runs the full pipeline on a paper instance and
// checks the structural postconditions: valid permutation, a real ladder,
// per-level sizes strictly decreasing, refinement never worsening the
// projected mapping, and a final Exec in the same quality class as the
// single-level solver. Both solves use every CPU: results do not depend
// on the worker count (ce.TestRunIdenticalAcrossWorkerCounts), and the
// single-level n=64 solve dominates the package's time under the race
// detector.
func TestMultilevelSolveSmall(t *testing.T) {
	eval := paperEval(t, 42, 64)
	opts := Options{Seed: 7, Workers: runtime.GOMAXPROCS(0), MaxIterations: 200,
		Multilevel: &MultilevelOptions{MinCoarse: 16}}
	res, err := Solve(eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.IsPermutation() {
		t.Fatalf("multilevel mapping is not a permutation: %v", res.Mapping)
	}
	if got := eval.Exec(res.Mapping); got != res.Exec {
		t.Fatalf("reported Exec %v != evaluated %v", res.Exec, got)
	}
	if len(res.Levels) < 2 {
		t.Fatalf("expected a multi-level ladder, got %d levels", len(res.Levels))
	}
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].Tasks >= res.Levels[i-1].Tasks {
			t.Fatalf("level %d has %d tasks, not coarser than %d",
				i, res.Levels[i].Tasks, res.Levels[i-1].Tasks)
		}
	}
	coarsest := res.Levels[len(res.Levels)-1]
	if coarsest.Tasks > 16+1 {
		t.Fatalf("coarsest level has %d tasks, want ~16", coarsest.Tasks)
	}
	if coarsest.SolveNs <= 0 {
		t.Fatalf("coarsest level records no solve time")
	}
	if res.Levels[0].Exec != res.Exec {
		t.Fatalf("finest level Exec %v != result Exec %v", res.Levels[0].Exec, res.Exec)
	}
	if res.FinalMatrix != nil {
		t.Fatalf("multilevel result carries a FinalMatrix")
	}
	if cp := CheckpointFrom(res); cp != nil {
		t.Fatalf("multilevel result should not be checkpointable")
	}

	// Quality: within 2x of the single-level solver on the same instance
	// (typically within a few percent; the loose bound keeps the test
	// robust across seeds).
	single, err := Solve(paperEval(t, 42, 64), Options{Seed: 7, Workers: runtime.GOMAXPROCS(0), MaxIterations: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec > 2*single.Exec {
		t.Fatalf("multilevel Exec %v more than 2x single-level %v", res.Exec, single.Exec)
	}
}

// TestMultilevelDeterminism: same options, same seed => identical mapping
// and identical per-level stats (modulo wall-clock fields).
func TestMultilevelDeterminism(t *testing.T) {
	run := func() *Result {
		eval := paperEval(t, 11, 48)
		res, err := Solve(eval, Options{Seed: 3, Workers: 4, MaxIterations: 150,
			Multilevel: &MultilevelOptions{MinCoarse: 12}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Exec != b.Exec {
		t.Fatalf("Exec differs across identical runs: %v vs %v", a.Exec, b.Exec)
	}
	for i := range a.Mapping {
		if a.Mapping[i] != b.Mapping[i] {
			t.Fatalf("mapping differs at task %d: %d vs %d", i, a.Mapping[i], b.Mapping[i])
		}
	}
	if len(a.Levels) != len(b.Levels) {
		t.Fatalf("ladder depth differs: %d vs %d", len(a.Levels), len(b.Levels))
	}
	for i := range a.Levels {
		if a.Levels[i].Tasks != b.Levels[i].Tasks || a.Levels[i].Exec != b.Levels[i].Exec ||
			a.Levels[i].RefineSwaps != b.Levels[i].RefineSwaps {
			t.Fatalf("level %d stats differ: %+v vs %+v", i, a.Levels[i], b.Levels[i])
		}
	}
}

// TestMultilevelTinyInstanceNoLadder: an instance already at or below
// MinCoarse must solve without coarsening (one level, no refinement).
func TestMultilevelTinyInstanceNoLadder(t *testing.T) {
	eval := paperEval(t, 5, 10)
	res, err := Solve(eval, Options{Seed: 2, Workers: 1, MaxIterations: 100,
		Multilevel: &MultilevelOptions{MinCoarse: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 1 {
		t.Fatalf("expected a single level, got %d", len(res.Levels))
	}
	if !res.Mapping.IsPermutation() {
		t.Fatalf("mapping is not a permutation")
	}
}

// TestMultilevelSparseCombined: the large-n configuration — multilevel
// ladder with a small coarse level — must produce a valid, deterministic
// solve.
func TestMultilevelSparseCombined(t *testing.T) {
	eval := paperEval(t, 13, 64)
	res, err := Solve(eval, Options{Seed: 5, Workers: 1, MaxIterations: 200,
		Multilevel: &MultilevelOptions{MinCoarse: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.IsPermutation() {
		t.Fatalf("mapping is not a permutation")
	}
	if got := eval.Exec(res.Mapping); got != res.Exec {
		t.Fatalf("reported Exec %v != evaluated %v", res.Exec, got)
	}
}

// TestMultilevelSmoke1k is the CI large-n smoke: an n=1024 sparse-TIG
// instance must solve through the multilevel pipeline in seconds. Gated
// behind MATCH_E2E_MULTILEVEL=1 because it is too heavy for the ordinary
// -race test sweep.
func TestMultilevelSmoke1k(t *testing.T) {
	if os.Getenv("MATCH_E2E_MULTILEVEL") == "" {
		t.Skip("set MATCH_E2E_MULTILEVEL=1 to run the n=1k multilevel smoke")
	}
	inst, err := gen.LargeInstance(2005, 1024, gen.LargeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := Solve(eval, Options{Seed: 1, MaxIterations: 200,
		Multilevel: &MultilevelOptions{MinCoarse: 64}})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !res.Mapping.IsPermutation() {
		t.Fatalf("mapping is not a permutation")
	}
	t.Logf("n=1024 multilevel: exec=%.0f levels=%d elapsed=%s", res.Exec, len(res.Levels), elapsed)
	if elapsed > 50*time.Second {
		t.Fatalf("n=1024 multilevel smoke took %s, want seconds", elapsed)
	}
}

// TestMultilevelLadderHeapBound: the n=4096 LargeInstance ladder keeps
// the block form on every level but the coarsest, which the coarse CE
// solve gets as a dense matrix, and the whole ladder retains at most
// ladderHeapBound bytes beyond the input instance. Dense coarse levels
// held at least 40 MiB here (the first coarse level alone is 2261^2
// floats).
func TestMultilevelLadderHeapBound(t *testing.T) {
	if memcheck.RaceEnabled {
		t.Skip("the race detector distorts heap figures")
	}
	const ladderHeapBound = 8 << 20
	inst, err := gen.LargeInstance(2005, 4096, gen.LargeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	before := memcheck.HeapAfterGC()
	levels, stats, err := buildLadder(eval, MultilevelOptions{MinCoarse: 64}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	held := memcheck.HeapAfterGC() - before
	runtime.KeepAlive(levels)
	last := len(levels) - 1
	if last < 2 {
		t.Fatalf("ladder has %d levels, want at least 3", len(levels))
	}
	for i, l := range levels {
		if block := l.eval.Platform().IsBlock(); block != (i < last) {
			t.Errorf("level %d (n=%d): block platform %v, want %v", i, stats[i].Tasks, block, i < last)
		}
	}
	t.Logf("%d levels down to n=%d: %d bytes retained (%.2f MiB)", len(levels), stats[last].Tasks, held, float64(held)/(1<<20))
	if held > ladderHeapBound {
		t.Errorf("ladder retains %d bytes, want at most %d", held, ladderHeapBound)
	}
}
