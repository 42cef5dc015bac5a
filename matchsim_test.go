package matchsim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func buildTinyProblem(t *testing.T) *Problem {
	t.Helper()
	tg := NewTaskGraph([]float64{4, 2, 7})
	if err := tg.AddInteraction(0, 1, 55); err != nil {
		t.Fatal(err)
	}
	if err := tg.AddInteraction(1, 2, 60); err != nil {
		t.Fatal(err)
	}
	pf := NewPlatform([]float64{1, 2, 1})
	for _, l := range [][3]float64{{0, 1, 12}, {1, 2, 15}, {0, 2, 11}} {
		if err := pf.AddLink(int(l[0]), int(l[1]), l[2]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewProblem(tg, pf)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildAndEvaluateProblem(t *testing.T) {
	p := buildTinyProblem(t)
	if p.NumTasks() != 3 || p.NumResources() != 3 {
		t.Fatalf("sizes %d/%d", p.NumTasks(), p.NumResources())
	}
	exec, err := p.Exec([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Resource 1 hosts task 1: 2*2 + 55*12 + 60*15 = 4 + 660 + 900 = 1564.
	if exec != 1564 {
		t.Fatalf("Exec = %v, want 1564", exec)
	}
	if _, err := p.Exec([]int{0, 1}); err == nil {
		t.Fatal("short mapping accepted")
	}
	if _, err := p.Exec([]int{0, 1, 9}); err == nil {
		t.Fatal("out-of-range mapping accepted")
	}
}

func TestExplain(t *testing.T) {
	p := buildTinyProblem(t)
	b, err := p.Explain([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Exec != 1564 || b.Busiest != 1 {
		t.Fatalf("breakdown %+v", b)
	}
	for s := 0; s < 3; s++ {
		if math.Abs(b.Compute[s]+b.Comm[s]-b.Loads[s]) > 1e-9 {
			t.Fatalf("inconsistent breakdown at %d", s)
		}
	}
	if b.Imbalance < 1 {
		t.Fatalf("imbalance %v < 1", b.Imbalance)
	}
	if _, err := p.Explain([]int{1}); err == nil {
		t.Fatal("bad mapping accepted by Explain")
	}
}

func TestSparsePlatformAutoCloses(t *testing.T) {
	tg := NewTaskGraph([]float64{1, 1, 1})
	tg.AddInteraction(0, 2, 10)
	pf := NewPlatform([]float64{1, 1, 1})
	pf.AddLink(0, 1, 5)
	pf.AddLink(1, 2, 5)
	// No direct 0-2 link: NewProblem must close it via routing (cost 10).
	p, err := NewProblem(tg, pf)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := p.Exec([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Tasks 0 and 2 communicate 10 units at routed cost 10 = 100, plus
	// compute 1 each: resource 0 load = 1 + 100 = 101.
	if exec != 101 {
		t.Fatalf("Exec = %v, want 101", exec)
	}
}

func TestNewProblemRejectsDisconnectedPlatform(t *testing.T) {
	tg := NewTaskGraph([]float64{1, 1})
	pf := NewPlatform([]float64{1, 1})
	if _, err := NewProblem(tg, pf); err == nil {
		t.Fatal("disconnected 2-resource platform accepted")
	}
	if _, err := NewProblem(nil, pf); err == nil {
		t.Fatal("nil task graph accepted")
	}
}

func TestGeneratePaperAndSolveAll(t *testing.T) {
	p, err := GeneratePaper(42, 10)
	if err != nil {
		t.Fatal(err)
	}
	solvers := map[string]func() (*Solution, error){
		"match": func() (*Solution, error) {
			return SolveMaTCH(p, MaTCHOptions{Seed: 1, MaxIterations: 60})
		},
		"ga": func() (*Solution, error) {
			return SolveGA(p, GAOptions{PopulationSize: 40, Generations: 40, Seed: 1})
		},
		"random": func() (*Solution, error) { return SolveRandom(p, 500, 1) },
		"greedy": func() (*Solution, error) { return SolveGreedy(p) },
		"local":  func() (*Solution, error) { return SolveLocalSearch(p, 2, 1) },
		"anneal": func() (*Solution, error) { return SolveAnnealing(p, AnnealingOptions{Seed: 1}) },
	}
	for name, f := range solvers {
		sol, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sol.Mapping) != 10 {
			t.Fatalf("%s: mapping length %d", name, len(sol.Mapping))
		}
		recomputed, err := p.Exec(sol.Mapping)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(recomputed-sol.Exec) > 1e-9 {
			t.Fatalf("%s: exec %v vs recomputed %v", name, sol.Exec, recomputed)
		}
		if sol.Solver == "" || sol.MappingTime <= 0 {
			t.Fatalf("%s: missing metadata %+v", name, sol)
		}
	}
}

func TestSolveMaTCHTelemetry(t *testing.T) {
	p, err := GeneratePaper(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	var traces []IterationTrace
	sol, err := SolveMaTCH(p, MaTCHOptions{
		Seed: 2, MaxIterations: 30,
		OnIteration: func(tr IterationTrace) { traces = append(traces, tr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != sol.Iterations {
		t.Fatalf("%d traces for %d iterations", len(traces), sol.Iterations)
	}
	last := traces[len(traces)-1]
	if last.BestSoFar != sol.Exec {
		t.Fatalf("final BestSoFar %v != solution %v", last.BestSoFar, sol.Exec)
	}
}

func TestSolveGATelemetry(t *testing.T) {
	p, err := GeneratePaper(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	_, err = SolveGA(p, GAOptions{
		PopulationSize: 20, Generations: 15, Seed: 1,
		OnGeneration: func(tr IterationTrace) { count++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 15 {
		t.Fatalf("generation callbacks %d", count)
	}
}

func TestManyToOneFacade(t *testing.T) {
	tg := NewTaskGraph([]float64{1, 1, 1, 1})
	tg.AddInteraction(0, 1, 50)
	tg.AddInteraction(2, 3, 50)
	pf := NewPlatform([]float64{1, 1})
	pf.AddLink(0, 1, 10)
	p, err := NewProblem(tg, pf)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveMaTCHManyToOne(p, MaTCHOptions{Seed: 1, MaxIterations: 100, SampleSize: 300, Rho: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: pair (0,1) on one resource, (2,3) on the other: exec = 2.
	if sol.Exec != 2 {
		t.Fatalf("many-to-one exec %v, want 2", sol.Exec)
	}
}

func TestGenerateOverset(t *testing.T) {
	p, err := GenerateOverset(3, OversetConfig{NumGrids: 12})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTasks() != 12 || p.NumResources() != 12 {
		t.Fatalf("sizes %d/%d", p.NumTasks(), p.NumResources())
	}
	sol, err := SolveMaTCH(p, MaTCHOptions{Seed: 1, MaxIterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Mapping) != 12 {
		t.Fatal("overset solve failed")
	}
	if _, err := GenerateOverset(1, OversetConfig{}); err == nil {
		t.Fatal("zero grids accepted")
	}
}

func TestGenerateClustered(t *testing.T) {
	p, err := GenerateClustered(5, ClusteredPlatformConfig{Clusters: 3, PerCluster: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTasks() != 12 {
		t.Fatalf("size %d", p.NumTasks())
	}
	sol, err := SolveMaTCH(p, MaTCHOptions{Seed: 1, MaxIterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := SolveRandom(p, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Exec > rnd.Exec {
		t.Fatalf("MaTCH %v worse than 20 random draws %v on clustered platform", sol.Exec, rnd.Exec)
	}
	if _, err := GenerateClustered(1, ClusteredPlatformConfig{}); err == nil {
		t.Fatal("zero shape accepted")
	}
}

func TestInstanceRoundTripThroughJSON(t *testing.T) {
	p, err := GeneratePaper(11, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteInstance(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := []int{0, 1, 2, 3, 4, 5, 6, 7}
	a, err := p.Exec(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Exec(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("round-tripped problem differs: %v vs %v", a, b)
	}
}

func TestDOTOutputs(t *testing.T) {
	p := buildTinyProblem(t)
	if !strings.Contains(p.TaskGraphDOT(), "graph \"tig\"") {
		t.Fatal("TIG DOT malformed")
	}
	if !strings.Contains(p.PlatformDOT(), "graph \"platform\"") {
		t.Fatal("platform DOT malformed")
	}
}

func TestDuplicateInteractionRejected(t *testing.T) {
	tg := NewTaskGraph([]float64{1, 1})
	if err := tg.AddInteraction(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := tg.AddInteraction(1, 0, 6); err == nil {
		t.Fatal("duplicate interaction accepted")
	}
	if err := tg.AddInteraction(0, 0, 1); err == nil {
		t.Fatal("self-interaction accepted")
	}
}

// TestSolveMaTCHContextCancellation pins the public cancellation
// contract: a context cancelled mid-run yields a best-so-far Solution
// with StopReason "cancelled" and a non-nil, resumable Checkpoint; a
// context cancelled before the first iteration yields the context error.
func TestSolveMaTCHContextCancellation(t *testing.T) {
	p, err := GeneratePaper(44, 20)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel after a few iterations via the telemetry callback.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sol, err := SolveMaTCH(p, MaTCHOptions{
		Seed: 3, Workers: 1, MaxIterations: 100000, StallC: 100000, GammaStallWindow: 100000,
		Context: ctx,
		OnIteration: func(tr IterationTrace) {
			if tr.Iteration >= 3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if sol.StopReason != StopCancelled {
		t.Fatalf("StopReason = %q, want %q", sol.StopReason, StopCancelled)
	}
	if sol.Iterations == 0 || sol.Iterations > 5 {
		t.Errorf("cancelled after %d iterations, want a handful", sol.Iterations)
	}
	if _, err := p.Exec(sol.Mapping); err != nil {
		t.Errorf("best-so-far mapping invalid: %v", err)
	}
	ckpt := sol.Checkpoint()
	if ckpt == nil {
		t.Fatal("cancelled run has no checkpoint")
	}

	// The checkpoint resumes to completion.
	resumed, err := ResumeMaTCH(p, ckpt, MaTCHOptions{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatalf("ResumeMaTCH: %v", err)
	}
	if resumed.Exec > sol.Exec {
		t.Errorf("resumed exec %v worse than checkpointed incumbent %v", resumed.Exec, sol.Exec)
	}

	// Pre-cancelled context: no iteration ever completes, ctx error out.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if _, err := SolveMaTCH(p, MaTCHOptions{Seed: 3, Workers: 1, Context: dead}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled run returned %v, want context.Canceled", err)
	}
}

// TestSolveGAContextCancellation pins the GA's generation-granular
// cancellation.
func TestSolveGAContextCancellation(t *testing.T) {
	p, err := GeneratePaper(45, 12)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sol, err := SolveGA(p, GAOptions{
		Seed: 1, Workers: 1, PopulationSize: 40, Generations: 100000,
		Context: ctx,
		OnGeneration: func(tr IterationTrace) {
			if tr.Iteration >= 3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("cancelled GA errored: %v", err)
	}
	if sol.StopReason != StopCancelled {
		t.Fatalf("StopReason = %q, want %q", sol.StopReason, StopCancelled)
	}
	if _, err := p.Exec(sol.Mapping); err != nil {
		t.Errorf("best-so-far mapping invalid: %v", err)
	}
}
