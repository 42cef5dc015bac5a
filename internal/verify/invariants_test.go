package verify

import (
	"context"
	"math"
	"sync"
	"testing"

	"matchsim/internal/ce"
	"matchsim/internal/core"
	"matchsim/internal/cost"
	"matchsim/internal/graph"
	"matchsim/internal/stochmat"
	"matchsim/internal/xrand"
)

// randomMatrix builds a row-stochastic matrix with rng-driven mass; when
// spiky, most of each row's mass lands on one column.
func randomMatrix(t testing.TB, rng *xrand.RNG, n int, spiky bool) *stochmat.Matrix {
	t.Helper()
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64Range(0.05, 1)
		}
		if spiky {
			row[rng.Intn(n)] = 50
		}
		rows[i] = row
	}
	m, err := stochmat.NewFromRows(rows)
	if err != nil {
		t.Fatalf("NewFromRows: %v", err)
	}
	return m
}

// TestSamplersProducePermutations checks the GenPerm postcondition on the
// production alias sampler and the reference walk, across matrix shapes.
func TestSamplersProducePermutations(t *testing.T) {
	rng := xrand.New(11)
	for _, n := range []int{1, 2, 5, 16, 40} {
		for _, spiky := range []bool{false, true} {
			m := randomMatrix(t, rng, n, spiky)
			s := stochmat.NewSampler(n)
			at := stochmat.NewAliasTable(m)
			dst := make([]int, n)
			for rep := 0; rep < 50; rep++ {
				if err := s.SamplePermutation(m, at, rng, dst); err != nil {
					t.Fatalf("SamplePermutation: %v", err)
				}
				if err := CheckPermutation(dst); err != nil {
					t.Fatalf("SamplePermutation(n=%d spiky=%v): %v", n, spiky, err)
				}
				ref, err := RefSamplePermutation(m, rng)
				if err != nil {
					t.Fatalf("RefSamplePermutation: %v", err)
				}
				if err := CheckPermutation(ref); err != nil {
					t.Fatalf("RefSamplePermutation(n=%d spiky=%v): %v", n, spiky, err)
				}
			}
		}
	}
}

// TestRowStochasticAfterEveryUpdate drives full CE runs with per-iteration
// matrix snapshots and validates each one — P must remain row-stochastic
// after every eq. (11)+(13) update, not just at termination.
func TestRowStochasticAfterEveryUpdate(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		_, _, eval := paperInstance(t, seed, 12)
		res, err := core.Solve(eval, core.Options{Seed: seed, Workers: 1, SnapshotEvery: 1, MaxIterations: 60})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if len(res.Snapshots) == 0 {
			t.Fatal("SnapshotEvery: 1 recorded no snapshots")
		}
		for _, snap := range res.Snapshots {
			if err := CheckRowStochastic(snap.Matrix, 1e-9); err != nil {
				t.Fatalf("seed %d iteration %d: %v", seed, snap.Iter, err)
			}
		}
		if err := CheckRowStochastic(res.FinalMatrix, 1e-9); err != nil {
			t.Fatalf("seed %d final matrix: %v", seed, err)
		}
	}
}

// TestDirectUpdatesStayRowStochastic hammers SetRow+Smooth — the two
// mutations CE performs — with random data and validates after each step.
func TestDirectUpdatesStayRowStochastic(t *testing.T) {
	rng := xrand.New(5)
	m := randomMatrix(t, rng, 10, false)
	prev := m.Clone()
	row := make([]float64, 10)
	for step := 0; step < 300; step++ {
		i := rng.Intn(10)
		for j := range row {
			row[j] = rng.Float64Range(0, 4) // unnormalised counts, zeros allowed
		}
		row[rng.Intn(10)] += 1 // keep the row mass positive
		if err := m.SetRow(i, row); err != nil {
			t.Fatalf("SetRow: %v", err)
		}
		m.Smooth(prev, 0.3)
		if err := CheckRowStochastic(m, 1e-9); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		prev = m.Clone()
	}
}

// TestAliasReproducesRowDistributions is the chi-square goodness-of-fit
// gate: alias-table sampling must be statistically indistinguishable from
// the matrix row it was built from. Seeds are fixed, so a pass is
// deterministic, not probabilistic.
func TestAliasReproducesRowDistributions(t *testing.T) {
	rng := xrand.New(42)
	for _, n := range []int{2, 5, 16} {
		for _, spiky := range []bool{false, true} {
			m := randomMatrix(t, rng, n, spiky)
			for row := 0; row < n; row++ {
				if err := CheckAliasRow(m, row, 20000, rng, 1e-6); err != nil {
					t.Fatalf("n=%d spiky=%v: %v", n, spiky, err)
				}
			}
		}
	}
}

// TestEliteSelectionInvariant streams random score vectors with heavy
// ties into a ce.Elite from several goroutines, in a shuffled order, and
// checks the sorted elite against every score.
func TestEliteSelectionInvariant(t *testing.T) {
	rng := xrand.New(9)
	for trial := 0; trial < 200; trial++ {
		n := rng.IntRange(1, 200)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(8)) // small range: many exact ties
		}
		offers := make([]int, n)
		for i := range offers {
			offers[i] = i
		}
		rng.ShuffleInts(offers)
		for _, k := range []int{1, n / 20, n / 2, n} {
			if k < 1 {
				k = 1
			}
			e := ce.NewElite(k, func() []int { return make([]int, 1) })
			const workers = 3
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					buf := make([]int, 1)
					for i := w; i < n; i += workers {
						buf = e.Offer(scores[offers[i]], offers[i], buf)
					}
				}(w)
			}
			wg.Wait()
			e.Sort()
			elite := make([]int, e.Len())
			for i := range elite {
				_, elite[i], _ = e.At(i)
			}
			if err := CheckEliteSelection(elite, scores, k); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
		}
	}
}

// TestSolveHistoryInvariants runs full solves and checks the trajectory
// invariants (finite summaries, Best <= Gamma <= Worst, Best <= Mean <=
// Worst, monotone BestSoFar, sane counters) on every iteration.
func TestSolveHistoryInvariants(t *testing.T) {
	for _, n := range []int{8, 16} {
		for _, seed := range []uint64{1, 7} {
			_, _, eval := paperInstance(t, seed, n)
			res, err := core.Solve(eval, core.Options{Seed: seed, Workers: 1, MaxIterations: 80})
			if err != nil {
				t.Fatalf("Solve(n=%d seed=%d): %v", n, seed, err)
			}
			if err := CheckHistory(res.History); err != nil {
				t.Fatalf("Solve(n=%d seed=%d): %v", n, seed, err)
			}
			if err := CheckPermutation(res.Mapping); err != nil {
				t.Fatalf("final mapping: %v", err)
			}
			last := res.History[len(res.History)-1]
			if !sameBits(res.Exec, last.BestSoFar) {
				t.Fatalf("result exec %v != final best-so-far %v", res.Exec, last.BestSoFar)
			}
		}
	}
}

// TestCancellationReturnsBestSoFar cancels a run mid-flight and checks
// the contract: StopCancelled, and the returned mapping is exactly the
// incumbent — its Exec matches both the evaluator and the history's
// best-so-far at the moment of cancellation.
func TestCancellationReturnsBestSoFar(t *testing.T) {
	_, _, eval := paperInstance(t, 3, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iterations := 0
	res, err := core.Solve(eval, core.Options{
		Seed: 3, Workers: 1,
		MaxIterations: 1 << 20, StallC: 1 << 20, GammaStallWindow: 1 << 20,
		Context: ctx,
		OnIteration: func(st ce.IterStats) {
			iterations++
			if iterations == 4 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.StopReason != ce.StopCancelled {
		t.Fatalf("stop reason %q, want %q", res.StopReason, ce.StopCancelled)
	}
	if err := CheckPermutation(res.Mapping); err != nil {
		t.Fatalf("cancelled run mapping: %v", err)
	}
	if got := eval.Exec(res.Mapping); !sameBits(got, res.Exec) {
		t.Fatalf("cancelled run exec %v but mapping evaluates to %v", res.Exec, got)
	}
	best := math.Inf(1)
	for _, it := range res.History {
		if it.BestSoFar < best {
			best = it.BestSoFar
		}
	}
	if !sameBits(res.Exec, best) {
		t.Fatalf("cancelled run exec %v != best-so-far %v across %d iterations", res.Exec, best, len(res.History))
	}
	if err := CheckHistory(res.History); err != nil {
		t.Fatalf("cancelled run history: %v", err)
	}
}

func TestSolveSingleTask(t *testing.T) {
	// n=1: one task on one resource. The solver must terminate with the
	// only possible mapping rather than looping or dividing by zero.
	tig := graph.NewTIGWithWeights([]float64{4})
	platform := graph.NewResourceGraphWithCosts([]float64{3})
	eval, err := cost.NewEvaluator(tig, platform)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(eval, core.Options{Seed: 11, Workers: 1, MaxIterations: 20})
	if err != nil {
		t.Fatalf("Solve on n=1: %v", err)
	}
	if len(res.Mapping) != 1 || res.Mapping[0] != 0 {
		t.Fatalf("n=1 mapping = %v, want [0]", res.Mapping)
	}
	if res.Exec != 12 {
		t.Fatalf("n=1 Exec = %v, want 12", res.Exec)
	}
	if err := CheckHistory(res.History); err != nil {
		t.Fatalf("n=1 history: %v", err)
	}
}
