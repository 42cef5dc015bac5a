package cost

import (
	"math"
	"testing"

	"matchsim/internal/gen"
	"matchsim/internal/graph"
	"matchsim/internal/xrand"
)

// randomFloatInstance builds an instance with arbitrary float weights —
// the regime where incrementally maintained loads and a fresh Loads can
// differ by rounding, bounded at 1e-9 relative.
func randomFloatInstance(t *testing.T, rng *xrand.RNG, tasks, resources int) *Evaluator {
	t.Helper()
	w := make([]float64, tasks)
	for i := range w {
		w[i] = rng.Float64()*9 + 0.5
	}
	tig := graph.NewTIGWithWeights(w)
	for i := 0; i < tasks; i++ {
		for j := i + 1; j < tasks; j++ {
			if rng.Float64() < 0.3 {
				tig.MustAddEdge(i, j, rng.Float64()*50+1)
			}
		}
	}
	costs := make([]float64, resources)
	for i := range costs {
		costs[i] = rng.Float64()*4 + 0.5
	}
	rg := graph.NewResourceGraphWithCosts(costs)
	for i := 0; i < resources; i++ {
		for j := i + 1; j < resources; j++ {
			rg.MustAddLink(i, j, rng.Float64()*10+0.5)
		}
	}
	e, err := NewEvaluator(tig, rg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomPermutation(rng *xrand.RNG, n int) Mapping {
	m := make(Mapping, n)
	rng.PermInto(m)
	return m
}

func relDiff(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}

// TestExecAfterSwapDeltaMatchesReference: the delta probe must agree with
// the swap-and-revert reference and leave the state untouched, including
// after committed swaps and many-to-one SetTask moves.
func TestExecAfterSwapDeltaMatchesReference(t *testing.T) {
	rng := xrand.New(35)
	for _, n := range []int{4, 16, 64} {
		e := randomFloatInstance(t, rng, n, n)
		st, err := NewState(e, randomPermutation(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			got := st.ExecAfterSwap(i, j)
			want := st.execAfterSwapBySwapping(i, j)
			if relDiff(got, want) > 1e-9 {
				t.Fatalf("n=%d trial %d swap(%d,%d): delta %v vs reference %v", n, trial, i, j, got, want)
			}
			// Every few probes, commit a mutation so the cached order and
			// loads churn.
			switch trial % 5 {
			case 0:
				st.Swap(rng.Intn(n), rng.Intn(n))
			case 2:
				st.SetTask(rng.Intn(n), rng.Intn(n))
			}
		}
		// The probe must not have corrupted incremental state. Committed
		// swaps accumulate a little float error on their own, so compare
		// with a mixed absolute/relative tolerance.
		fresh := e.Loads(st.Mapping(), nil)
		for r, l := range st.Loads() {
			if math.Abs(l-fresh[r]) > 1e-9*(1+math.Abs(fresh[r])) {
				t.Fatalf("n=%d: load[%d] drifted: %v vs recomputed %v", n, r, l, fresh[r])
			}
		}
	}
}

// TestExecAfterSwapDeltaOnPaperInstance: exact agreement on the integer-
// weight generator output.
func TestExecAfterSwapDeltaOnPaperInstance(t *testing.T) {
	rng := xrand.New(36)
	inst, err := gen.PaperInstance(4, 20, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(e, randomPermutation(rng, 20))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 500; trial++ {
		i, j := rng.Intn(20), rng.Intn(20)
		if got, want := st.ExecAfterSwap(i, j), st.execAfterSwapBySwapping(i, j); got != want {
			t.Fatalf("trial %d swap(%d,%d): delta %v != reference %v", trial, i, j, got, want)
		}
		if trial%7 == 0 {
			st.Swap(rng.Intn(20), rng.Intn(20))
		}
	}
}

func BenchmarkExecAfterSwap(b *testing.B) {
	inst, err := gen.PaperInstance(2005, 64, gen.DefaultPaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	st, err := NewState(e, randomPermutation(rng, 64))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.ExecAfterSwap(i%64, (i*7+13)%64)
		}
	})
	b.Run("swap-revert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st.execAfterSwapBySwapping(i%64, (i*7+13)%64)
		}
	})
}
