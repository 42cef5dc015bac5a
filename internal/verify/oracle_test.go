package verify

import (
	"fmt"
	"math"
	"testing"

	"matchsim/internal/cost"
	"matchsim/internal/gen"
	"matchsim/internal/graph"
	"matchsim/internal/xrand"
)

// oracleSizes spans the tentpole's n ∈ {4..64} band. With oracleSeeds
// seeds per size the differential suite covers > 200 distinct randomized
// (graph, seed) instances.
var oracleSizes = []int{4, 5, 8, 12, 16, 24, 32, 48, 64}

const oracleSeeds = 23

// paperInstance builds the integer-weighted generator instance: every
// weight is integral, so all partial sums are exact in float64 and every
// production path must agree with the oracle bit for bit.
func paperInstance(t testing.TB, seed uint64, n int) (*graph.TIG, *graph.ResourceGraph, *cost.Evaluator) {
	t.Helper()
	inst, err := gen.PaperInstance(seed, n, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatalf("PaperInstance(%d, %d): %v", seed, n, err)
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	return inst.TIG, inst.Platform, eval
}

// floatInstance builds an instance with irrational-ish float weights:
// summation order now matters at ULP scale, so comparisons against the
// oracle use a relative tolerance instead of bit equality.
func floatInstance(t testing.TB, seed uint64, n int) (*graph.TIG, *graph.ResourceGraph, *cost.Evaluator) {
	t.Helper()
	rng := xrand.New(seed)
	tig := graph.NewTIG(n)
	for i := range tig.Weights {
		tig.Weights[i] = rng.Float64Range(0.5, 10)
	}
	for v := 1; v < n; v++ {
		tig.MustAddEdge(rng.Intn(v), v, rng.Float64Range(50, 100)) // spanning tree
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !tig.HasEdge(u, v) && rng.Bool(0.2) {
				tig.MustAddEdge(u, v, rng.Float64Range(50, 100))
			}
		}
	}
	platform := graph.NewResourceGraph(n)
	for s := range platform.Costs {
		platform.Costs[s] = rng.Float64Range(0.5, 5)
	}
	for s := 0; s < n; s++ {
		for b := s + 1; b < n; b++ {
			platform.MustAddLink(s, b, rng.Float64Range(10, 20))
		}
	}
	eval, err := cost.NewEvaluator(tig, platform)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	return tig, platform, eval
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}

// testMappings yields a few structured plus several random permutations.
func testMappings(rng *xrand.RNG, n, extra int) [][]int {
	ms := [][]int{cost.Identity(n)}
	rev := make([]int, n)
	for i := range rev {
		rev[i] = n - 1 - i
	}
	ms = append(ms, rev)
	for i := 0; i < extra; i++ {
		ms = append(ms, rng.Perm(n))
	}
	return ms
}

// checkAgainstOracle compares every production scoring path against the
// reference for one (instance, mapping) pair. exact selects bit equality
// (integer-weighted instances) vs relative tolerance.
func checkAgainstOracle(t *testing.T, tig *graph.TIG, platform *graph.ResourceGraph,
	eval *cost.Evaluator, rng *xrand.RNG, m []int, exact bool) {
	t.Helper()
	agree := func(got, want float64, path string) {
		t.Helper()
		if exact {
			if !sameBits(got, want) {
				t.Fatalf("%s = %v (bits %x), oracle %v (bits %x)", path, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		} else if !relClose(got, want, 1e-9) {
			t.Fatalf("%s = %v, oracle %v (rel err %g)", path, got, want, math.Abs(got-want)/math.Abs(want))
		}
	}

	refLoads, err := RefLoads(tig, platform, m)
	if err != nil {
		t.Fatalf("RefLoads: %v", err)
	}
	refExec, err := RefExec(tig, platform, m)
	if err != nil {
		t.Fatalf("RefExec: %v", err)
	}

	loads := eval.Loads(m, nil)
	for s := range loads {
		agree(loads[s], refLoads[s], fmt.Sprintf("Evaluator.Loads[%d]", s))
	}
	agree(eval.Exec(m), refExec, "Evaluator.Exec")
	agree(eval.ExecInto(m, loads), refExec, "Evaluator.ExecInto (reused buffer)")

	st, err := cost.NewState(eval, m)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	agree(st.Exec(), refExec, "State.Exec")
	n := len(m)
	for i := 0; i < 8; i++ {
		t1, t2 := rng.Intn(n), rng.Intn(n)
		refSwap, err := RefExecAfterSwap(tig, platform, m, t1, t2)
		if err != nil {
			t.Fatalf("RefExecAfterSwap: %v", err)
		}
		agree(st.ExecAfterSwap(t1, t2), refSwap, fmt.Sprintf("State.ExecAfterSwap(%d,%d)", t1, t2))
	}
	// Commit one swap and re-check the incrementally maintained state.
	t1, t2 := rng.Intn(n), rng.Intn(n)
	st.Swap(t1, t2)
	refSwap, err := RefExecAfterSwap(tig, platform, m, t1, t2)
	if err != nil {
		t.Fatalf("RefExecAfterSwap: %v", err)
	}
	agree(st.Exec(), refSwap, fmt.Sprintf("State.Exec after Swap(%d,%d)", t1, t2))
}

// TestOracleDifferentialPaper is the tentpole differential: > 200
// integer-weighted (graph, seed) instances, several mappings each, every
// production path bit-identical to the naive eqs. (1)-(2) oracle.
func TestOracleDifferentialPaper(t *testing.T) {
	cases := 0
	for _, n := range oracleSizes {
		for seed := uint64(1); seed <= oracleSeeds; seed++ {
			tig, platform, eval := paperInstance(t, seed, n)
			rng := xrand.New(seed*1000 + uint64(n))
			for _, m := range testMappings(rng, n, 3) {
				checkAgainstOracle(t, tig, platform, eval, rng, m, true)
			}
			cases++
		}
	}
	if cases < 200 {
		t.Fatalf("differential suite covered only %d instances, want >= 200", cases)
	}
}

// TestOracleDifferentialFloat repeats the differential on float-weighted
// instances, where only ULP-level agreement is guaranteed.
func TestOracleDifferentialFloat(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		for seed := uint64(1); seed <= 8; seed++ {
			tig, platform, eval := floatInstance(t, seed, n)
			rng := xrand.New(seed*77 + uint64(n))
			for _, m := range testMappings(rng, n, 3) {
				checkAgainstOracle(t, tig, platform, eval, rng, m, false)
			}
		}
	}
}

// TestOracleRejectsBadMappings pins the oracle's own input validation so
// differential fuzzing can rely on its errors.
func TestOracleRejectsBadMappings(t *testing.T) {
	tig, platform, _ := paperInstance(t, 1, 8)
	if _, err := RefExec(tig, platform, make([]int, 5)); err == nil {
		t.Fatal("short mapping accepted")
	}
	bad := cost.Identity(8)
	bad[3] = 9
	if _, err := RefExec(tig, platform, bad); err == nil {
		t.Fatal("out-of-range resource accepted")
	}
	if _, err := RefExecAfterSwap(tig, platform, cost.Identity(8), 0, 8); err == nil {
		t.Fatal("out-of-range swap task accepted")
	}
}
