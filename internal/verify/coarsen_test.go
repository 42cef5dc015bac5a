package verify

import (
	"testing"

	"matchsim/internal/core"
	"matchsim/internal/cost"
	"matchsim/internal/gen"
	"matchsim/internal/graph"
)

// TestCheckContractionOnLadder coarsens paper instances level by level
// and runs the independent contraction checker at every step.
func TestCheckContractionOnLadder(t *testing.T) {
	for _, seed := range []uint64{3, 8, 15} {
		inst, err := gen.PaperInstance(seed, 64, gen.DefaultPaperConfig())
		if err != nil {
			t.Fatal(err)
		}
		cur := inst.TIG
		for cur.N() > 8 {
			pairs := graph.HeavyEdgeMatching(cur.Undirected)
			if len(pairs) == 0 {
				break
			}
			c, err := graph.ContractionFromPairs(cur.N(), pairs)
			if err != nil {
				t.Fatal(err)
			}
			next, err := graph.ContractTIG(cur, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckContraction(cur, next, c); err != nil {
				t.Fatalf("seed %d at n=%d: %v", seed, cur.N(), err)
			}
			cur = next
		}
	}
}

// TestCheckContractionCatchesCorruption: the checker must reject a
// coarse TIG whose weights were tampered with.
func TestCheckContractionCatchesCorruption(t *testing.T) {
	tig := graph.NewTIG(4)
	for i := range tig.Weights {
		tig.Weights[i] = float64(i + 1)
	}
	tig.MustAddEdge(0, 1, 2)
	tig.MustAddEdge(2, 3, 3)
	tig.MustAddEdge(0, 2, 5)
	c, err := graph.ContractionFromPairs(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := graph.ContractTIG(tig, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckContraction(tig, coarse, c); err != nil {
		t.Fatalf("valid contraction rejected: %v", err)
	}
	coarse.Weights[0]++
	if err := CheckContraction(tig, coarse, c); err == nil {
		t.Fatalf("vertex-weight corruption not detected")
	}
	coarse.Weights[0]--
	coarse.Edges()[0].Weight++
	if err := CheckContraction(tig, coarse, c); err == nil {
		t.Fatalf("edge-weight corruption not detected")
	}
}

// TestCheckProjectionOnSolver runs a multilevel solve and feeds each
// level's reported stats through the projection checker; the refined
// exec may never exceed what a worsening refinement would produce.
func TestCheckProjectionOnSolver(t *testing.T) {
	inst, err := gen.PaperInstance(42, 64, gen.DefaultPaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(eval, core.Options{Seed: 7, Workers: 1, MaxIterations: 150,
		Multilevel: &core.MultilevelOptions{MinCoarse: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPermutation(res.Mapping); err != nil {
		t.Fatal(err)
	}
	// Cross-level monotonicity is not guaranteed (levels are different
	// instances), but every level's Exec must be positive and the finest
	// must equal the reported result.
	for i, lv := range res.Levels {
		if lv.Exec <= 0 {
			t.Fatalf("level %d has non-positive exec %v", i, lv.Exec)
		}
	}
	if res.Levels[0].Exec != res.Exec {
		t.Fatalf("finest level exec %v != result %v", res.Levels[0].Exec, res.Exec)
	}
}

// TestCheckProjectionBasics exercises the projection checker directly.
func TestCheckProjectionBasics(t *testing.T) {
	tmap := []int{0, 0, 1, 1}
	rmap := []int{0, 1, 1, 0}
	good := []int{0, 1, 2, 3}
	if err := CheckProjection(tmap, rmap, good, 100, 90, 1e-9); err != nil {
		t.Fatalf("valid projection rejected: %v", err)
	}
	if err := CheckProjection(tmap, rmap, good, 90, 100, 1e-9); err == nil {
		t.Fatalf("worsening refinement accepted")
	}
	if err := CheckProjection(tmap, rmap, []int{0, 0, 2, 3}, 100, 90, 1e-9); err == nil {
		t.Fatalf("non-permutation accepted")
	}
	if err := CheckProjection(tmap[:3], rmap, good, 100, 90, 1e-9); err == nil {
		t.Fatalf("mismatched map sizes accepted")
	}
}
