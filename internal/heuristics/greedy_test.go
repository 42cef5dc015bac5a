package heuristics

import (
	"math"
	"slices"
	"testing"

	"matchsim/internal/cost"
	"matchsim/internal/gen"
	"matchsim/internal/graph"
)

// greedyRescan is Greedy as it was before it kept the two largest loads:
// every candidate rescans all n loads for the partial makespan, O(n^3) in
// all. It is the reference TestGreedyMatchesRescan holds Greedy to.
func greedyRescan(eval *cost.Evaluator) (cost.Mapping, float64, int64) {
	n := eval.NumTasks()
	tig := eval.TIG()
	platform := eval.Platform()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && tig.Weights[order[j]] > tig.Weights[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	mapping := make(cost.Mapping, n)
	for i := range mapping {
		mapping[i] = -1
	}
	loads := make([]float64, n)
	taken := make([]bool, n)
	var evals int64
	for _, task := range order {
		bestRes, bestPeak := -1, math.Inf(1)
		for res := 0; res < n; res++ {
			if taken[res] {
				continue
			}
			evals++
			addSelf := eval.ComputeTime(task, res)
			peak := 0.0
			for _, nb := range tig.Neighbors(task) {
				b := mapping[nb.To]
				if b < 0 || b == res {
					continue
				}
				c := float64(nb.Weight * platform.LinkCost(res, b))
				addSelf += c
				if l := loads[b] + c; l > peak {
					peak = l
				}
			}
			if l := loads[res] + addSelf; l > peak {
				peak = l
			}
			for s := 0; s < n; s++ {
				if s != res && loads[s] > peak {
					peak = loads[s]
				}
			}
			if peak < bestPeak {
				bestPeak, bestRes = peak, res
			}
		}
		mapping[task] = bestRes
		taken[bestRes] = true
		loads[bestRes] += eval.ComputeTime(task, bestRes)
		for _, nb := range tig.Neighbors(task) {
			b := mapping[nb.To]
			if b < 0 || b == bestRes {
				continue
			}
			c := float64(nb.Weight * platform.LinkCost(bestRes, b))
			loads[bestRes] += c
			loads[b] += c
		}
	}
	return mapping, eval.Exec(mapping), evals
}

// TestGreedyMatchesRescan: on paper instances, on instances whose equal
// weights and costs make loads tie, and on hierarchical LargeInstance
// platforms, Greedy gives the rescanning reference's mapping, execution
// time (by bits) and evaluation count.
func TestGreedyMatchesRescan(t *testing.T) {
	var evals []*cost.Evaluator
	for seed := uint64(1); seed <= 6; seed++ {
		for _, n := range []int{1, 2, 5, 16, 48} {
			evals = append(evals, paperEval(t, seed, n))
		}
	}
	// Uniform weights and costs: many candidates tie on every peak.
	for _, n := range []int{3, 9, 20} {
		tig := graph.NewTIG(n)
		for i := range tig.Weights {
			tig.Weights[i] = 2
		}
		for i := 0; i+1 < n; i++ {
			tig.MustAddEdge(i, i+1, 1)
		}
		costs := make([]float64, n)
		for s := range costs {
			costs[s] = 1
		}
		labels := make([]int32, n)
		p, err := graph.NewResourceGraphBlocks(costs, labels, []float64{3})
		if err != nil {
			t.Fatal(err)
		}
		e, err := cost.NewEvaluator(tig, p)
		if err != nil {
			t.Fatal(err)
		}
		evals = append(evals, e)
	}
	for _, n := range []int{96, 256} {
		inst, err := gen.LargeInstance(uint64(n), n, gen.LargeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := cost.NewEvaluator(inst.TIG, inst.Platform)
		if err != nil {
			t.Fatal(err)
		}
		evals = append(evals, e)
	}
	for i, e := range evals {
		got, err := Greedy(e)
		if err != nil {
			t.Fatal(err)
		}
		m, exec, count := greedyRescan(e)
		if !slices.Equal(got.Mapping, m) || math.Float64bits(got.Exec) != math.Float64bits(exec) || got.Evaluations != count {
			t.Fatalf("instance %d (n=%d): Greedy %v ET %v (%d evals), rescan %v ET %v (%d evals)",
				i, e.NumTasks(), got.Mapping, got.Exec, got.Evaluations, m, exec, count)
		}
	}
}
