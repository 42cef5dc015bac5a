// Package partition implements the hierarchical clustering-and-mapping
// strategy of FastMap (Jain, Sanyal, Das & Biswas — the authors' earlier
// scheme the paper builds on): when an application has far more tasks
// than the platform has resources, the TIG is first coarsened to |Vr|
// clusters by heavy-edge contraction — co-locating the most heavily
// communicating tasks, whose traffic then becomes free intra-resource
// communication — and the coarse cluster graph is mapped with MaTCH.
//
// This closes the loop with the paper's own lineage: MaTCH replaces the
// GA inside FastMap's distribution stage, and this package provides the
// clustering stage so the repository covers the full large-application
// workflow (|Vt| >> |Vr|) rather than only the paper's |Vt| = |Vr|
// experiments.
package partition

import (
	"fmt"
	"sort"

	"matchsim/internal/core"
	"matchsim/internal/cost"
	"matchsim/internal/graph"
)

// Coarsening maps the original tasks onto a smaller cluster TIG.
type Coarsening struct {
	// Coarse is the k-cluster TIG: cluster weight = sum of member task
	// weights; cluster-pair edge weight = sum of crossing communication.
	Coarse *graph.TIG
	// Assign[t] is the cluster of original task t.
	Assign []int
	// ClusterMembers[c] lists the tasks merged into cluster c.
	ClusterMembers [][]int
}

// Coarsen reduces tig to k clusters by greedy heavy-edge contraction:
// repeatedly merge the pair of clusters joined by the heaviest aggregate
// communication, subject to a balance cap — no cluster may exceed
// maxWeightFactor times the ideal cluster weight (total work / k) while
// any legal merge remains. maxWeightFactor <= 0 disables the cap.
func Coarsen(tig *graph.TIG, k int, maxWeightFactor float64) (*Coarsening, error) {
	n := tig.NumTasks()
	if k < 1 || k > n {
		return nil, fmt.Errorf("partition: cannot coarsen %d tasks to %d clusters", n, k)
	}

	// Cluster state: union-find plus aggregate weights and pairwise
	// communication. n is at most a few thousand in this problem domain,
	// so the O(n^2) pair map in dense form is acceptable and simple.
	parent := make([]int, n)
	weight := make([]float64, n)
	for i := range parent {
		parent[i] = i
		weight[i] = tig.Weights[i]
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	// comm[a][b] aggregates communication between cluster roots a < b.
	comm := make(map[[2]int]float64, tig.M())
	key := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for _, e := range tig.Edges() {
		comm[key(e.U, e.V)] += e.Weight
	}

	clusters := n
	capW := 0.0
	if maxWeightFactor > 0 {
		capW = maxWeightFactor * tig.TotalWork() / float64(k)
	}

	for clusters > k {
		// Preference order: (1) the heaviest communicating pair whose
		// merged weight respects the cap; (2) the two lightest clusters
		// overall if THEY respect the cap (internalising nothing but
		// keeping balance); (3) the heaviest communicating pair
		// regardless of the cap; (4) the two lightest clusters.
		// Ties break on the lowest pair key for determinism.
		var bestPair [2]int
		bestW := -1.0
		var cappedPair [2]int
		cappedW := -1.0
		pairs := make([][2]int, 0, len(comm))
		for p := range comm {
			pairs = append(pairs, p)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		for _, p := range pairs {
			w := comm[p]
			if capW > 0 && weight[p[0]]+weight[p[1]] > capW {
				if w > cappedW {
					cappedPair, cappedW = p, w
				}
				continue
			}
			if w > bestW {
				bestPair, bestW = p, w
			}
		}
		if bestW < 0 {
			// No cap-respecting communicating pair. Consider the two
			// lightest clusters overall.
			roots := map[int]bool{}
			for i := 0; i < n; i++ {
				roots[find(i)] = true
			}
			rs := make([]int, 0, len(roots))
			for r := range roots {
				rs = append(rs, r)
			}
			sort.Slice(rs, func(i, j int) bool {
				if weight[rs[i]] != weight[rs[j]] {
					return weight[rs[i]] < weight[rs[j]]
				}
				return rs[i] < rs[j]
			})
			lightest := [2]int{rs[0], rs[1]}
			if lightest[0] > lightest[1] {
				lightest[0], lightest[1] = lightest[1], lightest[0]
			}
			switch {
			case capW <= 0 || weight[lightest[0]]+weight[lightest[1]] <= capW:
				bestPair = lightest
			case cappedW >= 0:
				bestPair = cappedPair // cap unreachable; keep locality
			default:
				bestPair = lightest
			}
		}

		// Contract bestPair[1] into bestPair[0].
		a, b := bestPair[0], bestPair[1]
		parent[b] = a
		weight[a] += weight[b]
		delete(comm, key(a, b))
		// Re-point b's communication onto a.
		for p, w := range comm {
			var other int
			switch {
			case p[0] == b:
				other = p[1]
			case p[1] == b:
				other = p[0]
			default:
				continue
			}
			delete(comm, p)
			if other != a {
				comm[key(a, other)] += w
			}
		}
		clusters--
	}

	// Densify cluster ids in first-seen (task-order) fashion.
	out := &Coarsening{Assign: make([]int, n)}
	id := map[int]int{}
	for t := 0; t < n; t++ {
		root := find(t)
		c, ok := id[root]
		if !ok {
			c = len(id)
			id[root] = c
			out.ClusterMembers = append(out.ClusterMembers, nil)
		}
		out.Assign[t] = c
		out.ClusterMembers[c] = append(out.ClusterMembers[c], t)
	}

	// Build the coarse TIG.
	coarse, err := graph.ContractTIG(tig, graph.Contraction{CoarseN: k, Map: out.Assign})
	if err != nil {
		return nil, err
	}
	coarse.Name = fmt.Sprintf("%s-coarse-%d", tig.Name, k)
	out.Coarse = coarse
	return out, nil
}

// Result is the outcome of the hierarchical map.
type Result struct {
	// Mapping assigns each ORIGINAL task to a resource.
	Mapping cost.Mapping
	// Exec is the full-TIG execution time of that mapping.
	Exec float64
	// Coarsening records the clustering stage.
	Coarsening *Coarsening
	// CoarseRun is the MaTCH run on the cluster graph.
	CoarseRun *core.Result
}

// MapHierarchical coarsens the TIG to |Vr| clusters (balance factor 1.5)
// and maps the cluster graph onto the platform with MaTCH, expanding the
// cluster mapping back to the original tasks.
func MapHierarchical(tig *graph.TIG, platform *graph.ResourceGraph, opts core.Options) (*Result, error) {
	k := platform.NumResources()
	if tig.NumTasks() < k {
		return nil, fmt.Errorf("partition: %d tasks cannot fill %d resources; hierarchical mapping needs |Vt| >= |Vr|",
			tig.NumTasks(), k)
	}
	coarsening, err := Coarsen(tig, k, 1.5)
	if err != nil {
		return nil, err
	}
	coarseEval, err := cost.NewEvaluator(coarsening.Coarse, platform)
	if err != nil {
		return nil, err
	}
	coarseRun, err := core.Solve(coarseEval, opts)
	if err != nil {
		return nil, err
	}

	// Expand: task t lands on its cluster's resource.
	mapping := make(cost.Mapping, tig.NumTasks())
	for t := range mapping {
		mapping[t] = coarseRun.Mapping[coarsening.Assign[t]]
	}
	fullEval, err := cost.NewEvaluator(tig, platform)
	if err != nil {
		return nil, err
	}
	return &Result{
		Mapping:    mapping,
		Exec:       fullEval.Exec(mapping),
		Coarsening: coarsening,
		CoarseRun:  coarseRun,
	}, nil
}
