package core

import (
	"fmt"
	"sort"
	"time"

	"matchsim/internal/cost"
	"matchsim/internal/graph"
)

// MultilevelOptions tunes the multilevel solve pipeline (cf. Schulz &
// Woydt's multilevel process mapping): coarsen the TIG and the platform
// in lockstep by heavy-edge / cheapest-link matching until the instance
// fits MinCoarse, run the CE heuristic at the coarse size, then walk the
// ladder back up, projecting the mapping one level at a time and
// repairing it with 2-swap refinement (cost.RefineSwaps). The CE sample
// budget is the paper's N = 2n^2 at the *coarse* n, which is what turns
// n in the thousands from intractable into seconds.
type MultilevelOptions struct {
	// MinCoarse is the vertex count the coarsener aims for; coarsening
	// stops once the next level would drop below it. Default 128 —
	// small enough that the coarse CE solve takes seconds, large enough
	// to preserve the instance's structure.
	MinCoarse int
	// CoarsenRatio aborts the ladder when matching stalls: if one
	// coarsening step would keep more than this fraction of the current
	// vertices, further levels are not worth their projection error.
	// Default 0.95.
	CoarsenRatio float64
	// RefinePasses caps the refinement passes per level; default 8.
	RefinePasses int
}

func (o MultilevelOptions) withDefaults() MultilevelOptions {
	if o.MinCoarse == 0 {
		o.MinCoarse = 128
	}
	if o.CoarsenRatio == 0 {
		o.CoarsenRatio = 0.95
	}
	if o.RefinePasses == 0 {
		o.RefinePasses = 8
	}
	return o
}

// LevelStats is per-level telemetry of one multilevel solve, ordered
// fine-to-coarse (Levels[0] is the original instance).
type LevelStats struct {
	// Tasks and Edges are the instance size at this level.
	Tasks int
	Edges int
	// CoarsenNs is the time spent building the next-coarser level from
	// this one (0 at the coarsest level).
	CoarsenNs int64
	// SolveNs is the coarse CE solve time (coarsest level only).
	SolveNs int64
	// RefineNs, RefinePasses, RefineSwaps and RefineProbes account for
	// the refinement at this level after projection (0 at the coarsest).
	RefineNs     int64
	RefinePasses int
	RefineSwaps  int
	RefineProbes int64
	// Exec is the makespan of this level's mapping after refinement —
	// at the coarsest level, the coarse CE solution's makespan.
	Exec float64
}

// mlLevel is one rung of the coarsening ladder.
type mlLevel struct {
	eval *cost.Evaluator
	// tmap/rmap project this level's tasks/resources onto the next
	// coarser level's (nil at the coarsest level).
	tmap []int
	rmap []int
}

// solveMultilevel runs the multilevel pipeline. Called by Solve when
// opts.Multilevel is set; opts carries raw (pre-default) values so the
// coarse CE solve derives its defaults — in particular SampleSize = 2n^2
// — at the coarse size.
func solveMultilevel(eval *cost.Evaluator, opts Options) (*Result, error) {
	mo := opts.Multilevel.withDefaults()
	if mo.MinCoarse < 2 {
		return nil, fmt.Errorf("core: multilevel MinCoarse %d < 2", mo.MinCoarse)
	}
	if mo.CoarsenRatio <= 0 || mo.CoarsenRatio >= 1 {
		return nil, fmt.Errorf("core: multilevel CoarsenRatio %v outside (0,1)", mo.CoarsenRatio)
	}

	start := time.Now()
	levels, stats, err := buildLadder(eval, mo)
	if err != nil {
		return nil, err
	}

	// Coarse CE solve at the coarsest level, with the multilevel arm and
	// size-dependent options stripped: defaults (sample size, etc.) are
	// recomputed at the coarse n inside Solve.
	coarse := levels[len(levels)-1]
	copts := opts
	copts.Multilevel = nil
	copts.WarmStart = nil
	copts.SnapshotEvery = 0
	copts.Polish = false
	solveStart := time.Now()
	coarseRes, err := Solve(coarse.eval, copts)
	if err != nil {
		return nil, err
	}
	stats[len(stats)-1].SolveNs = time.Since(solveStart).Nanoseconds()
	stats[len(stats)-1].Exec = coarseRes.Exec

	// Uncoarsen: project level by level and refine after each projection.
	mapping := []int(coarseRes.Mapping)
	evaluations := coarseRes.Evaluations
	for li := len(levels) - 2; li >= 0; li-- {
		lvl := levels[li]
		mapping = projectMapping(lvl.eval, lvl.tmap, lvl.rmap, mapping)
		st, err := cost.NewState(lvl.eval, cost.Mapping(mapping))
		if err != nil {
			return nil, fmt.Errorf("core: projected mapping invalid at level %d: %w", li, err)
		}
		refineStart := time.Now()
		rs := cost.RefineSwaps(st, cost.RefineOptions{MaxPasses: mo.RefinePasses})
		copy(mapping, st.Mapping())
		stats[li].RefineNs = time.Since(refineStart).Nanoseconds()
		stats[li].RefinePasses = rs.Passes
		stats[li].RefineSwaps = rs.Swaps
		stats[li].RefineProbes = rs.Probes
		stats[li].Exec = st.Exec()
		evaluations += rs.Probes
	}

	res := &Result{
		Mapping:     cost.Mapping(mapping),
		Exec:        stats[0].Exec,
		Iterations:  coarseRes.Iterations,
		Evaluations: evaluations,
		MappingTime: time.Since(start),
		StopReason:  coarseRes.StopReason,
		History:     coarseRes.History,
		Levels:      stats,
	}
	if !res.Mapping.IsPermutation() {
		return nil, fmt.Errorf("core: internal error — multilevel mapping is not a permutation")
	}
	return res, nil
}

// buildLadder coarsens eval until MinCoarse (or until matching stalls),
// returning the levels fine-to-coarse and a stats slice with the sizes
// and coarsening times filled in.
func buildLadder(eval *cost.Evaluator, mo MultilevelOptions) ([]mlLevel, []LevelStats, error) {
	levels := []mlLevel{{eval: eval}}
	stats := []LevelStats{{Tasks: eval.NumTasks(), Edges: len(eval.TIG().Edges())}}
	for {
		cur := levels[len(levels)-1].eval
		n := cur.NumTasks()
		if n <= mo.MinCoarse {
			break
		}
		coarsenStart := time.Now()
		tPairs := graph.HeavyEdgeMatching(cur.TIG().Undirected)
		rPairs := graph.CheapestLinkMatching(cur.Platform())
		k := len(tPairs)
		if len(rPairs) < k {
			k = len(rPairs)
		}
		// Abort on a stalled matching before clamping to MinCoarse: a
		// level that barely shrinks costs more projection error than it
		// saves in CE work.
		if k == 0 || float64(n-k) > mo.CoarsenRatio*float64(n) {
			break
		}
		if n-k < mo.MinCoarse {
			k = n - mo.MinCoarse
		}
		tc, err := graph.ContractionFromPairs(n, tPairs[:k])
		if err != nil {
			return nil, nil, err
		}
		rc, err := graph.ContractionFromPairs(n, rPairs[:k])
		if err != nil {
			return nil, nil, err
		}
		ctig, err := graph.ContractTIG(cur.TIG(), tc)
		if err != nil {
			return nil, nil, err
		}
		crg, err := graph.ContractPlatform(cur.Platform(), rc)
		if err != nil {
			return nil, nil, err
		}
		ceval, err := cost.NewEvaluator(ctig, crg)
		if err != nil {
			return nil, nil, err
		}
		levels[len(levels)-1].tmap = tc.Map
		levels[len(levels)-1].rmap = rc.Map
		stats[len(stats)-1].CoarsenNs = time.Since(coarsenStart).Nanoseconds()
		levels = append(levels, mlLevel{eval: ceval})
		stats = append(stats, LevelStats{Tasks: ceval.NumTasks(), Edges: len(ctig.Edges())})
	}
	// The coarse CE solve scores every sample on the coarsest level, and
	// the dense edge sweep is faster than the labelled lookup there, so
	// a block coarsest level is handed over as its dense expansion (64^2
	// floats at MinCoarse 64). The levels above keep the block form and
	// O(n + k^2) memory; the input level is never expanded.
	if last := len(levels) - 1; last > 0 && levels[last].eval.Platform().IsBlock() {
		expandStart := time.Now()
		coarsest := levels[last].eval
		dense, err := cost.NewEvaluator(coarsest.TIG(), coarsest.Platform().Dense())
		if err != nil {
			return nil, nil, err
		}
		levels[last].eval = dense
		stats[last-1].CoarsenNs += time.Since(expandStart).Nanoseconds()
	}
	return levels, stats, nil
}

// projectMapping lifts a coarse mapping one level up: fine task t wants a
// fine resource from the cluster its coarse task was mapped to. Cluster
// size mismatches (a 2-task cluster mapped to a 1-resource cluster, or
// vice versa) leave leftover tasks and free resources; the repair pass
// assigns the heaviest leftover tasks to the cheapest free resources —
// the per-task-optimal pairing under the processing-cost term W_t * w_s.
// The result is always a permutation.
func projectMapping(fineEval *cost.Evaluator, tmap, rmap, coarseMapping []int) []int {
	n := fineEval.NumTasks()
	cN := len(coarseMapping)
	// Fine members of each coarse resource, ascending.
	members := make([][]int, cN)
	for s := 0; s < n; s++ {
		members[rmap[s]] = append(members[rmap[s]], s)
	}
	cursor := make([]int, cN)
	fine := make([]int, n)
	var leftovers []int
	for t := 0; t < n; t++ {
		cs := coarseMapping[tmap[t]]
		if cursor[cs] < len(members[cs]) {
			fine[t] = members[cs][cursor[cs]]
			cursor[cs]++
		} else {
			fine[t] = -1
			leftovers = append(leftovers, t)
		}
	}
	if len(leftovers) == 0 {
		return fine
	}
	var free []int
	for cs := 0; cs < cN; cs++ {
		for i := cursor[cs]; i < len(members[cs]); i++ {
			free = append(free, members[cs][i])
		}
	}
	weights := fineEval.TIG().Weights
	costs := fineEval.Platform().Costs
	sort.Slice(leftovers, func(a, b int) bool {
		if weights[leftovers[a]] != weights[leftovers[b]] {
			return weights[leftovers[a]] > weights[leftovers[b]]
		}
		return leftovers[a] < leftovers[b]
	})
	sort.Slice(free, func(a, b int) bool {
		if costs[free[a]] != costs[free[b]] {
			return costs[free[a]] < costs[free[b]]
		}
		return free[a] < free[b]
	})
	for i, t := range leftovers {
		fine[t] = free[i]
	}
	return fine
}
