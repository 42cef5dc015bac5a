package cost

import "sort"

// RefineOptions tunes RefineSwaps.
type RefineOptions struct {
	// MaxPasses caps the number of improvement passes; default 8.
	MaxPasses int
	// MinGain is the smallest makespan improvement worth applying;
	// default 1e-9 (absolute), guarding against float-noise swap cycles.
	MinGain float64
}

func (o RefineOptions) withDefaults() RefineOptions {
	if o.MaxPasses == 0 {
		o.MaxPasses = 8
	}
	if o.MinGain == 0 {
		o.MinGain = 1e-9
	}
	return o
}

// RefineStats reports the work one RefineSwaps call performed.
type RefineStats struct {
	// Passes run (at most MaxPasses; the last one found no swap).
	Passes int
	// Swaps applied across all passes.
	Swaps int
	// Probes is the number of ExecAfterSwap evaluations actually run
	// (screened-out edges are not probed) — the search-effort unit
	// comparable to solver Evaluations.
	Probes int64
}

// RefineSwaps improves a bijective mapping in place by pass-based 2-swap
// local search over the epoch-stamped ExecAfterSwap delta evaluator — the
// uncoarsening refinement kernel of the multilevel pipeline. Each pass
// probes a focused candidate set instead of all n^2/2 pairs:
//
//   - the endpoints of every TIG edge (swapping communicating tasks moves
//     communication volume between links), and
//   - the task on the busiest resource paired with every other task
//     (directly attacking the makespan's argmax term).
//
// An edge is screened before it is probed. A swap leaves the load of
// every resource it does not touch unchanged, so its makespan is at
// least the busiest resource's load — the current makespan — unless it
// touches that resource: one of its endpoints is hosted there or is a
// TIG neighbour of a task hosted there. Every other edge has no gain and
// is skipped without a probe, which leaves the candidates, and so the
// result, exactly those of probing every edge.
//
// Positive-gain candidates are applied best-gain-first, each re-validated
// against the current state before committing (earlier swaps in the pass
// invalidate later estimates). The search stops after a pass that commits
// no swap, or after MaxPasses. The makespan never increases.
func RefineSwaps(st *State, opts RefineOptions) RefineStats {
	opts = opts.withDefaults()
	var stats RefineStats
	n := st.eval.n
	if n < 2 {
		return stats
	}
	type cand struct {
		i, j int
		gain float64
	}
	cands := make([]cand, 0, len(st.eval.edges)+n)
	// near[t] == pass+1 marks task t as hosted on this pass's busiest
	// resource or adjacent to a task that is.
	near := make([]int, n)
	for pass := 0; pass < opts.MaxPasses; pass++ {
		stats.Passes++
		cur := st.Exec()

		// Busiest resource's task: bijective mappings place exactly one
		// task per resource, so a linear scan recovers it.
		busiest := 0
		for s, l := range st.loads {
			if l > st.loads[busiest] {
				busiest = s
			}
		}
		hot := -1
		mark := pass + 1
		for t, s := range st.mapping {
			if s != busiest {
				continue
			}
			if hot < 0 {
				hot = t
			}
			near[t] = mark
			for _, nb := range st.eval.tig.Neighbors(t) {
				near[nb.To] = mark
			}
		}

		cands = cands[:0]
		for _, e := range st.eval.edges {
			i, j := int(e.u), int(e.v)
			if near[i] != mark && near[j] != mark {
				continue // touches neither the busiest resource nor its tasks' links
			}
			stats.Probes++
			if g := cur - st.ExecAfterSwap(i, j); g > opts.MinGain {
				cands = append(cands, cand{i, j, g})
			}
		}
		if hot >= 0 {
			for t := 0; t < n; t++ {
				if t == hot {
					continue
				}
				i, j := hot, t
				if i > j {
					i, j = j, i
				}
				stats.Probes++
				if g := cur - st.ExecAfterSwap(i, j); g > opts.MinGain {
					cands = append(cands, cand{i, j, g})
				}
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].gain != cands[b].gain {
				return cands[a].gain > cands[b].gain
			}
			if cands[a].i != cands[b].i {
				return cands[a].i < cands[b].i
			}
			return cands[a].j < cands[b].j
		})

		applied := 0
		for _, c := range cands {
			stats.Probes++
			if after := st.ExecAfterSwap(c.i, c.j); cur-after > opts.MinGain {
				st.Swap(c.i, c.j)
				cur = after
				applied++
				stats.Swaps++
			}
		}
		if applied == 0 {
			break
		}
	}
	return stats
}
