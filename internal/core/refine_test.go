package core

import (
	"slices"
	"sort"
	"testing"

	"matchsim/internal/cost"
	"matchsim/internal/gen"
	"matchsim/internal/xrand"
)

// refineUnscreened is cost.RefineSwaps without edge screening: every TIG
// edge is probed on every pass. It is the reference the screened kernel
// must match bit for bit.
func refineUnscreened(eval *cost.Evaluator, st *cost.State, maxPasses int) cost.RefineStats {
	const minGain = 1e-9
	var stats cost.RefineStats
	n := eval.NumTasks()
	type cand struct {
		i, j int
		gain float64
	}
	var cands []cand
	consider := func(i, j int, cur float64) {
		stats.Probes++
		if g := cur - st.ExecAfterSwap(i, j); g > minGain {
			cands = append(cands, cand{i, j, g})
		}
	}
	for pass := 0; pass < maxPasses; pass++ {
		stats.Passes++
		cur := st.Exec()
		loads := st.Loads()
		busiest := 0
		for s, l := range loads {
			if l > loads[busiest] {
				busiest = s
			}
		}
		hot := slices.Index(st.Mapping(), busiest)
		cands = cands[:0]
		for _, e := range eval.TIG().Edges() {
			consider(e.U, e.V, cur)
		}
		if hot >= 0 {
			for t := 0; t < n; t++ {
				if t != hot {
					consider(min(hot, t), max(hot, t), cur)
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
			if after := st.ExecAfterSwap(c.i, c.j); cur-after > minGain {
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

// refineBoth refines mapping with the screened kernel and the reference
// and fails unless mapping, makespan, loads, passes and swaps agree bit
// for bit. It returns the refined mapping and both probe counts.
func refineBoth(t *testing.T, eval *cost.Evaluator, mapping []int, passes int, label string) (refined []int, screened, full int64) {
	t.Helper()
	a, err := cost.NewState(eval, cost.Mapping(mapping))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cost.NewState(eval, cost.Mapping(mapping))
	if err != nil {
		t.Fatal(err)
	}
	sa := cost.RefineSwaps(a, cost.RefineOptions{MaxPasses: passes})
	sb := refineUnscreened(eval, b, passes)
	if !slices.Equal(a.Mapping(), b.Mapping()) || a.Exec() != b.Exec() || !slices.Equal(a.Loads(), b.Loads()) {
		t.Fatalf("%s: screened refinement diverged: exec %v vs %v", label, a.Exec(), b.Exec())
	}
	if sa.Passes != sb.Passes || sa.Swaps != sb.Swaps {
		t.Fatalf("%s: screened %d passes/%d swaps, unscreened %d/%d", label, sa.Passes, sa.Swaps, sb.Passes, sb.Swaps)
	}
	if sa.Probes > sb.Probes {
		t.Fatalf("%s: screened refinement ran %d probes, more than the unscreened %d", label, sa.Probes, sb.Probes)
	}
	return slices.Clone(a.Mapping()), sa.Probes, sb.Probes
}

// TestRefineScreeningMatchesUnscreened holds the screened RefineSwaps to
// the unscreened loop on every level of the n=1024 LargeInstance ladder
// (random starts and the uncoarsening chain of projected mappings) and on
// paper instances: same mappings, makespans, passes and swaps, with fewer
// probes.
func TestRefineScreeningMatchesUnscreened(t *testing.T) {
	inst, err := gen.LargeInstance(2005, 1024, gen.LargeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eval, err := cost.NewEvaluator(inst.TIG, inst.Platform)
	if err != nil {
		t.Fatal(err)
	}
	mo := MultilevelOptions{MinCoarse: 64}.withDefaults()
	levels, _, err := buildLadder(eval, mo)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	var screened, full int64
	for li, lvl := range levels {
		_, s, f := refineBoth(t, lvl.eval, rng.Perm(lvl.eval.NumTasks()), mo.RefinePasses, "random start")
		screened, full = screened+s, full+f
		t.Logf("level %d (n=%d): %d probes screened, %d unscreened", li, lvl.eval.NumTasks(), s, f)
	}
	mapping := rng.Perm(levels[len(levels)-1].eval.NumTasks())
	for li := len(levels) - 2; li >= 0; li-- {
		lvl := levels[li]
		var s, f int64
		mapping, s, f = refineBoth(t, lvl.eval, projectMapping(lvl.eval, lvl.tmap, lvl.rmap, mapping), mo.RefinePasses, "projected")
		screened, full = screened+s, full+f
	}
	t.Logf("n=1024 ladder (%d levels): %d probes screened, %d unscreened", len(levels), screened, full)
	if screened >= full {
		t.Errorf("screening saved no probes on the n=1024 ladder (%d vs %d)", screened, full)
	}

	for _, n := range []int{16, 32, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			eval := paperEval(t, seed, n)
			refineBoth(t, eval, xrand.New(seed+100).Perm(n), 8, "paper instance")
		}
	}
}
