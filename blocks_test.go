package matchsim

import (
	"math"
	"slices"
	"testing"

	"matchsim/internal/cost"
	"matchsim/internal/gen"
	"matchsim/internal/graph"
	"matchsim/internal/heuristics"
	"matchsim/internal/xrand"
)

// denseExpansion returns the dense platform with p's costs, name and
// p.LinkCost for every pair of distinct resources: what a hierarchical
// platform was before it kept block labels.
func denseExpansion(t *testing.T, p *graph.ResourceGraph) *graph.ResourceGraph {
	t.Helper()
	d := p.Dense()
	if d.IsBlock() || d.N() != p.N() || !sameBits(d.Costs, p.Costs) || d.Name != p.Name {
		t.Fatalf("dense expansion of %q is not a dense copy", p.Name)
	}
	for s := 0; s < p.N(); s++ {
		for b := 0; b < p.N(); b++ {
			if math.Float64bits(d.LinkCost(s, b)) != math.Float64bits(p.LinkCost(s, b)) {
				t.Fatalf("dense expansion of %q: link (%d,%d) costs %v, want %v", p.Name, s, b, d.LinkCost(s, b), p.LinkCost(s, b))
			}
		}
	}
	return d
}

// sameBits reports whether two float slices agree bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestBlockPlatformMatchesDenseExpansion: on hierarchical LargeInstance
// platforms at n = 96, 256 and 1024, the block platform and its dense
// expansion give the same bits from every scorer and solver step that
// reads link costs: Loads and Exec (bijective and co-located mappings),
// ExecAfterSwap and Swap, RefineSwaps, LowerBound, Greedy, the platform
// coarsening step, and a multilevel SolveMaTCH (mapping, ET, iterations
// and every level's statistics but its wall times).
func TestBlockPlatformMatchesDenseExpansion(t *testing.T) {
	for _, n := range []int{96, 256, 1024} {
		inst, err := gen.LargeInstance(uint64(n)+11, n, gen.LargeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		block := inst.Platform
		if !block.IsBlock() {
			t.Fatalf("n=%d: LargeInstance platform is not a block platform", n)
		}
		dense := denseExpansion(t, block)
		eb, err := cost.NewEvaluator(inst.TIG, block)
		if err != nil {
			t.Fatal(err)
		}
		ed, err := cost.NewEvaluator(inst.TIG, dense)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(uint64(n))

		for i := 0; i < 20; i++ {
			m := cost.Mapping(rng.Perm(n))
			if i%2 == 1 {
				// Many tasks per resource: co-located edges cost nothing.
				for t := range m {
					m[t] = rng.Intn(n/16 + 1)
				}
			}
			if lb, ld := eb.Loads(m, nil), ed.Loads(m, nil); !sameBits(lb, ld) {
				t.Fatalf("n=%d mapping %d: Loads differ", n, i)
			}
			if math.Float64bits(eb.Exec(m)) != math.Float64bits(ed.Exec(m)) {
				t.Fatalf("n=%d mapping %d: Exec %v vs %v", n, i, eb.Exec(m), ed.Exec(m))
			}
			xb, xd := eb.Explain(m), ed.Explain(m)
			if !sameBits(xb.Comm, xd.Comm) || xb.Busiest != xd.Busiest {
				t.Fatalf("n=%d mapping %d: Explain differs", n, i)
			}
		}

		start := cost.Mapping(rng.Perm(n))
		sb, err := cost.NewState(eb, start)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := cost.NewState(ed, start)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			t1, t2 := rng.Intn(n), rng.Intn(n)
			if xb, xd := sb.ExecAfterSwap(t1, t2), sd.ExecAfterSwap(t1, t2); math.Float64bits(xb) != math.Float64bits(xd) {
				t.Fatalf("n=%d swap %d: ExecAfterSwap %v vs %v", n, i, xb, xd)
			}
			sb.Swap(t1, t2)
			sd.Swap(t1, t2)
			if !sameBits(sb.Loads(), sd.Loads()) {
				t.Fatalf("n=%d swap %d: loads differ after Swap", n, i)
			}
		}
		rb, rd := cost.RefineSwaps(sb, cost.RefineOptions{}), cost.RefineSwaps(sd, cost.RefineOptions{})
		if rb != rd || !slices.Equal(sb.Mapping(), sd.Mapping()) || math.Float64bits(sb.Exec()) != math.Float64bits(sd.Exec()) {
			t.Fatalf("n=%d: RefineSwaps %+v ET %v vs %+v ET %v", n, rb, sb.Exec(), rd, sd.Exec())
		}

		if lb, ld := cost.LowerBound(eb), cost.LowerBound(ed); math.Float64bits(lb) != math.Float64bits(ld) {
			t.Fatalf("n=%d: LowerBound %v vs %v", n, lb, ld)
		}
		gb, err := heuristics.Greedy(eb)
		if err != nil {
			t.Fatal(err)
		}
		gd, err := heuristics.Greedy(ed)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gb.Mapping, gd.Mapping) || math.Float64bits(gb.Exec) != math.Float64bits(gd.Exec) {
			t.Fatalf("n=%d: Greedy ET %v vs %v", n, gb.Exec, gd.Exec)
		}

		pairs := graph.CheapestLinkMatching(block)
		if !slices.Equal(pairs, graph.CheapestLinkMatching(dense)) {
			t.Fatalf("n=%d: cheapest-link matchings differ", n)
		}
		c, err := graph.ContractionFromPairs(n, pairs)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := graph.ContractPlatform(block, c)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := graph.ContractPlatform(dense, c)
		if err != nil {
			t.Fatal(err)
		}
		if !cb.IsBlock() || !sameBits(cb.Costs, cd.Costs) || cb.N() != cd.N() {
			t.Fatalf("n=%d: coarse platforms differ (block form %v)", n, cb.IsBlock())
		}
		for a := 0; a < cb.N(); a++ {
			for b := 0; b < cb.N(); b++ {
				if xb, xd := cb.LinkCost(a, b), cd.LinkCost(a, b); math.Float64bits(xb) != math.Float64bits(xd) {
					t.Fatalf("n=%d: coarse link (%d,%d) costs %v on the block platform, %v on the dense one", n, a, b, xb, xd)
				}
			}
		}

		opts := MaTCHOptions{Seed: uint64(n), Workers: 2, MaxIterations: 8,
			Multilevel: &MultilevelOptions{MinCoarse: 32}}
		mb, err := SolveMaTCH(&Problem{eval: eb}, opts)
		if err != nil {
			t.Fatal(err)
		}
		md, err := SolveMaTCH(&Problem{eval: ed}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(mb.Levels) < 2 {
			t.Fatalf("n=%d: multilevel solve ran %d levels", n, len(mb.Levels))
		}
		if !slices.Equal(mb.Mapping, md.Mapping) || math.Float64bits(mb.Exec) != math.Float64bits(md.Exec) ||
			mb.Iterations != md.Iterations || len(mb.Levels) != len(md.Levels) {
			t.Fatalf("n=%d: multilevel ET %v (%d iterations, %d levels) vs %v (%d, %d)", n,
				mb.Exec, mb.Iterations, len(mb.Levels), md.Exec, md.Iterations, len(md.Levels))
		}
		for i := range mb.Levels {
			lb, ld := mb.Levels[i], md.Levels[i]
			lb.CoarsenNs, lb.SolveNs, lb.RefineNs = 0, 0, 0
			ld.CoarsenNs, ld.SolveNs, ld.RefineNs = 0, 0, 0
			if lb != ld {
				t.Fatalf("n=%d level %d: %+v vs %+v", n, i, lb, ld)
			}
		}
	}
}
