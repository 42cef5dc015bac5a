package verify

import (
	"math"
	"runtime"
	"testing"

	"matchsim/internal/ce"
	"matchsim/internal/core"
	"matchsim/internal/stochmat"
	"matchsim/internal/xrand"
)

// randomStochasticRows builds n random row-stochastic rows.
func randomStochasticRows(rng *xrand.RNG, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, n)
		total := 0.0
		for j := range row {
			row[j] = 0.05 + rng.Float64()
			total += row[j]
		}
		for j := range row {
			row[j] /= total
		}
		rows[i] = row
	}
	return rows
}

// newMatrix builds a matrix from rows and returns it together with a
// snapshot of its actual (renormalised) rows — the canonical pre-op
// state both the production path and the checker must see.
func newMatrix(t *testing.T, rows [][]float64) (*stochmat.Matrix, [][]float64) {
	t.Helper()
	m, err := stochmat.NewFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	snap := make([][]float64, m.Rows())
	for i := range snap {
		snap[i] = append([]float64(nil), m.Row(i)...)
	}
	return m, snap
}

// productionBlend applies the island blend exactly as core's blendRows
// does — two explicit roundings per entry, peers folded left to right,
// SetRow normalisation — in place on m, whose pre-blend rows are own.
func productionBlend(t *testing.T, m *stochmat.Matrix, own [][]float64, peers [][][]float64, alpha float64) {
	t.Helper()
	n := len(own)
	w := alpha / float64(len(peers))
	buf := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for _, rows := range peers {
				acc += rows[i][j]
			}
			a := (1 - alpha) * own[i][j]
			b := w * acc
			buf[j] = a + b
		}
		if err := m.SetRow(i, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckBlend: the checker accepts blends produced by the production
// composition and rejects a single perturbed entry.
func TestCheckBlend(t *testing.T) {
	rng := xrand.New(5)
	for _, n := range []int{4, 9, 16} {
		for _, alpha := range []float64{0.05, 0.2, 0.5} {
			for _, numPeers := range []int{1, 2, 3} {
				// The matrix constructor renormalises rows, so the canonical
				// pre-blend state is the matrix's own rows, not the raw input.
				blended, own := newMatrix(t, randomStochasticRows(rng, n))
				peers := make([][][]float64, numPeers)
				for g := range peers {
					peers[g] = randomStochasticRows(rng, n)
				}
				productionBlend(t, blended, own, peers, alpha)
				if err := CheckBlend(own, peers, alpha, blended); err != nil {
					t.Fatalf("n=%d alpha=%v peers=%d: checker rejected a production blend: %v",
						n, alpha, numPeers, err)
				}
				// Flip one bit of one entry: the checker must notice.
				row := blended.Row(0)
				perturbed := append([]float64(nil), row...)
				perturbed[1] = math.Nextafter(perturbed[1], 2)
				if err := blended.SetRow(0, perturbed); err != nil {
					t.Fatal(err)
				}
				if err := CheckBlend(own, peers, alpha, blended); err == nil {
					t.Fatalf("n=%d alpha=%v peers=%d: checker accepted a perturbed blend", n, alpha, numPeers)
				}
			}
		}
	}
}

// productionInject applies elite migration exactly as core's injectElite
// does — migrant frequencies SetRow-normalised into Q, then eq. (13)
// smoothing into P — in place on p.
func productionInject(t *testing.T, p *stochmat.Matrix, migrants [][]int, zeta float64) {
	t.Helper()
	n := p.Rows()
	q := stochmat.NewUniform(n, n)
	counts := make([]float64, n*n)
	inv := 1 / float64(len(migrants))
	for _, m := range migrants {
		for task, res := range m {
			counts[task*n+res] += inv
		}
	}
	for i := 0; i < n; i++ {
		if err := q.SetRow(i, counts[i*n:(i+1)*n]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Smooth(q, zeta); err != nil {
		t.Fatal(err)
	}
}

func randomPermutation(rng *xrand.RNG, n int) []int {
	return rng.Perm(n)
}

// TestCheckInjection: the checker accepts production migrations and
// rejects perturbed matrices and invalid migrants.
func TestCheckInjection(t *testing.T) {
	rng := xrand.New(9)
	for _, n := range []int{4, 8, 12} {
		for _, zeta := range []float64{0.1, 0.3, 0.7} {
			raw := randomStochasticRows(rng, n)
			// As in TestCheckBlend: the checker's prior is the matrix's
			// renormalised rows, snapshotted before the injection mutates it.
			updated, prior := newMatrix(t, raw)
			migrants := [][]int{
				randomPermutation(rng, n),
				randomPermutation(rng, n),
				randomPermutation(rng, n),
			}
			productionInject(t, updated, migrants, zeta)
			if err := CheckInjection(prior, migrants, zeta, updated); err != nil {
				t.Fatalf("n=%d zeta=%v: checker rejected a production injection: %v", n, zeta, err)
			}
			// Perturb the updated matrix by one ulp.
			row := append([]float64(nil), updated.Row(1)...)
			row[0] = math.Nextafter(row[0], 2)
			if err := updated.SetRow(1, row); err != nil {
				t.Fatal(err)
			}
			if err := CheckInjection(prior, migrants, zeta, updated); err == nil {
				t.Fatalf("n=%d zeta=%v: checker accepted a perturbed injection", n, zeta)
			}
			// A non-permutation migrant must be rejected outright.
			bad := append([]int(nil), migrants[0]...)
			bad[0] = bad[1]
			fresh, _ := newMatrix(t, raw)
			productionInject(t, fresh, migrants, zeta)
			if err := CheckInjection(prior, [][]int{bad}, zeta, fresh); err == nil {
				t.Fatal("checker accepted a duplicate-resource migrant")
			}
		}
	}
}

// TestIslandDeterminism is the island-model determinism suite: per
// (seed, topology, island count) the full ensemble trajectory — mapping,
// exec, and every island's per-iteration search statistics — must be
// bit-identical whether the islands' sampling pools run 1, 2 or
// GOMAXPROCS workers.
func TestIslandDeterminism(t *testing.T) {
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, topo := range []string{"ring", "all"} {
		for _, count := range []int{2, 3} {
			for _, seed := range []uint64{3, 14} {
				_, _, eval := paperInstance(t, 31, 18)
				solve := func(workers int) *core.Result {
					res, err := core.Solve(eval, core.Options{
						Seed:          seed,
						Workers:       workers,
						MaxIterations: 24,
						Islands: &core.IslandOptions{
							Count:        count,
							Topology:     topo,
							MigrateEvery: 4,
							MigrantCount: 2,
							BlendAlpha:   0.15,
						},
					})
					if err != nil {
						t.Fatalf("topo=%s I=%d seed=%d workers=%d: %v", topo, count, seed, workers, err)
					}
					return res
				}
				ref := solve(workerCounts[0])
				if err := CheckPermutation(ref.Mapping); err != nil {
					t.Fatal(err)
				}
				// The merged history interleaves islands; each island's own
				// trajectory must satisfy the single-run invariants.
				perIsland := make([][]ce.IterStats, count)
				for _, it := range ref.History {
					perIsland[it.Island] = append(perIsland[it.Island], it)
				}
				for g, h := range perIsland {
					if err := CheckHistory(h); err != nil {
						t.Fatalf("topo=%s I=%d seed=%d island %d: %v", topo, count, seed, g, err)
					}
				}
				for _, w := range workerCounts[1:] {
					got := solve(w)
					if math.Float64bits(got.Exec) != math.Float64bits(ref.Exec) {
						t.Fatalf("topo=%s I=%d seed=%d workers=%d: exec %v != reference %v",
							topo, count, seed, w, got.Exec, ref.Exec)
					}
					for i, m := range got.Mapping {
						if m != ref.Mapping[i] {
							t.Fatalf("topo=%s I=%d seed=%d workers=%d: mapping diverges at task %d",
								topo, count, seed, w, i)
						}
					}
					if len(got.History) != len(ref.History) {
						t.Fatalf("topo=%s I=%d seed=%d workers=%d: history length %d != %d",
							topo, count, seed, w, len(got.History), len(ref.History))
					}
					for i := range got.History {
						if !sameSearchStats(got.History[i], ref.History[i]) {
							t.Fatalf("topo=%s I=%d seed=%d workers=%d: history[%d] diverges:\n%+v\n%+v",
								topo, count, seed, w, i, got.History[i], ref.History[i])
						}
					}
				}
			}
		}
	}
}

// sameSearchStats compares the deterministic search-trajectory fields of
// two iteration records bit for bit (wall-clock timings and steal
// counters legitimately differ across worker counts).
func sameSearchStats(a, b ce.IterStats) bool {
	return a.Iter == b.Iter &&
		a.Island == b.Island &&
		math.Float64bits(a.Gamma) == math.Float64bits(b.Gamma) &&
		math.Float64bits(a.Best) == math.Float64bits(b.Best) &&
		math.Float64bits(a.BestSoFar) == math.Float64bits(b.BestSoFar) &&
		a.EliteCount == b.EliteCount &&
		a.Draws == b.Draws &&
		a.MigrantsIn == b.MigrantsIn &&
		a.MigrantsOut == b.MigrantsOut &&
		a.BlendRounds == b.BlendRounds
}
