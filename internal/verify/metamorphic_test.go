package verify

import (
	"math"
	"testing"

	"matchsim/internal/cost"
	"matchsim/internal/xrand"
)

// TestRelabelPreservesExec: renaming tasks and resources is a change of
// coordinates — the conjugated mapping must have bit-identical Exec and
// (renamed) loads on both the oracle and the production evaluator.
func TestRelabelPreservesExec(t *testing.T) {
	rng := xrand.New(21)
	for _, n := range []int{4, 9, 16, 33} {
		for seed := uint64(1); seed <= 6; seed++ {
			tig, platform, eval := paperInstance(t, seed, n)
			taskPerm := rng.Perm(n)
			resPerm := rng.Perm(n)
			rtig, rplat, err := Relabel(tig, platform, taskPerm, resPerm)
			if err != nil {
				t.Fatalf("Relabel: %v", err)
			}
			reval, err := cost.NewEvaluator(rtig, rplat)
			if err != nil {
				t.Fatalf("NewEvaluator(relabeled): %v", err)
			}
			for _, m := range testMappings(rng, n, 3) {
				cm := ConjugateMapping(m, taskPerm, resPerm)
				if err := CheckPermutation(cm); err != nil {
					t.Fatalf("conjugated mapping: %v", err)
				}
				origLoads, err := RefLoads(tig, platform, m)
				if err != nil {
					t.Fatalf("RefLoads: %v", err)
				}
				relLoads, err := RefLoads(rtig, rplat, cm)
				if err != nil {
					t.Fatalf("RefLoads(relabeled): %v", err)
				}
				for s := range origLoads {
					if !sameBits(origLoads[s], relLoads[resPerm[s]]) {
						t.Fatalf("n=%d seed=%d: load of resource %d changed under relabeling: %v != %v",
							n, seed, s, origLoads[s], relLoads[resPerm[s]])
					}
				}
				if a, b := eval.Exec(m), reval.Exec(cm); !sameBits(a, b) {
					t.Fatalf("n=%d seed=%d: Exec changed under relabeling: %v != %v", n, seed, a, b)
				}
			}
		}
	}
}

// TestScaleWeightsScalesExec: eq. (1) is linear in W and C, so scaling
// both by alpha scales Exec_s and Exec by alpha — bit-exactly for
// power-of-two alpha, to relative tolerance otherwise.
func TestScaleWeightsScalesExec(t *testing.T) {
	rng := xrand.New(31)
	for _, n := range []int{5, 12, 24} {
		tig, platform, eval := paperInstance(t, uint64(n), n)
		for _, alpha := range []float64{2, 0.25, 1024, 3.5, 0.1} {
			stig, err := ScaleWeights(tig, alpha)
			if err != nil {
				t.Fatalf("ScaleWeights: %v", err)
			}
			seval, err := cost.NewEvaluator(stig, platform)
			if err != nil {
				t.Fatalf("NewEvaluator(scaled): %v", err)
			}
			exact := math.Exp2(math.Round(math.Log2(alpha))) == alpha
			for _, m := range testMappings(rng, n, 2) {
				want := eval.Exec(m) * alpha
				got := seval.Exec(m)
				if exact {
					if !sameBits(got, want) {
						t.Fatalf("n=%d alpha=%v: scaled exec %v != %v * original", n, alpha, got, alpha)
					}
				} else if !relClose(got, want, 1e-12) {
					t.Fatalf("n=%d alpha=%v: scaled exec %v !~ %v", n, alpha, got, want)
				}
				ref, err := RefExec(stig, platform, m)
				if err != nil {
					t.Fatalf("RefExec(scaled): %v", err)
				}
				if !sameBits(got, ref) {
					t.Fatalf("scaled instance disagrees with oracle: %v != %v", got, ref)
				}
			}
		}
	}
}

// TestZeroWeightEdgesAreNoOps: adding zero-weight TIG edges must leave
// every mapping's loads and Exec bit-identical, on the oracle and on the
// production scorer (its packed, branch-free edge sweep walks the extra
// edges).
func TestZeroWeightEdgesAreNoOps(t *testing.T) {
	rng := xrand.New(41)
	for _, n := range []int{4, 10, 20} {
		tig, platform, eval := paperInstance(t, uint64(n)+50, n)
		ztig, added, err := AddZeroEdges(tig, n, rng)
		if err != nil {
			t.Fatalf("AddZeroEdges: %v", err)
		}
		if added == 0 {
			t.Fatalf("n=%d: no zero edges added (graph complete?)", n)
		}
		zeval, err := cost.NewEvaluator(ztig, platform)
		if err != nil {
			t.Fatalf("NewEvaluator(zero-edged): %v", err)
		}
		for _, m := range testMappings(rng, n, 3) {
			a, b := eval.Exec(m), zeval.Exec(m)
			if !sameBits(a, b) {
				t.Fatalf("n=%d: Exec changed by zero edges: %v != %v", n, a, b)
			}
			ref, err := RefExec(ztig, platform, m)
			if err != nil {
				t.Fatalf("RefExec: %v", err)
			}
			if !sameBits(ref, a) {
				t.Fatalf("n=%d: oracle changed by zero edges: %v != %v", n, ref, a)
			}
		}
	}
}
