package stochmat

import (
	"testing"

	"matchsim/internal/xrand"
)

// randomCountsRow builds a sparse elite-count row: k nonzero columns with
// positive integer-grained masses, plus its ascending support list.
func randomCountsRow(rng *xrand.RNG, cols, k int) ([]float64, []int32) {
	counts := make([]float64, cols)
	var sup []int32
	for _, c := range rng.SampleWithoutReplacement(cols, k) {
		counts[c] = float64(rng.IntRange(1, 20)) / 20
		sup = append(sup, int32(c))
	}
	for i := 1; i < len(sup); i++ {
		for j := i; j > 0 && sup[j] < sup[j-1]; j-- {
			sup[j], sup[j-1] = sup[j-1], sup[j]
		}
	}
	return counts, sup
}

// TestEliteUpdateRowSparseDenseBitIdentical: the tracked O(nnz) union
// evaluation and the untracked full-column evaluation of EliteUpdateRow
// must produce bit-identical rows, whatever the truncation eps.
func TestEliteUpdateRowSparseDenseBitIdentical(t *testing.T) {
	const cols = 48
	rng := xrand.New(99)
	for trial := 0; trial < 50; trial++ {
		dense := NewUniform(cols, cols)
		sparse := NewUniform(cols, cols)
		sparse.TrackSupport(cols)
		for _, eps := range []float64{0, 1e-6, 1e-3, 0.05} {
			// Several rounds so truncation-created zeros feed back into the
			// support lists.
			for round := 0; round < 6; round++ {
				i := rng.Intn(cols)
				counts, sup := randomCountsRow(rng, cols, 1+rng.Intn(6))
				cd, errD := dense.EliteUpdateRow(i, counts, nil, 0.3, eps)
				cs, errS := sparse.EliteUpdateRow(i, counts, sup, 0.3, eps)
				if errD != nil || errS != nil {
					t.Fatalf("update failed: %v / %v", errD, errS)
				}
				if cd != cs {
					t.Fatalf("trial %d eps %g: changed flag differs (%v vs %v)", trial, eps, cd, cs)
				}
				dr, sr := dense.Row(i), sparse.Row(i)
				for j := range dr {
					if dr[j] != sr[j] {
						t.Fatalf("trial %d eps %g row %d col %d: dense %v != sparse %v",
							trial, eps, i, j, dr[j], sr[j])
					}
				}
				if dense.RowVersion(i) != sparse.RowVersion(i) {
					t.Fatalf("trial %d: version diverged (%d vs %d)",
						trial, dense.RowVersion(i), sparse.RowVersion(i))
				}
			}
		}
	}
}

// TestEliteUpdateRowZeroEpsMatchesSmooth: with eps = 0 the fused kernel
// must reproduce the legacy SetRow+Smooth row bits exactly.
func TestEliteUpdateRowZeroEpsMatchesSmooth(t *testing.T) {
	const cols = 32
	rng := xrand.New(5)
	legacyP := NewUniform(cols, cols)
	legacyQ := NewUniform(cols, cols)
	fused := NewUniform(cols, cols)
	for round := 0; round < 20; round++ {
		countsAll := make([][]float64, cols)
		for i := 0; i < cols; i++ {
			counts, _ := randomCountsRow(rng, cols, 1+rng.Intn(5))
			countsAll[i] = counts
		}
		for i := 0; i < cols; i++ {
			if err := legacyQ.SetRow(i, countsAll[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := legacyP.Smooth(legacyQ, 0.3); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cols; i++ {
			if _, err := fused.EliteUpdateRow(i, countsAll[i], nil, 0.3, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < cols; i++ {
			lr, fr := legacyP.Row(i), fused.Row(i)
			for j := range lr {
				if lr[j] != fr[j] {
					t.Fatalf("round %d row %d col %d: legacy %v != fused %v", round, i, j, lr[j], fr[j])
				}
			}
		}
	}
}

// TestEliteUpdateRowOneHotFixpoint: a fully converged one-hot row updated
// with matching counts must not change (and not bump its version) — the
// exact fixed point that lets table rebuilds skip converged rows.
func TestEliteUpdateRowOneHotFixpoint(t *testing.T) {
	m := NewUniform(8, 8)
	m.TrackSupport(8)
	row := make([]float64, 8)
	row[3] = 1
	if err := m.SetRow(2, row); err != nil {
		t.Fatal(err)
	}
	before := m.RowVersion(2)
	counts := make([]float64, 8)
	counts[3] = 0.25 // any positive mass on the same column
	changed, err := m.EliteUpdateRow(2, counts, []int32{3}, 0.3, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatalf("one-hot row reported a change")
	}
	if got := m.RowVersion(2); got != before {
		t.Fatalf("version bumped %d -> %d on a no-op update", before, got)
	}
	if sup, ok := m.RowSupport(2); !ok || len(sup) != 1 || sup[0] != 3 {
		t.Fatalf("support = %v, %v; want [3], true", sup, ok)
	}
}

// TestEliteUpdateRowTruncationCreatesZeros: small entries below
// eps * rowmax must become exactly zero and leave the support.
func TestEliteUpdateRowTruncationCreatesZeros(t *testing.T) {
	const cols = 16
	m := NewUniform(cols, cols)
	m.TrackSupport(cols)
	counts := make([]float64, cols)
	counts[0] = 1
	// Drive row 0 towards one-hot; with zeta=0.5 and eps=0.01 the uniform
	// residue decays below the cut within a few rounds.
	for round := 0; round < 12; round++ {
		if _, err := m.EliteUpdateRow(0, counts, []int32{0}, 0.5, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	row := m.Row(0)
	if row[0] != 1 {
		t.Fatalf("converged row has p[0] = %v, want exactly 1", row[0])
	}
	for j := 1; j < cols; j++ {
		if row[j] != 0 {
			t.Fatalf("entry %d = %v, want exact 0 after truncation", j, row[j])
		}
	}
	if sup, ok := m.RowSupport(0); !ok || len(sup) != 1 {
		t.Fatalf("support %v, %v; want single-column support", sup, ok)
	}
}

// TestAliasRebuildSkipsUnchangedRows: rebuilding from a matrix whose rows
// did not change must skip every row; changing one row must rebuild
// exactly that row.
func TestAliasRebuildSkipsUnchangedRows(t *testing.T) {
	m := NewUniform(10, 10)
	at := NewAliasTable(m)
	at.TakeBuildStats()

	at.Rebuild(m)
	rebuilt, skipped := at.TakeBuildStats()
	if rebuilt != 0 || skipped != 10 {
		t.Fatalf("no-change rebuild: rebuilt %d skipped %d, want 0/10", rebuilt, skipped)
	}

	row := make([]float64, 10)
	for j := range row {
		row[j] = float64(j + 1)
	}
	if err := m.SetRow(4, row); err != nil {
		t.Fatal(err)
	}
	at.Rebuild(m)
	rebuilt, skipped = at.TakeBuildStats()
	if rebuilt != 1 || skipped != 9 {
		t.Fatalf("one-row change: rebuilt %d skipped %d, want 1/9", rebuilt, skipped)
	}

	// Rewriting a row with identical values must not dirty it.
	if err := m.SetRow(4, row); err != nil {
		t.Fatal(err)
	}
	at.Rebuild(m)
	rebuilt, skipped = at.TakeBuildStats()
	if rebuilt != 0 || skipped != 10 {
		t.Fatalf("idempotent SetRow: rebuilt %d skipped %d, want 0/10", rebuilt, skipped)
	}
}

// TestAliasRebuildDetectsMatrixSwap: a table rebuilt against a different
// matrix (same shape, same nominal versions) must refresh every row —
// the checkpoint-restore scenario.
func TestAliasRebuildDetectsMatrixSwap(t *testing.T) {
	a := NewUniform(6, 6)
	at := NewAliasTable(a)

	b := NewUniform(6, 6)
	row := make([]float64, 6)
	row[2] = 1
	if err := b.SetRow(0, row); err != nil {
		t.Fatal(err)
	}
	at.TakeBuildStats()
	at.Rebuild(b)
	rebuilt, _ := at.TakeBuildStats()
	if rebuilt != 6 {
		t.Fatalf("matrix swap rebuilt %d rows, want all 6", rebuilt)
	}
	rng := xrand.New(1)
	for i := 0; i < 200; i++ {
		if c := at.Sample(0, rng); c != 2 {
			t.Fatalf("sample from swapped one-hot row returned %d, want 2", c)
		}
	}
}

// TestAliasCompactedZeroRows: a row with zeros draws only from its
// support, through both Sample and the fast permutation sampler's row
// totals, and the support-compacted table matches the row distribution.
func TestAliasCompactedZeroRows(t *testing.T) {
	m := NewUniform(5, 5)
	if err := m.SetRow(1, []float64{0, 3, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	for _, tracked := range []bool{false, true} {
		if tracked {
			m.TrackSupport(5)
		}
		at := NewAliasTable(m)
		rng := xrand.New(7)
		counts := map[int]int{}
		for i := 0; i < 4000; i++ {
			counts[at.Sample(1, rng)]++
		}
		if counts[0]+counts[2]+counts[4] != 0 {
			t.Fatalf("tracked=%v: zero-weight columns drawn: %v", tracked, counts)
		}
		ratio := float64(counts[1]) / float64(counts[3])
		if ratio < 2.5 || ratio > 3.6 {
			t.Fatalf("tracked=%v: draw ratio %v for 3:1 row", tracked, ratio)
		}
	}
}

// TestCloneIndependentVersions: a clone must carry its own identity so
// tables built from the original fully rebuild against the clone.
func TestCloneIndependentVersions(t *testing.T) {
	m := NewUniform(4, 4)
	at := NewAliasTable(m)
	c := m.Clone()
	at.TakeBuildStats()
	at.Rebuild(c)
	rebuilt, _ := at.TakeBuildStats()
	if rebuilt != 4 {
		t.Fatalf("rebuild against clone rebuilt %d rows, want 4", rebuilt)
	}
}

// TestTrackSupportCutFallback: rows above the cut report no support and
// fall back to dense handling, rows under it report the exact list.
func TestTrackSupportCutFallback(t *testing.T) {
	m := NewUniform(6, 6)
	if err := m.SetRow(0, []float64{0, 1, 0, 2, 0, 0}); err != nil {
		t.Fatal(err)
	}
	m.TrackSupport(3)
	if sup, ok := m.RowSupport(0); !ok || len(sup) != 2 || sup[0] != 1 || sup[1] != 3 {
		t.Fatalf("row 0 support %v, %v; want [1 3], true", sup, ok)
	}
	if _, ok := m.RowSupport(1); ok {
		t.Fatalf("uniform row (6 nonzeros) tracked despite cut 3")
	}
}
