package stochmat

import (
	"fmt"
	"testing"

	"matchsim/internal/xrand"
)

// pinMatrix is the fixed 8x8 matrix of the stream-pin tests. Row 0 is
// near-uniform, rows 1 and 7 hold exact zeros (support-compacted tables),
// rows 2 and 3 are one-hot on the same column (so whichever of them comes
// second in the visiting order exhausts its tries and takes the uniform
// fallback), and the rest are graded or spiky.
func pinMatrix(t *testing.T) *Matrix {
	t.Helper()
	m, err := NewFromRows([][]float64{
		{1, 1.01, 0.99, 1.02, 0.98, 1, 1.005, 0.995},
		{0, 3, 0, 1, 0, 2, 0, 4},
		{0, 0, 0, 0, 0, 1, 0, 0},
		{0, 0, 0, 0, 0, 1, 0, 0},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{8, 7, 6, 5, 4, 3, 2, 1},
		{1e-9, 1, 1e-9, 50, 1e-9, 1e-9, 3, 1e-9},
		{0.5, 0, 0, 0, 0, 0, 0.25, 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSamplePermutationStreamPin pins the first 20 GenPerm draws from
// pinMatrix and the sampler's reject/fallback counts, and then the first
// AliasTable.Sample draws cycling over its rows. The alias draw rule
// feeds every CE solver's stream, so a change that moves it must fail
// here, not only in the end-to-end goldens.
func TestSamplePermutationStreamPin(t *testing.T) {
	m := pinMatrix(t)
	at := NewAliasTable(m)
	s := NewSampler(8)
	rng := xrand.New(2024)
	want := [][]int{
		{4, 3, 5, 1, 6, 2, 0, 7},
		{6, 2, 7, 5, 4, 1, 3, 0},
		{3, 7, 4, 5, 6, 2, 1, 0},
		{3, 0, 5, 6, 4, 1, 7, 2},
		{6, 7, 1, 5, 4, 2, 3, 0},
		{2, 4, 0, 5, 6, 1, 3, 7},
		{3, 5, 2, 7, 4, 1, 6, 0},
		{3, 4, 7, 5, 1, 0, 6, 2},
		{2, 7, 6, 1, 5, 4, 3, 0},
		{0, 1, 5, 3, 7, 4, 6, 2},
		{1, 7, 4, 5, 2, 0, 3, 6},
		{0, 7, 1, 4, 5, 2, 3, 6},
		{4, 7, 5, 2, 3, 1, 6, 0},
		{1, 7, 0, 5, 6, 2, 3, 4},
		{7, 2, 6, 5, 4, 1, 3, 0},
		{7, 3, 4, 5, 6, 2, 1, 0},
		{0, 5, 7, 4, 6, 2, 3, 1},
		{0, 7, 6, 5, 1, 4, 3, 2},
		{1, 7, 4, 5, 3, 2, 6, 0},
		{4, 1, 6, 5, 2, 0, 3, 7},
	}
	dst := make([]int, 8)
	for k, w := range want {
		if err := s.SamplePermutation(m, at, rng, dst); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(dst) != fmt.Sprint(w) {
			t.Fatalf("draw %d = %v, want %v", k, dst, w)
		}
	}
	if st, wantSt := s.TakeStats(), (SampleStats{RejectTries: 133, FallbackDraws: 69}); st != wantSt {
		t.Fatalf("stats %+v, want %+v", st, wantSt)
	}
	wantCols := []int{0, 5, 5, 5, 5, 0, 3, 0, 7, 5, 5, 5, 3, 4, 3, 0, 3, 7, 5, 5, 0, 5, 3, 0}
	for k, w := range wantCols {
		if got := at.Sample(k%8, rng); got != w {
			t.Fatalf("Sample(row %d) draw %d = %d, want %d", k%8, k, got, w)
		}
	}
}
