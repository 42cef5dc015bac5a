package stochmat

import (
	"math"
	"testing"
	"unsafe"

	"matchsim/internal/xrand"
)

// TestAliasSampleFrequencies: alias draws must follow each row's
// distribution. 20k draws per row against a 3-sigma binomial tolerance —
// loose enough to never flake on a fixed seed, tight enough that a wrong
// table (swapped alias, unnormalised probs) fails by a wide margin.
func TestAliasSampleFrequencies(t *testing.T) {
	m, err := NewFromRows([][]float64{
		{1, 2, 3, 4},
		{10, 0, 0, 1},
		{1, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	at := NewAliasTable(m)
	rng := xrand.New(99)
	const draws = 20000
	for i := 0; i < m.Rows(); i++ {
		counts := make([]int, m.Cols())
		for k := 0; k < draws; k++ {
			counts[at.Sample(i, rng)]++
		}
		for j := 0; j < m.Cols(); j++ {
			p := m.At(i, j)
			want := p * draws
			// 3 sigma of Binomial(draws, p), plus 1 for the p=0 case.
			tol := 3*math.Sqrt(draws*p*(1-p)) + 1
			if diff := math.Abs(float64(counts[j]) - want); diff > tol {
				t.Errorf("row %d col %d: %d draws, want %.0f±%.0f", i, j, counts[j], want, tol)
			}
		}
	}
}

// TestAliasZeroWeightNeverDrawn: zero-probability columns receive no slot
// mass and no alias points at them, so they must never come out — the
// property SamplePermutation's inlined alias path relies on when it
// skips the row-weight re-check.
func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	m, err := NewFromRows([][]float64{{5, 0, 3, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	at := NewAliasTable(m)
	rng := xrand.New(7)
	for k := 0; k < 50000; k++ {
		if j := at.Sample(0, rng); j == 1 || j == 3 {
			t.Fatalf("draw %d returned zero-weight column %d", k, j)
		}
	}
}

// TestAliasDeterministicStream: the build is deterministic for given row
// data, so two tables over the same matrix must produce identical draw
// sequences from identically seeded RNGs.
func TestAliasDeterministicStream(t *testing.T) {
	m := NewUniform(6, 6)
	a1, a2 := NewAliasTable(m), NewAliasTable(m)
	r1, r2 := xrand.New(5), xrand.New(5)
	for k := 0; k < 1000; k++ {
		row := k % 6
		if x, y := a1.Sample(row, r1), a2.Sample(row, r2); x != y {
			t.Fatalf("draw %d: %d vs %d", k, x, y)
		}
	}
}

// TestAliasDegenerateRow: a zero-mass row keeps a well-formed table
// (uniform draws) and reports RowTotal 0 so samplers can detect it.
func TestAliasDegenerateRow(t *testing.T) {
	m := NewUniform(2, 4)
	zero := m.Row(1)
	for j := range zero {
		zero[j] = 0
	}
	at := NewAliasTable(m)
	if at.RowTotal(1) != 0 {
		t.Fatalf("degenerate row total %v, want 0", at.RowTotal(1))
	}
	if at.RowTotal(0) <= 0 {
		t.Fatalf("live row total %v, want > 0", at.RowTotal(0))
	}
	rng := xrand.New(3)
	seen := make(map[int]bool)
	for k := 0; k < 1000; k++ {
		j := at.Sample(1, rng)
		if j < 0 || j >= 4 {
			t.Fatalf("degenerate row drew out-of-range column %d", j)
		}
		seen[j] = true
	}
	if len(seen) != 4 {
		t.Fatalf("degenerate row draws covered %d/4 columns", len(seen))
	}
}

// TestAliasRebuildShapeChange: Rebuild must follow the matrix across a
// shape change and keep draws in the new range.
func TestAliasRebuildShapeChange(t *testing.T) {
	at := NewAliasTable(NewUniform(3, 3))
	big := NewUniform(8, 8)
	at.Rebuild(big)
	if at.Rows() != 8 || at.Cols() != 8 {
		t.Fatalf("shape %dx%d after rebuild, want 8x8", at.Rows(), at.Cols())
	}
	rng := xrand.New(11)
	for k := 0; k < 500; k++ {
		if j := at.Sample(k%8, rng); j < 0 || j >= 8 {
			t.Fatalf("out-of-range draw %d", j)
		}
	}
}

// TestAliasRebuildNoAllocSameShape: the per-iteration Rebuild on the CE
// hot path must reuse its buffers when the shape is unchanged.
func TestAliasRebuildNoAllocSameShape(t *testing.T) {
	m := NewUniform(32, 32)
	at := NewAliasTable(m)
	allocs := testing.AllocsPerRun(50, func() { at.Rebuild(m) })
	if allocs != 0 {
		t.Fatalf("Rebuild allocates %.1f objects/op at fixed shape, want 0", allocs)
	}
}

// TestAliasRebuildDetectsMatrixSwap: a table rebuilt against a different
// matrix of the same shape must follow the new matrix — the
// checkpoint-restore scenario.
func TestAliasRebuildDetectsMatrixSwap(t *testing.T) {
	a := NewUniform(6, 6)
	at := NewAliasTable(a)

	b := NewUniform(6, 6)
	row := make([]float64, 6)
	row[2] = 1
	if err := b.SetRow(0, row); err != nil {
		t.Fatal(err)
	}
	at.Rebuild(b)
	rng := xrand.New(1)
	for i := 0; i < 200; i++ {
		if c := at.Sample(0, rng); c != 2 {
			t.Fatalf("sample from swapped one-hot row returned %d, want 2", c)
		}
	}
}

// TestAliasCompactedZeroRows: a row with zeros draws only from its
// support, and the support-compacted table matches the row distribution.
func TestAliasCompactedZeroRows(t *testing.T) {
	m := NewUniform(5, 5)
	if err := m.SetRow(1, []float64{0, 3, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	at := NewAliasTable(m)
	rng := xrand.New(7)
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		counts[at.Sample(1, rng)]++
	}
	if counts[0]+counts[2]+counts[4] != 0 {
		t.Fatalf("zero-weight columns drawn: %v", counts)
	}
	ratio := float64(counts[1]) / float64(counts[3])
	if ratio < 2.5 || ratio > 3.6 {
		t.Fatalf("draw ratio %v for 3:1 row", ratio)
	}
}

// TestAliasSlotSize: a slot stays 16 bytes, so a draw's threshold compare
// and column reads touch one cache line.
func TestAliasSlotSize(t *testing.T) {
	if s := unsafe.Sizeof(aliasSlot{}); s != 16 {
		t.Fatalf("aliasSlot is %d bytes, want 16", s)
	}
}

// FuzzAliasTable checks the alias build against its row: each column's
// mass, rebuilt from the live slots (thresh/2^64 credited to the slot's
// column, the rest to its alias, over supLen slots), must equal
// row/total within 1e-12, exact-zero columns must get exactly 0, and
// only always-accept slots (col == alias) may carry the saturated
// MaxUint64 threshold, so no threshold wrapped around. Rows come from
// the fuzzer: three bytes per entry, with exact zeros and magnitudes
// from 1e-300 to 1e300; equal selects a row of one repeated value, whose
// scaled entries round to exactly 1.
func FuzzAliasTable(f *testing.F) {
	// Exponent bytes (1, 44) give 10^0, (2, 88) 10^300 and (0, 0) 10^-300;
	// a first byte divisible by 5 gives an exact zero.
	f.Add([]byte{1, 1, 44, 2, 1, 45, 0, 0, 0, 3, 1, 43, 7, 1, 44, 6, 1, 46, 10, 0, 0, 9, 1, 44}, false)
	f.Add([]byte{1, 2, 88, 2, 2, 88, 3, 2, 87, 4, 2, 86, 1, 0, 0, 8, 2, 80, 5, 0, 0}, false)
	f.Add([]byte{1, 0, 0, 2, 0, 1, 3, 0, 2, 4, 0, 0, 6, 0, 1}, false)
	f.Add([]byte{1, 1, 44, 1, 1, 44, 0, 0, 0, 1, 1, 44, 1, 1, 44, 1, 1, 44, 1, 1, 44}, true)
	f.Add([]byte{3, 1, 50, 3, 1, 50, 3, 1, 50}, true)
	f.Fuzz(func(t *testing.T, data []byte, equal bool) {
		const maxCols = 64
		var row []float64
		for i := 0; i+2 < len(data) && len(row) < maxCols; i += 3 {
			if data[i]%5 == 0 {
				row = append(row, 0)
				continue
			}
			exp := int(data[i+1])<<8 | int(data[i+2])
			mant := 1 + float64(data[i])/256
			row = append(row, mant*math.Pow(10, float64(exp%601-300)))
		}
		first := -1
		for j, v := range row {
			if v > 0 {
				first = j
				break
			}
		}
		if first < 0 {
			return
		}
		if equal {
			for j, v := range row {
				if v > 0 {
					row[j] = row[first]
				}
			}
		}
		m, err := NewFromRows([][]float64{row})
		if err != nil {
			t.Fatalf("row %v rejected: %v", row, err)
		}
		at := NewAliasTable(m)
		p := m.Row(0)
		total := at.RowTotal(0)
		slots := at.rowSlots(0)
		mass := make([]float64, len(p))
		for _, s := range slots {
			if (s.thresh == math.MaxUint64) != (s.col == s.alias) {
				t.Fatalf("slot %+v: saturated threshold iff col == alias violated", s)
			}
			acc := float64(s.thresh) / 0x1p64
			mass[s.col] += acc
			mass[s.alias] += 1 - acc
		}
		for j := range mass {
			got := mass[j] / float64(len(slots))
			if p[j] == 0 {
				if got != 0 {
					t.Fatalf("zero column %d got mass %v (row %v)", j, got, p)
				}
				continue
			}
			if want := p[j] / total; math.Abs(got-want) > 1e-12 {
				t.Fatalf("column %d mass %v, want %v (row %v)", j, got, want, p)
			}
		}
	})
}
