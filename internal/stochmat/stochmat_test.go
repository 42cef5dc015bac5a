package stochmat

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"matchsim/internal/xrand"
)

func TestNewUniform(t *testing.T) {
	m := NewUniform(4, 5)
	if m.Rows() != 4 || m.Cols() != 5 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != 0.2 {
				t.Fatalf("entry (%d,%d)=%v", i, j, m.At(i, j))
			}
		}
	}
	if err := m.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestNewUniformPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewUniform(0,3) did not panic")
		}
	}()
	NewUniform(0, 3)
}

func TestNewFromRowsNormalises(t *testing.T) {
	m, err := NewFromRows([][]float64{{2, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 0.5 || m.At(1, 1) != 0.75 {
		t.Fatalf("normalisation wrong: %v %v", m.At(0, 0), m.At(1, 1))
	}
	if err := m.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestNewFromRowsRejections(t *testing.T) {
	if _, err := NewFromRows(nil); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := NewFromRows([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := NewFromRows([][]float64{{0, 0}}); err == nil {
		t.Fatal("zero-mass row accepted")
	}
	if _, err := NewFromRows([][]float64{{1, -1}}); err == nil {
		t.Fatal("negative entry accepted")
	}
	if _, err := NewFromRows([][]float64{{1, math.NaN()}}); err == nil {
		t.Fatal("NaN entry accepted")
	}
}

func TestMaxRowAndArgmax(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 3, 1}, {5, 1, 1}, {1, 1, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if col, p := m.MaxRow(0); col != 1 || math.Abs(p-0.6) > 1e-12 {
		t.Fatalf("MaxRow(0) = %d,%v", col, p)
	}
	want := []int{1, 0, 2}
	got := m.ArgmaxAssignment()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgmaxAssignment = %v, want %v", got, want)
		}
	}
}

func TestMaxRowTieBreaksLow(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if col, _ := m.MaxRow(0); col != 0 {
		t.Fatalf("tie broke to column %d", col)
	}
}

func TestIsDegenerate(t *testing.T) {
	m, err := NewFromRows([][]float64{{0.9995, 0.0005}, {0.0001, 0.9999}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsDegenerate(0.999) {
		t.Fatal("near-degenerate matrix not recognised")
	}
	if m.IsDegenerate(0.9999) {
		t.Fatal("threshold not respected")
	}
	if NewUniform(3, 3).IsDegenerate(0.5) {
		t.Fatal("uniform matrix reported degenerate")
	}
}

func TestEntropy(t *testing.T) {
	u := NewUniform(2, 4)
	if got := u.RowEntropy(0); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform entropy %v, want ln 4", got)
	}
	deg, err := NewFromRows([][]float64{{1, 0, 0, 0}, {0, 0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := deg.MeanEntropy(); got != 0 {
		t.Fatalf("degenerate entropy %v", got)
	}
	if got := u.MeanEntropy(); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("mean entropy %v", got)
	}
}

func TestSmooth(t *testing.T) {
	p := NewUniform(2, 2) // all 0.5
	q, err := NewFromRows([][]float64{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Smooth(q, 0.3); err != nil {
		t.Fatal(err)
	}
	// 0.3*1 + 0.7*0.5 = 0.65 on the diagonal.
	if math.Abs(p.At(0, 0)-0.65) > 1e-12 || math.Abs(p.At(0, 1)-0.35) > 1e-12 {
		t.Fatalf("smoothing wrong: %v %v", p.At(0, 0), p.At(0, 1))
	}
	if err := p.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestSmoothRejections(t *testing.T) {
	p := NewUniform(2, 2)
	if err := p.Smooth(NewUniform(2, 3), 0.5); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if err := p.Smooth(NewUniform(2, 2), 1.5); err == nil {
		t.Fatal("zeta > 1 accepted")
	}
	if err := p.Smooth(NewUniform(2, 2), -0.1); err == nil {
		t.Fatal("zeta < 0 accepted")
	}
}

// TestSmoothEliteMatchesSetRowThenSmooth: the one-pass update gives the
// bits of the two-step update it replaced — elite frequencies counted
// into a scratch Q by SetRow, then Smooth — on square and rectangular
// matrices with many-to-one elite mappings.
func TestSmoothEliteMatchesSetRowThenSmooth(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		elite := make([][]int, 1+rng.Intn(20))
		for k := range elite {
			elite[k] = make([]int, rows)
			for i := range elite[k] {
				elite[k][i] = rng.Intn(cols)
			}
		}
		zeta := rng.Float64()
		p := NewUniform(rows, cols)
		for i := 0; i < rows; i++ {
			row := make([]float64, cols)
			for j := range row {
				row[j] = rng.Float64() + 1e-3
			}
			if err := p.SetRow(i, row); err != nil {
				t.Fatal(err)
			}
		}
		want := p.Clone()
		counts := make([]float64, rows*cols)
		inv := 1 / float64(len(elite))
		for _, x := range elite {
			for i, j := range x {
				counts[i*cols+j] += inv
			}
		}
		q := NewUniform(rows, cols)
		for i := 0; i < rows; i++ {
			if err := q.SetRow(i, counts[i*cols:(i+1)*cols]); err != nil {
				t.Fatal(err)
			}
		}
		if err := want.Smooth(q, zeta); err != nil {
			t.Fatal(err)
		}
		if err := p.SmoothElite(elite, make([]float64, rows*cols), zeta); err != nil {
			t.Fatal(err)
		}
		for k := range p.p {
			if math.Float64bits(p.p[k]) != math.Float64bits(want.p[k]) {
				t.Fatalf("trial %d (%dx%d, %d elite): entry %d = %v, two-step update gives %v",
					trial, rows, cols, len(elite), k, p.p[k], want.p[k])
			}
		}
	}
}

func TestSmoothEliteRejections(t *testing.T) {
	p := NewUniform(2, 3)
	counts := make([]float64, 6)
	for name, tc := range map[string]struct {
		elite  [][]int
		counts []float64
		zeta   float64
	}{
		"empty elite":     {nil, counts, 0.5},
		"short counts":    {[][]int{{0, 1}}, counts[:5], 0.5},
		"zeta > 1":        {[][]int{{0, 1}}, counts, 1.5},
		"zeta < 0":        {[][]int{{0, 1}}, counts, -0.1},
		"short mapping":   {[][]int{{0}}, counts, 0.5},
		"column too high": {[][]int{{0, 3}}, counts, 0.5},
		"negative column": {[][]int{{-1, 0}}, counts, 0.5},
	} {
		if err := p.SmoothElite(tc.elite, tc.counts, tc.zeta); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// Property: smoothing two valid stochastic matrices yields a valid one.
func TestSmoothPreservesStochasticity(t *testing.T) {
	rng := xrand.New(1)
	f := func(seed uint64) bool {
		local := xrand.New(seed ^ rng.Uint64())
		n := 2 + local.Intn(8)
		rowsP := make([][]float64, n)
		rowsQ := make([][]float64, n)
		for i := 0; i < n; i++ {
			rowsP[i] = make([]float64, n)
			rowsQ[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				rowsP[i][j] = local.Float64() + 1e-9
				rowsQ[i][j] = local.Float64() + 1e-9
			}
		}
		p, err1 := NewFromRows(rowsP)
		q, err2 := NewFromRows(rowsQ)
		if err1 != nil || err2 != nil {
			return false
		}
		if err := p.Smooth(q, local.Float64()); err != nil {
			return false
		}
		return p.Validate(1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSetRow(t *testing.T) {
	m := NewUniform(2, 3)
	if err := m.SetRow(1, []float64{2, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 0.5 || m.At(1, 1) != 0 || m.At(1, 2) != 0.5 {
		t.Fatalf("SetRow wrong: %v", m.Row(1))
	}
	if err := m.SetRow(0, []float64{1}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := m.SetRow(0, []float64{0, 0, 0}); err == nil {
		t.Fatal("zero-mass row accepted")
	}
	if err := m.SetRow(0, []float64{1, -1, 1}); err == nil {
		t.Fatal("negative entry accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewUniform(2, 2)
	c := m.Clone()
	if err := c.SetRow(0, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 0.5 {
		t.Fatal("clone aliases storage")
	}
}

func isPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// sample draws one GenPerm permutation from m through a fresh alias table
// (tests build the table per call; the CE loop builds it per iteration).
func sample(s *Sampler, m *Matrix, rng *xrand.RNG, dst []int) error {
	return s.SamplePermutation(m, NewAliasTable(m), rng, dst)
}

func TestSamplePermutationValidity(t *testing.T) {
	m := NewUniform(10, 10)
	s := NewSampler(10)
	rng := xrand.New(7)
	dst := make([]int, 10)
	for i := 0; i < 500; i++ {
		if err := sample(s, m, rng, dst); err != nil {
			t.Fatal(err)
		}
		if !isPermutation(dst) {
			t.Fatalf("draw %d not a permutation: %v", i, dst)
		}
	}
}

func TestSamplePermutationUniformIsUniform(t *testing.T) {
	// From the uniform matrix, every (task, resource) pair should appear
	// with frequency ~1/n.
	const n, draws = 5, 200000
	m := NewUniform(n, n)
	s := NewSampler(n)
	rng := xrand.New(8)
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	dst := make([]int, n)
	for d := 0; d < draws; d++ {
		if err := sample(s, m, rng, dst); err != nil {
			t.Fatal(err)
		}
		for task, res := range dst {
			counts[task][res]++
		}
	}
	expected := float64(draws) / n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(float64(counts[i][j])-expected) > 0.05*expected {
				t.Fatalf("pair (%d,%d) count %d deviates >5%% from %v", i, j, counts[i][j], expected)
			}
		}
	}
}

func TestSamplePermutationFollowsBias(t *testing.T) {
	// Heavily bias task 0 to resource 3; it should receive it most times.
	rows := [][]float64{
		{0.01, 0.01, 0.01, 0.97},
		{0.25, 0.25, 0.25, 0.25},
		{0.25, 0.25, 0.25, 0.25},
		{0.25, 0.25, 0.25, 0.25},
	}
	m, err := NewFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(4)
	rng := xrand.New(9)
	dst := make([]int, 4)
	hits := 0
	const draws = 20000
	for d := 0; d < draws; d++ {
		if err := sample(s, m, rng, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0] == 3 {
			hits++
		}
	}
	// Task 0 is visited first only 1/4 of the time; when visited later,
	// resource 3 is often already taken by a uniform row. The bias must
	// still clearly dominate the uniform baseline of 0.25.
	if frac := float64(hits) / draws; frac < 0.55 {
		t.Fatalf("biased pair frequency %v, want > 0.55", frac)
	}
}

func TestSamplePermutationDegenerateMatrix(t *testing.T) {
	// A fully degenerate matrix encoding a permutation must always
	// reproduce it (the fallback never fires because rows are consistent).
	rows := [][]float64{
		{0, 1, 0},
		{0, 0, 1},
		{1, 0, 0},
	}
	m, err := NewFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(3)
	rng := xrand.New(10)
	dst := make([]int, 3)
	for i := 0; i < 200; i++ {
		if err := sample(s, m, rng, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0] != 1 || dst[1] != 2 || dst[2] != 0 {
			t.Fatalf("degenerate draw %v", dst)
		}
	}
}

func TestSamplePermutationConflictFallback(t *testing.T) {
	// Two rows fully concentrated on the same column force the fallback:
	// the loser must still get a valid (uniform) resource.
	rows := [][]float64{
		{1, 0, 0},
		{1, 0, 0},
		{0, 0, 1},
	}
	m, err := NewFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(3)
	rng := xrand.New(11)
	dst := make([]int, 3)
	for i := 0; i < 500; i++ {
		if err := sample(s, m, rng, dst); err != nil {
			t.Fatal(err)
		}
		if !isPermutation(dst) {
			t.Fatalf("fallback produced non-permutation %v", dst)
		}
	}
}

func TestSamplePermutationErrors(t *testing.T) {
	s := NewSampler(3)
	rng := xrand.New(1)
	if err := sample(s, NewUniform(2, 3), rng, make([]int, 2)); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	if err := sample(s, NewUniform(3, 3), rng, make([]int, 2)); err == nil {
		t.Fatal("short destination accepted")
	}
	if err := sample(s, NewUniform(4, 4), rng, make([]int, 4)); err == nil {
		t.Fatal("mismatched sampler width accepted")
	}
	if err := s.SamplePermutation(NewUniform(3, 3), nil, rng, make([]int, 3)); err == nil {
		t.Fatal("missing alias table accepted")
	}
	if err := s.SamplePermutation(NewUniform(3, 3), NewAliasTable(NewUniform(2, 2)), rng, make([]int, 3)); err == nil {
		t.Fatal("alias table of another shape accepted")
	}
}

// Property: GenPerm sampling always yields permutations for arbitrary
// random stochastic matrices.
func TestSamplePermutationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		local := xrand.New(seed)
		n := 2 + local.Intn(12)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				// Spiky rows: most mass on few columns to stress masking.
				if local.Bool(0.3) {
					rows[i][j] = local.Float64() * 10
				} else {
					rows[i][j] = local.Float64() * 0.01
				}
			}
			rows[i][local.Intn(n)] += 0.5
		}
		m, err := NewFromRows(rows)
		if err != nil {
			return false
		}
		s := NewSampler(n)
		dst := make([]int, n)
		for k := 0; k < 20; k++ {
			if err := sample(s, m, local, dst); err != nil {
				return false
			}
			if !isPermutation(dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringAndHeatmap(t *testing.T) {
	m := NewUniform(2, 2)
	s := m.String()
	if !strings.Contains(s, "0.500 0.500") {
		t.Fatalf("String: %q", s)
	}
	hm := m.Heatmap()
	lines := strings.Split(strings.TrimRight(hm, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != 2 {
		t.Fatalf("Heatmap shape wrong: %q", hm)
	}
	deg, err := NewFromRows([][]float64{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := deg.Heatmap(); !strings.Contains(got, "@") {
		t.Fatalf("degenerate heatmap missing dark glyph: %q", got)
	}
}

func BenchmarkSamplePermutation50(b *testing.B) {
	m := NewUniform(50, 50)
	at := NewAliasTable(m)
	s := NewSampler(50)
	rng := xrand.New(1)
	dst := make([]int, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SamplePermutation(m, at, rng, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSmooth50(b *testing.B) {
	p := NewUniform(50, 50)
	q := NewUniform(50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Smooth(q, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}
