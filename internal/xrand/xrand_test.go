package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d/100 outputs", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after Reseed output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// Child stream must not be a shifted copy of the parent stream.
	parentVals := map[uint64]bool{}
	p2 := New(99)
	for i := 0; i < 2000; i++ {
		parentVals[p2.Uint64()] = true
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if parentVals[child.Uint64()] {
			hits++
		}
	}
	if hits > 2 {
		t.Fatalf("child stream overlaps parent stream in %d/1000 draws", hits)
	}
}

func TestSplitChildrenDistinct(t *testing.T) {
	r := New(5)
	c1 := r.Split()
	c2 := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling split streams collided %d/100 times", same)
	}
}

func TestFloat64Range01(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	for _, n := range []int{1, 2, 3, 7, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(17)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 0.06*expected {
			t.Fatalf("bucket %d count %d deviates >6%% from expected %v", i, c, expected)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(19)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange(5,9) = %d", v)
		}
		seen[v] = true
	}
	for v := 5; v <= 9; v++ {
		if !seen[v] {
			t.Fatalf("IntRange(5,9) never produced %d", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Fatalf("IntRange(4,4) = %d, want 4", got)
	}
}

// TestIntRangeFullWidth: spans wider than the largest int must draw,
// not panic on an overflowed bound, and stay inside [lo, hi].
func TestIntRangeFullWidth(t *testing.T) {
	r := New(89)
	cases := []struct{ lo, hi int }{
		{math.MinInt, math.MaxInt},
		{-1, math.MaxInt},
		{math.MinInt, 0},
		{math.MinInt, math.MinInt + 1},
		{math.MaxInt - 1, math.MaxInt},
	}
	for _, c := range cases {
		neg := false
		for i := 0; i < 1000; i++ {
			v := r.IntRange(c.lo, c.hi)
			if v < c.lo || v > c.hi {
				t.Fatalf("IntRange(%d,%d) = %d", c.lo, c.hi, v)
			}
			neg = neg || v < 0
		}
		if c.lo == math.MinInt && c.hi == math.MaxInt && !neg {
			t.Fatal("IntRange(MinInt, MaxInt) drew no negative value in 1000 tries")
		}
	}
}

func TestIntRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(3,2) did not panic")
		}
	}()
	New(1).IntRange(3, 2)
}

func TestFloat64Range(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		v := r.Float64Range(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Float64Range(-2,3) = %v", v)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(29)
	const draws = 100000
	trues := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / draws
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", frac)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	// p>=1 must always be true (Float64 < 1 always holds).
	for i := 0; i < 100; i++ {
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(31)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v", variance)
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

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	for _, n := range []int{0, 1, 2, 5, 50, 500} {
		p := r.Perm(n)
		if len(p) != n || !isPermutation(p) {
			t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
		}
	}
}

func TestPermProperty(t *testing.T) {
	r := New(41)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		return isPermutation(r.Perm(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermIntoMatchesPermShape(t *testing.T) {
	r := New(43)
	buf := make([]int, 20)
	for i := 0; i < 100; i++ {
		r.PermInto(buf)
		if !isPermutation(buf) {
			t.Fatalf("PermInto produced non-permutation %v", buf)
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(47)
	const n, draws = 5, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 0.06*expected {
			t.Fatalf("Perm first-element bucket %d count %d vs expected %v", i, c, expected)
		}
	}
}

func TestCategoricalBasic(t *testing.T) {
	r := New(53)
	weights := []float64{0, 1, 0, 3}
	const draws = 100000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		idx, err := r.Categorical(weights)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight buckets drawn: %v", counts)
	}
	frac1 := float64(counts[1]) / draws
	if math.Abs(frac1-0.25) > 0.01 {
		t.Fatalf("bucket 1 frequency %v, want ~0.25", frac1)
	}
}

func TestCategoricalZeroMass(t *testing.T) {
	r := New(59)
	if _, err := r.Categorical([]float64{0, 0, 0}); err != ErrZeroMass {
		t.Fatalf("want ErrZeroMass, got %v", err)
	}
	if _, err := r.Categorical(nil); err != ErrZeroMass {
		t.Fatalf("want ErrZeroMass for empty weights, got %v", err)
	}
}

func TestCategoricalRejectsNegative(t *testing.T) {
	r := New(61)
	if _, err := r.Categorical([]float64{1, -0.5}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := r.Categorical([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

func TestCategoricalTotalAgrees(t *testing.T) {
	weights := []float64{2, 0, 5, 3}
	a := New(67)
	b := New(67)
	for i := 0; i < 1000; i++ {
		ia, err := a.Categorical(weights)
		if err != nil {
			t.Fatal(err)
		}
		ib := b.CategoricalTotal(weights, 10)
		if ia != ib {
			t.Fatalf("Categorical and CategoricalTotal diverged at draw %d: %d vs %d", i, ia, ib)
		}
	}
}

func TestCategoricalTotalPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CategoricalTotal(_, 0) did not panic")
		}
	}()
	New(1).CategoricalTotal([]float64{1}, 0)
}

func TestCategoricalSingleBucketAlwaysReturned(t *testing.T) {
	r := New(71)
	for i := 0; i < 100; i++ {
		idx, err := r.Categorical([]float64{0, 0, 4, 0})
		if err != nil || idx != 2 {
			t.Fatalf("draw %d: idx=%d err=%v", i, idx, err)
		}
	}
}

func TestCategoricalProperty(t *testing.T) {
	r := New(73)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		total := 0.0
		for i, b := range raw {
			weights[i] = float64(b)
			total += weights[i]
		}
		idx, err := r.Categorical(weights)
		if total == 0 {
			return err == ErrZeroMass
		}
		return err == nil && idx >= 0 && idx < len(weights) && weights[idx] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(79)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(2)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exponential(2) mean %v, want ~0.5", mean)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(83)
	for i := 0; i < 200; i++ {
		s := r.SampleWithoutReplacement(20, 7)
		if len(s) != 7 {
			t.Fatalf("sample size %d", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("bad sample %v", s)
			}
			seen[v] = true
		}
	}
	if got := r.SampleWithoutReplacement(5, 5); !isPermutation(got) {
		t.Fatalf("k=n sample %v is not a permutation", got)
	}
	if got := r.SampleWithoutReplacement(5, 0); len(got) != 0 {
		t.Fatalf("k=0 sample %v non-empty", got)
	}
}

// TestStreamPin pins the first bounded draws from a fixed seed: Intn over
// small, row-sized and wider-than-32-bit bounds, IntRange, and one
// GenPerm-sized PermInto. The bounded-draw arithmetic feeds every solver's
// stream, so a change that moves it must fail here, not only in the
// end-to-end goldens.
func TestStreamPin(t *testing.T) {
	if bits.UintSize < 64 {
		t.Skip("the pinned stream draws from a bound wider than a 32-bit int")
	}
	r := New(2024)
	intn := []struct {
		n    int64
		want []int64
	}{
		{1, []int64{0, 0, 0, 0, 0, 0, 0, 0}},
		{2, []int64{1, 0, 1, 1, 1, 0, 1, 0}},
		{3, []int64{0, 1, 2, 1, 1, 0, 0, 1}},
		{47, []int64{22, 0, 23, 11, 24, 27, 45, 23}},
		{48, []int64{6, 6, 40, 40, 2, 34, 11, 45}},
		{1 << 33, []int64{7537412804, 4987598886, 1097388041, 2326035080, 2850381822, 3483482534, 6438088055, 2972055698}},
	}
	for _, c := range intn {
		for k, want := range c.want {
			if got := int64(r.Intn(int(c.n))); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", c.n, k, got, want)
			}
		}
	}
	for k, want := range []int{3, -1, -1, 0, -3, 2, 2, -1} {
		if got := r.IntRange(-3, 3); got != want {
			t.Fatalf("IntRange(-3,3) draw %d = %d, want %d", k, got, want)
		}
	}
	wantPerm := []int{11, 28, 20, 34, 13, 31, 12, 18, 5, 10, 44, 42, 3, 39, 7, 25, 22, 23, 19, 14, 26, 27, 4, 41,
		32, 45, 16, 9, 47, 46, 15, 40, 37, 1, 8, 30, 35, 43, 24, 36, 38, 21, 2, 6, 0, 33, 17, 29}
	perm := make([]int, len(wantPerm))
	r.PermInto(perm)
	for i := range perm {
		if perm[i] != wantPerm[i] {
			t.Fatalf("PermInto(48) = %v, want %v", perm, wantPerm)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(50)
	}
}

func BenchmarkCategorical50(b *testing.B) {
	r := New(1)
	weights := make([]float64, 50)
	for i := range weights {
		weights[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.CategoricalTotal(weights, 50)
	}
}

func BenchmarkPerm50(b *testing.B) {
	r := New(1)
	buf := make([]int, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PermInto(buf)
	}
}
