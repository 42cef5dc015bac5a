package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailQuantile returns the highest of the quantiles 0.9, 0.99 and 0.999
// that leaves at least minBeyond of n samples above it, or 0.5 when n is
// too small for any of them (a run that short only supports a median).
func tailQuantile(n int) float64 {
	q := 0.5
	for _, c := range []float64{0.9, 0.99, 0.999} {
		if n-rank(c, n) >= minBeyond {
			q = c
		}
	}
	return q
}

// rank is the 1-based nearest-rank position of quantile q among n sorted
// samples. The epsilon keeps 0.9*100 from rounding up to rank 91.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(n, r))
}

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), so a
// spread printed here matches one computed from the same values there.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(n-1, j))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached reports zero work rather than NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// splitmix derives independent 64-bit seeds from (seed, i), so the i-th
// input of a workload depends only on the workload seed and i.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
