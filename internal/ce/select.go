package ce

import (
	"math/bits"
	"sort"
)

// SelectElite partially orders order (a permutation of sample indices) so
// that its first k entries are the k best samples under a strict total
// order — ascending score, ties broken by ascending index — and those k
// entries are themselves sorted. Entries beyond k are left in unspecified
// (but deterministic) arrangement.
//
// This replaces the full O(N log N) sort of all N = 2n^2 scores per CE
// iteration: the elite is only floor(rho*N) ≈ N/20 samples, so an O(N)
// expected-time quickselect plus an O(k log k) sort of the prefix does
// strictly less work. The index tie-break makes the selected set (not
// just the threshold) independent of the partition path, so elite
// membership — and therefore the whole run — is reproducible across both
// this implementation and a reference full sort.
func SelectElite(order []int, scores []float64, k int) {
	n := len(order)
	if k <= 0 || n == 0 {
		return
	}
	if k > n {
		k = n
	}
	less := func(a, b int) bool {
		sa, sb := scores[a], scores[b]
		if sa != sb {
			return sa < sb
		}
		return a < b
	}
	if k < n {
		// Depth-limited introselect: median-of-three quickselect with a
		// sort fallback on pathological pivot sequences.
		quickselect(order, k, less, 2*bits.Len(uint(n)))
	}
	sort.Slice(order[:k], func(i, j int) bool { return less(order[i], order[j]) })
}

// quickselect rearranges a so that a[:k] holds the k smallest elements
// under less. less must be a strict total order (no two elements equal).
func quickselect(a []int, k int, less func(a, b int) bool, depthLimit int) {
	lo, hi := 0, len(a)
	for hi-lo > 1 {
		if depthLimit == 0 {
			sort.Slice(a[lo:hi], func(i, j int) bool { return less(a[lo+i], a[lo+j]) })
			return
		}
		depthLimit--
		p := partition(a, lo, hi, less)
		switch {
		case p == k-1:
			return
		case p >= k:
			hi = p
		default:
			lo = p + 1
		}
	}
}

// partition picks a median-of-three pivot for a[lo:hi], partitions around
// it (Lomuto), and returns the pivot's final position. With a strict
// total order the pivot lands exactly at its sorted rank.
func partition(a []int, lo, hi int, less func(a, b int) bool) int {
	mid := lo + (hi-lo)/2
	if less(a[mid], a[lo]) {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if less(a[hi-1], a[mid]) {
		a[hi-1], a[mid] = a[mid], a[hi-1]
		if less(a[mid], a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
	}
	a[mid], a[hi-1] = a[hi-1], a[mid]
	pivot := a[hi-1]
	i := lo
	for j := lo; j < hi-1; j++ {
		if less(a[j], pivot) {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi-1] = a[hi-1], a[i]
	return i
}
