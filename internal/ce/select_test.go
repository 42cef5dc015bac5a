package ce

import (
	"sort"
	"testing"

	"matchsim/internal/xrand"
)

// refOrder returns the full ordering under SelectElite's total order.
func refOrder(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := scores[order[a]], scores[order[b]]
		if sa != sb {
			return sa < sb
		}
		return order[a] < order[b]
	})
	return order
}

func TestSelectEliteMatchesSortReference(t *testing.T) {
	rng := xrand.New(41)
	for _, n := range []int{1, 2, 7, 100, 2048} {
		for _, distinct := range []int{0, 3, n} { // 0 = all equal, 3 = heavy ties
			scores := make([]float64, n)
			for i := range scores {
				switch distinct {
				case 0:
					scores[i] = 42
				case n:
					scores[i] = rng.Float64() * 100
				default:
					scores[i] = float64(rng.Intn(distinct))
				}
			}
			want := refOrder(scores)
			ks := []int{1, 2, n / 20, n / 2, n - 1, n}
			for _, k := range ks {
				if k < 1 {
					continue
				}
				order := make([]int, n)
				for i := range order {
					order[i] = i
				}
				SelectElite(order, scores, k)
				if k > n {
					k = n
				}
				for i := 0; i < k; i++ {
					if order[i] != want[i] {
						t.Fatalf("n=%d distinct=%d k=%d: order[%d]=%d, want %d",
							n, distinct, k, i, order[i], want[i])
					}
				}
				// The suffix must still be a permutation of the rest.
				seen := make([]bool, n)
				for _, v := range order {
					if v < 0 || v >= n || seen[v] {
						t.Fatalf("order corrupted: %v", order[:min(n, 20)])
					}
					seen[v] = true
				}
			}
		}
	}
}

func TestSelectEliteEdgeCases(t *testing.T) {
	scores := []float64{3, 1, 2}
	order := []int{0, 1, 2}
	SelectElite(order, scores, 0) // no-op
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("k=0 mutated order: %v", order)
	}
	SelectElite(order, scores, 10) // k > n clamps to n (full sort)
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("k>n: %v, want [1 2 0]", order)
	}
	SelectElite(nil, nil, 1) // empty input must not panic
}

func BenchmarkEliteSelect(b *testing.B) {
	const n = 8192
	k := n / 20
	rng := xrand.New(5)
	base := make([]float64, n)
	for i := range base {
		base[i] = rng.Float64() * 1000
	}
	scores := make([]float64, n)
	order := make([]int, n)
	b.Run("quickselect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scores, base)
			for j := range order {
				order[j] = j
			}
			SelectElite(order, scores, k)
		}
	})
	b.Run("full-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scores, base)
			for j := range order {
				order[j] = j
			}
			sort.Slice(order, func(a, c int) bool {
				sa, sc := scores[order[a]], scores[order[c]]
				if sa != sc {
					return sa < sc
				}
				return order[a] < order[c]
			})
		}
	})
}
