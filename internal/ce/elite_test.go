package ce

import (
	"sort"
	"sync"
	"testing"

	"matchsim/internal/xrand"
)

// TestEliteMatchesFullSort: workers offering every draw to an Elite, in a
// shuffled order, leave exactly the first k entries of a full sort by
// (score, index), best first. Each draw's buffer carries its index, so
// the test also checks that buffer trading never loses or aliases a draw.
func TestEliteMatchesFullSort(t *testing.T) {
	rng := xrand.New(41)
	for _, n := range []int{1, 2, 7, 100, 2048} {
		for _, distinct := range []int{1, 3, n} { // 1 = all equal, 3 = heavy ties
			scores := make([]float64, n)
			for i := range scores {
				scores[i] = float64(rng.Intn(distinct))
				if distinct == n {
					scores[i] = rng.Float64() * 100
				}
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.Slice(want, func(a, b int) bool {
				sa, sb := scores[want[a]], scores[want[b]]
				if sa != sb {
					return sa < sb
				}
				return want[a] < want[b]
			})
			for _, workers := range []int{1, 2, 4, 7} {
				for _, k := range []int{1, 2, n / 20, n / 2, n} {
					if k < 1 || k > n {
						continue
					}
					offers := make([]int, n)
					for i := range offers {
						offers[i] = i
					}
					rng.ShuffleInts(offers)
					e := NewElite(k, func() []int { return make([]int, 1) })
					bufs := offerAll(e, scores, offers, workers)
					e.Sort()
					if e.Len() != k {
						t.Fatalf("n=%d distinct=%d workers=%d k=%d: kept %d", n, distinct, workers, k, e.Len())
					}
					for i := 0; i < k; i++ {
						score, idx, sol := e.At(i)
						if idx != want[i] || score != scores[idx] || sol[0] != idx {
							t.Fatalf("n=%d distinct=%d workers=%d k=%d: rank %d is sample %d (score %v, buffer %d), want %d",
								n, distinct, workers, k, i, idx, score, sol[0], want[i])
						}
						bufs = append(bufs, sol)
					}
					seen := make(map[*int]bool)
					for _, b := range bufs {
						if seen[&b[0]] {
							t.Fatalf("n=%d workers=%d k=%d: a buffer is held twice", n, workers, k)
						}
						seen[&b[0]] = true
					}
				}
			}
		}
	}
}

// offerAll offers the draws in offer order from workers goroutines, each
// writing the draw's index into its scratch buffer first, and returns the
// scratch buffers the workers hold at the end.
func offerAll(e *Elite, scores []float64, offers []int, workers int) [][]int {
	bufs := make([][]int, workers)
	var wg sync.WaitGroup
	for w := range bufs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]int, 1)
			for i := w; i < len(offers); i += workers {
				buf[0] = offers[i]
				buf = e.Offer(scores[offers[i]], offers[i], buf)
			}
			bufs[w] = buf
		}(w)
	}
	wg.Wait()
	return bufs
}

// countingProblem counts NewSolution calls.
type countingProblem struct {
	*vectorProblem
	calls int
}

func (c *countingProblem) NewSolution() []int {
	c.calls++
	return c.vectorProblem.NewSolution()
}

// TestRunSolutionBuffers: a run allocates one buffer per elite slot, one
// per worker and the best-so-far copy — never one per draw.
func TestRunSolutionBuffers(t *testing.T) {
	const sampleSize = 300
	cfg := Config{SampleSize: sampleSize, Seed: 11, MaxIterations: 5}
	eliteCount := sampleSize * 5 / 100 // default rho 0.05
	for _, workers := range []int{1, 2, 8} {
		p := &countingProblem{vectorProblem: newVectorProblem(12, 12, displacementScore)}
		cfg.Workers = workers
		if _, err := Run(p, cfg); err != nil {
			t.Fatal(err)
		}
		if limit := eliteCount + workers + 1; p.calls > limit {
			t.Fatalf("workers=%d: %d NewSolution calls for N=%d, want at most %d", workers, p.calls, sampleSize, limit)
		}
	}
}

// TestRunIterationsAllocateNothing: past its setup, a run allocates
// nothing per iteration, so a 52-iteration run allocates what a
// 2-iteration run does. The slack covers the runtime refilling its
// goroutine-parking caches after a GC, which is no allocation of the run.
func TestRunIterationsAllocateNothing(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := newVectorProblem(12, 12, displacementScore)
		p.degenerate = 1.1 // never converges: every run lasts MaxIterations
		allocs := func(iters int) float64 {
			cfg := Config{SampleSize: 300, Seed: 11, Workers: workers, MaxIterations: iters,
				StallWindow: 1 << 20, DiscardHistory: true}
			return testing.AllocsPerRun(20, func() {
				res, err := Run(p, cfg)
				if err != nil || res.Iterations != iters {
					t.Fatalf("run: %d iterations, %v", res.Iterations, err)
				}
			})
		}
		short, long := allocs(2), allocs(52)
		if long > short+4 {
			t.Fatalf("workers=%d: %v allocations for 52 iterations, %v for 2", workers, long, short)
		}
	}
}
