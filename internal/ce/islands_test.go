package ce

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// islandConfig is a small OneMax setup; distinct seeds per island. Gentle
// smoothing and a wide stall window keep all MaxIterations iterations
// running (no early convergence), so exchange cadence is predictable.
func islandConfig(g int) Config {
	return Config{
		SampleSize:    200,
		Rho:           0.1,
		Zeta:          0.3,
		StallWindow:   50,
		MaxIterations: 12,
		Workers:       1,
		Seed:          1000 + uint64(g),
		Island:        g,
	}
}

// TestRunIslandsExchange runs two OneMax islands that trade their best
// elite every 3 iterations through a toy in-memory mailbox and checks
// the exchange telemetry and migrant-driven best-so-far folding.
func TestRunIslandsExchange(t *testing.T) {
	const every = 3
	var mu sync.Mutex
	mailbox := make(map[int]map[int][]int) // island -> iter -> its best elite
	score := make(map[int]map[int]float64)
	exchanged := make(map[int]int)

	hook := func(g int) ExchangeFunc {
		peer := 1 - g
		return func(ctx context.Context, iter int, elite [][]int, scores []float64) (ExchangeResult, error) {
			if iter%every != 0 {
				t.Errorf("island %d exchange at iter %d, want multiples of %d", g, iter, every)
			}
			if len(elite) == 0 || len(elite) != len(scores) {
				t.Errorf("island %d: %d elite, %d scores", g, len(elite), len(scores))
			}
			best := make([]int, len(elite[0]))
			copy(best, elite[0])
			mu.Lock()
			if mailbox[g] == nil {
				mailbox[g] = make(map[int][]int)
				score[g] = make(map[int]float64)
			}
			mailbox[g][iter] = best
			score[g][iter] = scores[0]
			in, okIn := mailbox[peer][iter]
			inScore := score[peer][iter]
			exchanged[g]++
			mu.Unlock()
			var res ExchangeResult
			res.Out = 1
			if okIn {
				res.In = [][]int{in}
				res.InScores = []float64{inScore}
			}
			return res, nil
		}
	}

	var runs []IslandRun
	for g := 0; g < 2; g++ {
		p := newVectorProblem(25, 2, zerosScore)
		runs = append(runs, IslandRun{
			Problem:       p,
			Config:        islandConfig(g),
			ExchangeEvery: every,
			Exchange:      hook(g),
		})
	}
	results, err := RunIslands(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for g, res := range results {
		if res.Iterations != 12 {
			t.Fatalf("island %d ran %d iterations, want 12", g, res.Iterations)
		}
		for _, st := range res.History {
			if st.Island != g {
				t.Fatalf("island %d stats labelled %d", g, st.Island)
			}
			if st.Iter%every == 0 {
				if st.MigrantsOut != 1 {
					t.Fatalf("island %d iter %d: MigrantsOut = %d", g, st.Iter, st.MigrantsOut)
				}
			} else if st.MigrantsOut != 0 || st.MigrantsIn != 0 {
				t.Fatalf("island %d iter %d: unexpected exchange counters %+v", g, st.Iter, st)
			}
			// An immigrant at least as good as the incumbent must be
			// reflected in BestSoFar.
			if st.MigrantsIn > 0 && st.BestSoFar > st.Best {
				t.Fatalf("island %d iter %d: best-so-far %v < best %v", g, st.Iter, st.BestSoFar, st.Best)
			}
		}
	}
	if exchanged[0] != 4 || exchanged[1] != 4 {
		t.Fatalf("exchange counts %v, want 4 each (iters 3,6,9,12)", exchanged)
	}
}

// TestRunIslandsDeterministic: identical ensembles produce bit-identical
// search histories.
func TestRunIslandsDeterministic(t *testing.T) {
	runOnce := func() []Result {
		var runs []IslandRun
		for g := 0; g < 2; g++ {
			p := newVectorProblem(20, 2, zerosScore)
			g := g
			runs = append(runs, IslandRun{
				Problem:       p,
				Config:        islandConfig(g),
				ExchangeEvery: 4,
				Exchange: func(ctx context.Context, iter int, elite [][]int, scores []float64) (ExchangeResult, error) {
					return ExchangeResult{Out: len(elite)}, nil
				},
			})
		}
		res, err := RunIslands(context.Background(), runs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	for g := range a {
		if a[g].BestScore != b[g].BestScore || !reflect.DeepEqual(a[g].Best, b[g].Best) {
			t.Fatalf("island %d: best differs across identical runs", g)
		}
		if len(a[g].History) != len(b[g].History) {
			t.Fatalf("island %d: history lengths differ", g)
		}
		for i := range a[g].History {
			if a[g].History[i].Search() != b[g].History[i].Search() {
				t.Fatalf("island %d iter %d: history differs", g, i)
			}
		}
	}
}

// TestRunIslandsExchangeError: a failing exchange fails the ensemble and
// cancels the peers.
func TestRunIslandsExchangeError(t *testing.T) {
	boom := errors.New("exchange exploded")
	var runs []IslandRun
	for g := 0; g < 2; g++ {
		p := newVectorProblem(20, 2, zerosScore)
		g := g
		runs = append(runs, IslandRun{
			Problem:       p,
			Config:        islandConfig(g),
			ExchangeEvery: 2,
			Exchange: func(ctx context.Context, iter int, elite [][]int, scores []float64) (ExchangeResult, error) {
				if g == 1 {
					return ExchangeResult{}, boom
				}
				return ExchangeResult{}, nil
			},
		})
	}
	if _, err := RunIslands(context.Background(), runs); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestRunIslandsAfter: After runs per island and its error propagates.
func TestRunIslandsAfter(t *testing.T) {
	var mu sync.Mutex
	ran := 0
	p1 := newVectorProblem(10, 2, zerosScore)
	p2 := newVectorProblem(10, 2, zerosScore)
	runs := []IslandRun{
		{Problem: p1, Config: islandConfig(0), After: func(ctx context.Context, res *Result) error {
			mu.Lock()
			ran++
			mu.Unlock()
			return nil
		}},
		{Problem: p2, Config: islandConfig(1), After: func(ctx context.Context, res *Result) error {
			mu.Lock()
			ran++
			mu.Unlock()
			return nil
		}},
	}
	if _, err := RunIslands(context.Background(), runs); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("After ran %d times, want 2", ran)
	}

	afterErr := errors.New("finish failed")
	p3 := newVectorProblem(10, 2, zerosScore)
	bad := []IslandRun{{Problem: p3, Config: islandConfig(0), After: func(ctx context.Context, res *Result) error {
		return afterErr
	}}}
	if _, err := RunIslands(context.Background(), bad); !errors.Is(err, afterErr) {
		t.Fatalf("err = %v, want %v", err, afterErr)
	}
}

// TestRunIslandsHookValidation: an exchange hook without a positive
// interval is rejected.
func TestRunIslandsHookValidation(t *testing.T) {
	p := newVectorProblem(10, 2, zerosScore)
	runs := []IslandRun{{
		Problem: p,
		Config:  islandConfig(0),
		Exchange: func(ctx context.Context, iter int, elite [][]int, scores []float64) (ExchangeResult, error) {
			return ExchangeResult{}, nil
		},
	}}
	if _, err := RunIslands(context.Background(), runs); err == nil {
		t.Fatal("exchange hook without interval accepted")
	}
	if _, err := RunIslands(context.Background(), nil); err == nil {
		t.Fatal("empty ensemble accepted")
	}
}
